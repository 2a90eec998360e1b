// The node half of the unified drop ledger: a fixed reason vocabulary
// covering every datapath drop site, and the one helper all sites call.
// Legacy per-site counter families (endpoint ring, dispatcher ring,
// TX ring, no-route, bad-packet, seal reject, cross-tenant, reassembly
// evictions) remain live views at their original names, so the LIST
// STATS pin and existing dashboards stay append-only; the ledger adds
// the correlated vnetp_drops_total{reason} family, per-tenant drop
// attribution, and the detail tails the /diag bundle renders.
//
// The accounting contract mirrors the PR 7 TX rules: one observed drop
// increments exactly one ledger reason, exactly once. The drop-site
// regression test pins this per site.

package overlay

import "vnetp/internal/telemetry"

// Ledger drop reasons. Every datapath drop site reports exactly one.
const (
	// dropNoRoute: a frame with no usable destination — unknown tenant,
	// no matching route, or a route naming a deleted link.
	dropNoRoute = "no_route"
	// dropBadPacket: a malformed encapsulation datagram (parse or
	// reassembly failure) on any receive path.
	dropBadPacket = "bad_packet"
	// dropEndpointRing: a delivered frame lost to a full endpoint
	// receive ring (virtio RXQ overrun).
	dropEndpointRing = "endpoint_ring"
	// dropDispatcherRing: a datagram lost to a full dispatcher ring
	// (NIC RX ring overrun analogue).
	dropDispatcherRing = "dispatcher_ring"
	// dropProbeRing: a control datagram lost to a full probe ring; the
	// peer sees it as a lost heartbeat.
	dropProbeRing = "probe_ring"
	// dropTxRing: a frame lost to a full link TX ring.
	dropTxRing = "tx_ring"
	// dropTxTeardown: frames a stopping TX sender had already collected
	// into its in-hand batch (link delete, drain, node close).
	dropTxTeardown = "tx_teardown"
	// dropReassemblyEvict: stale partial reassemblies aged out by the
	// evictor (each evicted partial is one lost frame).
	dropReassemblyEvict = "reassembly_evict"
	// dropSealReject: a sealed datagram rejected fail-closed
	// (unknown tenant, failed auth, replay, truncation).
	dropSealReject = "seal_reject"
	// dropCrossTenant: a frame stopped by the tenancy guards (endpoint
	// or link bound to a different tenant than the frame).
	dropCrossTenant = "cross_tenant"
	// dropTxError: a frame a batched sender took off its ring that never
	// left — the transport refused its datagrams (dial failure, write
	// error), or it could not be encoded.
	dropTxError = "tx_error"
)

// dropReasons is the declared vocabulary, in datapath order (RX → route
// → TX). NewDropLedger pre-creates every child so scrapes and LIST
// STATS see the full set at zero. A new reason goes at the end: LIST
// STATS prints them in this order and only ever grows at the end of
// the block.
var dropReasons = []string{
	dropBadPacket,
	dropDispatcherRing,
	dropProbeRing,
	dropSealReject,
	dropReassemblyEvict,
	dropNoRoute,
	dropCrossTenant,
	dropEndpointRing,
	dropTxRing,
	dropTxTeardown,
	dropTxError,
}

// drop is the single funnel every overlay drop site reports through: it
// moves the unified ledger (counter family + detail tail) and the
// owning tenant's per-tenant drop SLI together, so the two surfaces can
// never disagree.
func (n *Node) drop(reason string, count uint64, d telemetry.DropDetail) {
	n.ledger.Drop(reason, count, d)
	n.slis.get(d.Tenant).drops.Add(count)
}

// Ledger exposes the node's unified drop ledger (diagnostics and
// tests; the /diag bundle renders its tails).
func (n *Node) Ledger() *telemetry.DropLedger { return n.ledger }
