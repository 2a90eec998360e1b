// The node half of the unified drop ledger: a fixed reason vocabulary
// covering every datapath drop site, and the one funnel all sites call.
// The ledger is the only drop counter. The older per-site families keep
// their names on /metrics as views of it, so the LIST STATS pin and
// existing dashboards stay append-only: the scalar ones (no-route,
// bad-packet, cross-tenant, reassembly evictions) read the ledger's own
// counts at scrape time (registerNodeFuncs), the labelled ones (endpoint
// ring, dispatcher ring, TX ring, seal reject) are moved by the funnel.
//
// The accounting contract mirrors the PR 7 TX rules: one observed drop
// makes exactly one call, Node.drop, under exactly one reason. The
// drop-site regression test pins this per site.

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
	// dropProbeRing is retired: probes are answered by the worker that
	// reads them, so no ring sits ahead of them and nothing charges it.
	// Its vnetp_drops_total child and its LIST STATS line stay, at 0,
	// because both surfaces only ever grow.
	dropProbeRing = "probe_ring"
	// dropTxRing: a frame a link refused, txRing frames being pending
	// already.
	dropTxRing = "tx_ring"
	// dropTxTeardown: frames a link's sender lost — pending when it
	// stopped (link delete or replace, drain, node close) or sent to it
	// afterwards, or in flight when a flush panicked.
	dropTxTeardown = "tx_teardown"
	// dropReassemblyEvict: stale partial reassemblies aged out by the
	// evictor, charged the frames each stood for (a frame's one, a
	// train's count) unless a refused slice of it already charged them.
	dropReassemblyEvict = "reassembly_evict"
	// dropSealReject: a sealed datagram rejected fail-closed
	// (unknown tenant, failed auth, replay, truncation).
	dropSealReject = "seal_reject"
	// dropCrossTenant: a frame stopped by the tenancy guards (endpoint
	// or link bound to a different tenant than the frame).
	dropCrossTenant = "cross_tenant"
	// dropTxError: a frame that never left and has no caller to tell —
	// the transport refused its datagrams (dial failure, write error), or
	// it could not be encoded for a ring link.
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

// drop is the single funnel every overlay drop site reports through, and
// the only accounting call a site makes: it moves the labelled family that
// has always counted the reason (the switch is the whole per-reason table,
// the child named by the detail the site passes anyway), the owning
// tenant's drop SLI, and the unified ledger (counter family + detail
// tail) — last, so whoever sees a drop on the ledger finds it everywhere.
// No two surfaces can disagree. A view's children live and die with what
// they label, and a drop that races the deletion (a sender stopped by DEL
// LINK, frames pending) must not bring one back: Lookup.
func (n *Node) drop(reason string, count uint64, d telemetry.DropDetail) {
	sli := n.slis.get(d.Tenant)
	var view *telemetry.Counter
	switch m := n.metrics; reason {
	case dropEndpointRing:
		view = m.epDrops.Lookup(d.Scope)
	case dropDispatcherRing:
		view = m.dispDrops.Lookup(d.Scope)
	case dropTxRing, dropTxTeardown: // one family for both, as always
		view = m.linkTxDrops.Lookup(d.Scope)
	case dropSealReject: // the stage is the typed reject reason
		view = m.sealRejects.Lookup(d.Stage)
		sli.sealRejects.Add(count)
	}
	if view != nil {
		view.Add(count)
	}
	sli.drops.Add(count)
	n.ledger.Drop(reason, count, d)
}

// Ledger exposes the node's unified drop ledger (diagnostics and
// tests; the /diag bundle renders its tails).
func (n *Node) Ledger() *telemetry.DropLedger { return n.ledger }
