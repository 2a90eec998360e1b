// Per-tenant service-level indicators (ISSUE 10): each tenant's share
// of the node's traffic and loss, as labeled registry families plus an
// append-only LIST TENANTS extension. The node-wide counters answer
// "is this node healthy"; these answer "which tenant is affected".
//
// Accounting model:
//   - frames/bytes out: frames a tenant's local endpoint submitted into
//     routing (flow-cache hit and miss paths both count, at admission).
//   - frames/bytes in: frames delivered into a tenant endpoint's
//     receive ring.
//   - drops: every unified-ledger drop attributed to the tenant (the
//     drop funnel in ledger.go feeds this, so the two never disagree).
//   - seal rejects: sealed datagrams rejected while claiming the
//     tenant's ID (the claim is unauthenticated — a forged datagram
//     charges the tenant it impersonates, which is exactly the tenant
//     an operator should look at).
//   - rx latency: the receive-path latency histogram scoped to the
//     tenant's delivered traffic.
//
// Forwarded transit frames (in on one link, out another) belong to no
// local endpoint and are not tenant-accounted, mirroring how FlowStats
// only accounts locally originated flows.

package overlay

import (
	"fmt"
	"strconv"
	"sync"

	"vnetp/internal/telemetry"
)

// tenantSLI is one tenant's resolved counter handles. Hot paths cache a
// pointer to this (on the endpoint or flow-cache entry), so steady-state
// accounting is plain atomic adds with no label lookups.
type tenantSLI struct {
	tenant      uint32
	framesIn    *telemetry.Counter
	framesOut   *telemetry.Counter
	bytesIn     *telemetry.Counter
	bytesOut    *telemetry.Counter
	drops       *telemetry.Counter
	sealRejects *telemetry.Counter
	rxLatency   *telemetry.Histogram
}

// tenantSLIs owns the labeled families and the tenant → handle cache.
type tenantSLIs struct {
	framesIn    *telemetry.CounterVec
	framesOut   *telemetry.CounterVec
	bytesIn     *telemetry.CounterVec
	bytesOut    *telemetry.CounterVec
	drops       *telemetry.CounterVec
	sealRejects *telemetry.CounterVec
	rxLatency   *telemetry.HistogramVec

	m sync.Map // uint32 tenant → *tenantSLI
}

func newTenantSLIs(reg *telemetry.Registry) *tenantSLIs {
	return &tenantSLIs{
		framesIn: reg.CounterVec("vnetp_tenant_frames_in_total",
			"Frames delivered to a tenant's local endpoints.", "tenant"),
		framesOut: reg.CounterVec("vnetp_tenant_frames_out_total",
			"Frames a tenant's local endpoints submitted into routing.", "tenant"),
		bytesIn: reg.CounterVec("vnetp_tenant_bytes_in_total",
			"Bytes delivered to a tenant's local endpoints.", "tenant"),
		bytesOut: reg.CounterVec("vnetp_tenant_bytes_out_total",
			"Bytes a tenant's local endpoints submitted into routing.", "tenant"),
		drops: reg.CounterVec("vnetp_tenant_drops_total",
			"Unified-ledger drops attributed to the tenant.", "tenant"),
		sealRejects: reg.CounterVec("vnetp_tenant_seal_rejects_total",
			"Sealed datagrams rejected while claiming the tenant's ID.", "tenant"),
		rxLatency: reg.HistogramVec("vnetp_tenant_rx_latency_seconds",
			"Receive-path latency for every frame received in the tenant's namespace, whether delivered, forwarded onto a link or dropped (no_route, cross_tenant): one sample per frame, valued per train.",
			telemetry.LatencyBuckets, "tenant"),
	}
}

// get resolves a tenant's handle set, creating the labeled children on
// first use. One lock-free sync.Map load on repeat calls; callers on
// per-frame paths cache the returned pointer instead.
func (s *tenantSLIs) get(tenant uint32) *tenantSLI {
	if v, ok := s.m.Load(tenant); ok {
		return v.(*tenantSLI)
	}
	label := strconv.FormatUint(uint64(tenant), 10)
	sli := &tenantSLI{
		tenant:      tenant,
		framesIn:    s.framesIn.With(label),
		framesOut:   s.framesOut.With(label),
		bytesIn:     s.bytesIn.With(label),
		bytesOut:    s.bytesOut.With(label),
		drops:       s.drops.With(label),
		sealRejects: s.sealRejects.With(label),
		rxLatency:   s.rxLatency.With(label),
	}
	actual, _ := s.m.LoadOrStore(tenant, sli)
	return actual.(*tenantSLI)
}

// TenantSummary renders the configured tenants for LIST TENANTS: ID,
// key fingerprint (never the key), remote origins heard, the tenant's
// route count, and the tenant's SLIs (frames in/out, ledger drops, and
// seal rejects charged to the tenant). Fields are append-only within
// each line, so parsers of the original prefix keep working.
func (n *Node) TenantSummary() []string {
	out := []string{}
	for _, ti := range n.keyring.Tenants() {
		routes := 0
		if tbl := n.tenants.Table(ti.ID); tbl != nil {
			routes = len(tbl.Routes())
		}
		sli := n.slis.get(ti.ID)
		out = append(out, fmt.Sprintf("TENANT %d KEY %s ORIGINS %d ROUTES %d IN %d OUT %d DROPS %d REJECTS %d",
			ti.ID, ti.Fingerprint, ti.Origins, routes,
			sli.framesIn.Load(), sli.framesOut.Load(),
			sli.drops.Load(), sli.sealRejects.Load()))
	}
	return out
}
