// Runtime visibility for the live datapath. Every node owns a
// telemetry.Registry, and the datapath increments its children directly.
// Every text surface reads one Gather of that registry through a table
// declared here — LIST STATS (statRows), LINK STATUS and LIST HEALTH
// (linkRows), the /diag summary sections — so each shows what a /metrics
// scrape at that instant would. Naming scheme:
// vnetp_<subsystem>_<name>{_total} with per-link ("link") and per-worker
// ("worker") label families; latencies and RTTs are log-bucketed
// histograms in seconds (the paper's Fig. 7 per-stage budget, measured on
// the real path).
package overlay

import (
	"fmt"
	"slices"
	"strconv"

	"vnetp/internal/core"
	"vnetp/internal/seal"
	"vnetp/internal/telemetry"
)

// nodeMetrics holds a node's registered metric handles. Scalar node
// counters live directly on Node (exported, used by examples and
// tests); this struct carries the labeled families and histograms.
type nodeMetrics struct {
	reg *telemetry.Registry

	epDrops *telemetry.CounterVec // interface

	linkSendErrors *telemetry.CounterVec // link
	linkBytesSent  *telemetry.CounterVec
	linkBytesRecv  *telemetry.CounterVec
	linkProbesSent *telemetry.CounterVec
	linkProbesLost *telemetry.CounterVec
	linkReplies    *telemetry.CounterVec
	linkFailovers  *telemetry.CounterVec
	linkFailbacks  *telemetry.CounterVec
	linkRedials    *telemetry.CounterVec
	linkUpgrades   *telemetry.CounterVec
	linkTxDrops    *telemetry.CounterVec
	linkTxDepth    *telemetry.GaugeVec
	linkTxOffload  *telemetry.GaugeVec
	linkState      *telemetry.GaugeVec
	linkRTT        *telemetry.HistogramVec

	dispDatagrams *telemetry.CounterVec // worker
	dispFrames    *telemetry.CounterVec
	dispDrops     *telemetry.CounterVec
	reasmPending  *telemetry.GaugeVec

	// Sealed-datapath families: datagrams sealed on TX, opened on RX, and
	// fail-closed rejections by typed reason.
	sealSealed  *telemetry.Counter
	sealOpened  *telemetry.Counter
	sealRejects *telemetry.CounterVec // reason

	txBatchSize      *telemetry.Histogram
	txDatagramFrames *telemetry.Histogram
	rxBatchSize      *telemetry.Histogram
	rxGROTrains      *telemetry.Counter
	txLatency        *telemetry.Histogram
	rxLatency        *telemetry.Histogram

	// Runtime supervision (internal/supervise), labeled by component
	// ("dispatcher/<i>", "tx/<link>", "evictor", "health", "anomaly").
	panicsRecovered   *telemetry.CounterVec // component
	componentRestarts *telemetry.CounterVec
	watchdogStalls    *telemetry.CounterVec

	// Introspection layer (ISSUE 10): anomaly-watchdog alerts by kind
	// ("drop_rate", "watchdog_stall") and /diag bundle renders.
	anomalies   *telemetry.CounterVec // kind
	diagRenders *telemetry.Counter
}

func newNodeMetrics(reg *telemetry.Registry) *nodeMetrics {
	return &nodeMetrics{
		reg: reg,

		epDrops: reg.CounterVec("vnetp_endpoint_ring_drops_total",
			"Frames dropped at a full endpoint receive ring.", "interface"),

		linkSendErrors: reg.CounterVec("vnetp_link_send_errors_total",
			"Transport send failures per link (including inside fault conduits).", "link"),
		linkBytesSent: reg.CounterVec("vnetp_link_bytes_sent_total",
			"Encapsulation bytes sent per link (data and probes).", "link"),
		linkBytesRecv: reg.CounterVec("vnetp_link_bytes_recv_total",
			"Encapsulation bytes received per link (data and probes).", "link"),
		linkProbesSent: reg.CounterVec("vnetp_link_probes_sent_total",
			"Liveness probes sent per link.", "link"),
		linkProbesLost: reg.CounterVec("vnetp_link_probes_lost_total",
			"Liveness probes lost (unanswered within the timeout) per link.", "link"),
		linkReplies: reg.CounterVec("vnetp_link_probe_replies_total",
			"Liveness probe replies received per link.", "link"),
		linkFailovers: reg.CounterVec("vnetp_link_failovers_total",
			"Down transitions that failed backup-equipped routes over.", "link"),
		linkFailbacks: reg.CounterVec("vnetp_link_failbacks_total",
			"Recoveries that restored failed-over routes.", "link"),
		linkRedials: reg.CounterVec("vnetp_link_redials_total",
			"TCP transport re-establishments per link.", "link"),
		linkUpgrades: reg.CounterVec("vnetp_link_upgrades_total",
			"UDP links auto-upgraded to TCP encapsulation.", "link"),
		linkTxDrops: reg.CounterVec("vnetp_link_tx_ring_drops_total",
			"Frames a link dropped short of the wire: refused at a full ring batch (tx_ring) or lost at teardown (tx_teardown).", "link"),
		linkTxDepth: reg.GaugeVec("vnetp_link_tx_queue_depth",
			"Frames encoded into a link's pending batch and waiting for its sender's flush.", "link"),
		linkTxOffload: reg.GaugeVec("vnetp_link_tx_offload",
			"Whether a link's multi-datagram trains leave as one UDP_SEGMENT message: 1 armed, 0 plain messages (refused by the kernel or device, fault conduit, TCP, or no platform support).", "link"),
		linkState: reg.GaugeVec("vnetp_link_state",
			"Link liveness state: 0 up, 1 degraded, 2 down.", "link"),
		linkRTT: reg.HistogramVec("vnetp_link_rtt_seconds",
			"Liveness probe round-trip time per link.", telemetry.LatencyBuckets, "link"),

		dispDatagrams: reg.CounterVec("vnetp_dispatcher_datagrams_total",
			"Data datagrams finished per receive worker.", "worker"),
		dispFrames: reg.CounterVec("vnetp_dispatcher_frames_total",
			"Completed inner frames routed per receive worker.", "worker"),
		dispDrops: reg.CounterVec("vnetp_dispatcher_drops_total",
			"Datagrams the kernel shed at a receive worker's full socket queue (SO_RXQ_OVFL; one per datagram, whatever it carried).", "worker"),
		reasmPending: reg.GaugeVec("vnetp_reassembly_pending",
			"Partially reassembled packets held per receive worker.", "worker"),

		sealSealed: reg.Counter("vnetp_seal_sealed_total",
			"Encapsulation datagrams sealed (AEAD-encrypted) on the transmit path."),
		sealOpened: reg.Counter("vnetp_seal_opened_total",
			"Sealed datagrams authenticated and decrypted on the receive path."),
		sealRejects: reg.CounterVec("vnetp_seal_reject_total",
			"Sealed datagrams rejected fail-closed, by reason.", "reason"),

		txBatchSize: reg.Histogram("vnetp_tx_batch_size",
			"Frames carried per data transmit on a link: its mean is frames per send syscall.",
			telemetry.HistogramOpts{Start: 1, Factor: 2, Count: 9}),
		txDatagramFrames: reg.Histogram("vnetp_tx_datagram_frames",
			"Frames completed per data datagram sent: 0 for each datagram of a train or fragmented frame but the last, which takes the train's frame count (a lone frame's: 1).",
			telemetry.HistogramOpts{Start: 1, Factor: 2, Count: 9}),
		rxBatchSize: reg.Histogram("vnetp_rx_batch_size",
			"Datagrams drained from a UDP socket per receive-worker wakeup (recvmmsg batch; a UDP_GRO train counts each of its datagrams).",
			telemetry.HistogramOpts{Start: 1, Factor: 2, Count: 9}),
		rxGROTrains: reg.Counter("vnetp_rx_gro_trains_total",
			"Socket reads that returned a train of datagrams (UDP_GRO)."),
		txLatency: reg.Histogram("vnetp_tx_latency_seconds",
			"Frame-in to datagram-out latency for locally originated frames hitting a link: one sample per frame, valued per batch (the wait of the batch's oldest frame).",
			telemetry.LatencyBuckets),
		rxLatency: reg.Histogram("vnetp_rx_latency_seconds",
			"Socket read to routing done on the receive path, for every frame received whether delivered, forwarded onto a link or dropped (no_route, cross_tenant): one sample per frame, valued per train (read to the train's last frame routed).",
			telemetry.LatencyBuckets),

		panicsRecovered: reg.CounterVec("vnetp_panics_recovered_total",
			"Panics recovered in supervised datapath components.", "component"),
		componentRestarts: reg.CounterVec("vnetp_component_restarts_total",
			"Supervised component relaunches (panic recoveries and watchdog supersessions).", "component"),
		watchdogStalls: reg.CounterVec("vnetp_watchdog_stalls_total",
			"Stalled supervised components detected and superseded by the watchdog.", "component"),

		anomalies: reg.CounterVec("vnetp_anomalies_total",
			"Anomaly-watchdog alerts (drop-rate or stall thresholds crossed), by kind.", "kind"),
		diagRenders: reg.Counter("vnetp_diag_renders_total",
			"Diagnostic snapshot bundles rendered (/diag and vnetctl diag)."),
	}
}

// registerNodeFuncs installs the snapshot-time metrics that read state
// maintained elsewhere: node counters, routing-cache atomics, ring
// depths, and reassembler occupancy. Called once the shards exist.
func (n *Node) registerNodeFuncs() {
	m := n.metrics
	reg := m.reg
	reg.GaugeFunc("vnetp_dispatchers", "Receive workers (one socket each).",
		func() float64 { return float64(len(n.shards)) })
	// The scalar drop families are the ledger's own counts under their
	// original names.
	for _, v := range []struct{ name, help, reason string }{
		{"vnetp_no_route_drops_total", "Frames dropped for lack of a route or link.", dropNoRoute},
		{"vnetp_bad_packets_total", "Malformed encapsulation datagrams rejected.", dropBadPacket},
		{"vnetp_cross_tenant_drops_total", "Frames dropped by the tenancy guards (endpoint or link bound to a different tenant).", dropCrossTenant},
		{"vnetp_reassembly_evictions_total", "Frames lost with stale partial reassemblies aged out (a train's count, a fragmented frame's one).", dropReassemblyEvict},
	} {
		reg.CounterFunc(v.name, v.help, func() uint64 { return n.ledger.Count(v.reason) })
	}
	// A live node's tables run with the routing cache off (the flow cache
	// is the one cache on the resolve path), so over every tenant's table
	// misses count rule-list scans and hits stay 0.
	routeCache := func() (hits, misses uint64) {
		n.tenants.Each(func(_ uint32, t *core.Table) {
			h, m := t.CacheStats()
			hits, misses = hits+h, misses+m
		})
		return hits, misses
	}
	reg.CounterFunc("vnetp_route_cache_hits_total",
		"Routing-cache hits, all tenants (0 on a live node: its tables run uncached under the flow cache).",
		func() uint64 { h, _ := routeCache(); return h })
	reg.CounterFunc("vnetp_route_cache_misses_total",
		"Routing-table rule-list scans, all tenants (one per unicast frame the flow cache did not answer and per broadcast frame).",
		func() uint64 { _, m := routeCache(); return m })
	reg.CounterFunc("vnetp_encap_pool_hits_total",
		"Encapsulation buffer pool hits on the transmit path.",
		func() uint64 { h, _ := n.encap.PoolStats(); return h })
	reg.CounterFunc("vnetp_encap_pool_misses_total",
		"Encapsulation buffer pool misses (fresh allocations) on the transmit path.",
		func() uint64 { _, m := n.encap.PoolStats(); return m })
	for _, s := range n.shards {
		s := s
		w := strconv.Itoa(s.idx)
		m.dispDrops.With(w) // the drop funnel moves only children that exist
		m.reasmPending.Func(func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.reasm.Pending())
		}, w)
	}
	// Flow-cache families read the cache's atomics (all zero when the
	// cache is disabled, so the scrape surface is stable either way).
	reg.CounterFunc("vnetp_flow_cache_hits_total",
		"Per-flow forwarding cache hits (full decision served in one lookup).",
		func() uint64 { h, _, _, _ := n.FlowCacheStats(); return h })
	reg.CounterFunc("vnetp_flow_cache_misses_total",
		"Per-flow forwarding cache misses (absent or epoch-stale entries).",
		func() uint64 { _, m, _, _ := n.FlowCacheStats(); return m })
	reg.CounterFunc("vnetp_flow_cache_evictions_total",
		"Per-flow forwarding cache entries evicted at the capacity bound.",
		func() uint64 { _, _, e, _ := n.FlowCacheStats(); return e })
	reg.GaugeFunc("vnetp_flow_cache_entries",
		"Per-flow forwarding cache resident entries (stale entries included until overwritten).",
		func() float64 { _, _, _, ent := n.FlowCacheStats(); return float64(ent) })
	reg.GaugeFunc("vnetp_flow_cache_source_keyed",
		"1 while some installed route has a source qualifier (flow-cache key is tenant, src, dst), 0 while none does (tenant, dst).",
		func() float64 {
			if n.tenants.SourceQualified() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("vnetp_tenants",
		"Tenants with installed AEAD keys on this node.",
		func() float64 { return float64(n.keyring.Count()) })
	// The reject-reason label set is fixed (seal.RejectReasons), so every
	// child exists from node start — a scrape sees zeroes, not absence.
	for _, r := range seal.RejectReasons {
		m.sealRejects.With(r)
	}
	reg.CounterFunc("vnetp_trace_sampled_total",
		"Frames selected for live tracing (sampler or flow trigger).",
		func() uint64 { return n.tracer.Sampled() })
	reg.GaugeFunc("vnetp_trace_active",
		"Trace paths currently retained by the live tracer.",
		func() float64 { return float64(n.tracer.Active()) })
	reg.CounterFunc("vnetp_flight_events_total",
		"Datagram events captured by the per-dispatcher flight recorders.",
		func() uint64 {
			var t uint64
			for _, s := range n.shards {
				t += s.flight.Total()
			}
			return t
		})
}

// Telemetry exposes the node's metrics registry, e.g. for
// telemetry.Serve (the vnetpd -telemetry-addr flag).
func (n *Node) Telemetry() *telemetry.Registry { return n.metrics.reg }

// newLinkCounters hands a fresh (or re-added) link its registry
// children. Caller must have dropped any previous link of the same id
// (Registry.DeleteLabel) so counters restart from zero, matching the
// pre-registry semantics of a replaced link.
func (n *Node) newLinkCounters(lk *link) {
	m := n.metrics
	lk.sendErrors = m.linkSendErrors.With(lk.id)
	lk.bytesSent = m.linkBytesSent.With(lk.id)
	lk.bytesRecv = m.linkBytesRecv.With(lk.id)
	m.linkTxDrops.With(lk.id) // moved by the drop funnel, by link id
	m.linkTxOffload.Func(func() float64 {
		if tr := lk.transport.Load(); tr.proto == "udp" && tr.sa != nil && tr.fault == nil && lk.refused.Load() != tr {
			return 1
		}
		return 0
	}, lk.id)
	m.linkTxDepth.Func(func() float64 { return float64(lk.comb.depth()) }, lk.id)
}

// --- control-plane rendering ---
//
// The tables and renderers below are the single source of the "name
// value" counter lines the control language exposes (LIST STATS, LINK
// STATUS, LIST HEALTH), each number out of one registry gather.

// gathered is one registry gather.
type gathered []telemetry.FamilySnapshot

// sum totals a counter or gauge family's children: all of them, or, given
// one of the family's labels, those whose value for it is one of values.
func (g gathered) sum(family, label string, values ...string) uint64 {
	var t float64
	for _, f := range g {
		if f.Name != family {
			continue
		}
		col := slices.Index(f.LabelNames, label)
		for _, s := range f.Samples {
			if col < 0 || slices.Contains(values, s.LabelValues[col]) {
				t += s.Value
			}
		}
	}
	return uint64(t)
}

// statRow declares one LIST STATS line: its key and the registry family
// it totals (with Label, only the children whose Label is one of Values).
type statRow struct {
	Key, Family string
	Label       string
	Values      []string
}

// statRows is the LIST STATS table, top to bottom, for this node's
// dispatcher pool. The line set and order are pinned
// (TestListStatsBackcompat): everything after the dispatcher block is
// append-only, the ledger block growing at its own end and "anomalies"
// staying last.
func (n *Node) statRows() []statRow {
	rows := []statRow{
		{Key: "encap_sent", Family: "vnetp_encap_sent_total"},
		{Key: "encap_recv", Family: "vnetp_encap_recv_total"},
		{Key: "delivered", Family: "vnetp_frames_delivered_total"},
		{Key: "no_route_drops", Family: "vnetp_no_route_drops_total"},
		{Key: "bad_packets", Family: "vnetp_bad_packets_total"},
		{Key: "send_errors", Family: "vnetp_link_send_errors_total"},
		{Key: "route_cache_hits", Family: "vnetp_route_cache_hits_total"},
		{Key: "route_cache_misses", Family: "vnetp_route_cache_misses_total"},
		{Key: "probes_sent", Family: "vnetp_link_probes_sent_total"},
		{Key: "probes_lost", Family: "vnetp_link_probes_lost_total"},
		{Key: "failovers", Family: "vnetp_link_failovers_total"},
		{Key: "failbacks", Family: "vnetp_link_failbacks_total"},
		{Key: "redials", Family: "vnetp_link_redials_total"},
		{Key: "link_upgrades", Family: "vnetp_link_upgrades_total"},
		{Key: "dispatchers", Family: "vnetp_dispatchers"},
	}
	for i := range n.shards {
		w := strconv.Itoa(i)
		for _, kind := range []string{"datagrams", "frames", "drops"} {
			rows = append(rows, statRow{Key: "dispatcher_" + w + "_" + kind,
				Family: "vnetp_dispatcher_" + kind + "_total", Label: "worker", Values: []string{w}})
		}
	}
	rows = append(rows, []statRow{
		// A node total must not go backwards: the per-link family forgets
		// a deleted link, the ledger does not.
		{Key: "tx_ring_drops", Family: "vnetp_drops_total", Label: "reason", Values: []string{dropTxRing, dropTxTeardown}},
		{Key: "encap_pool_hits", Family: "vnetp_encap_pool_hits_total"},
		{Key: "encap_pool_misses", Family: "vnetp_encap_pool_misses_total"},
		{Key: "sealed_sent", Family: "vnetp_seal_sealed_total"},
		{Key: "sealed_opened", Family: "vnetp_seal_opened_total"},
		{Key: "seal_rejects", Family: "vnetp_seal_reject_total"},
		{Key: "cross_tenant_drops", Family: "vnetp_cross_tenant_drops_total"},
		{Key: "tenants", Family: "vnetp_tenants"},
		{Key: "flow_cache_hits", Family: "vnetp_flow_cache_hits_total"},
		{Key: "flow_cache_misses", Family: "vnetp_flow_cache_misses_total"},
		{Key: "flow_cache_evictions", Family: "vnetp_flow_cache_evictions_total"},
		{Key: "flow_cache_entries", Family: "vnetp_flow_cache_entries"},
		{Key: "drops_total", Family: "vnetp_drops_total"},
	}...)
	for _, r := range dropReasons {
		rows = append(rows, statRow{Key: "drops_" + r, Family: "vnetp_drops_total", Label: "reason", Values: []string{r}})
	}
	return append(rows, statRow{Key: "anomalies", Family: "vnetp_anomalies_total"},
		statRow{Key: "flow_cache_source_keyed", Family: "vnetp_flow_cache_source_keyed"})
}

// Stats reports the node's traffic counters (LIST STATS in the control
// language): statRows rendered from one gather, so every value is the
// one /metrics scrapes (TestTelemetryEndToEnd checks them line by line).
func (n *Node) Stats() []string {
	g := gathered(n.metrics.reg.Gather())
	var out []string
	for _, r := range n.statRows() {
		out = append(out, statLine(r.Key, g.sum(r.Family, r.Label, r.Values...)))
	}
	return out
}

// statLine renders one control-plane counter line.
func statLine(name string, v uint64) string {
	return fmt.Sprintf("%s %d", name, v)
}

// linkRows is the LINK STATUS counter block in print order: key, per-link
// family, and whether the line exists only on a monitored link. The order
// up to "upgrades" is pinned for backward compatibility; the byte
// counters and TX ring drops append after.
var linkRows = []struct {
	key, family string
	health      bool
}{
	{"probes_sent", "vnetp_link_probes_sent_total", true},
	{"probes_lost", "vnetp_link_probes_lost_total", true},
	{"replies_recv", "vnetp_link_probe_replies_total", true},
	{"send_errors", "vnetp_link_send_errors_total", false},
	{"failovers", "vnetp_link_failovers_total", true},
	{"failbacks", "vnetp_link_failbacks_total", true},
	{"redials", "vnetp_link_redials_total", true},
	{"upgrades", "vnetp_link_upgrades_total", true},
	{"bytes_sent", "vnetp_link_bytes_sent_total", false},
	{"bytes_recv", "vnetp_link_bytes_recv_total", false},
	{"tx_ring_drops", "vnetp_link_tx_ring_drops_total", false},
}

// linkStatusLines renders a link in LINK STATUS form and linkSummaryLine
// in LIST HEALTH one-line form: liveness from the link's health state
// (caller holds n.mu), counters from the gather by the link's label.
func linkStatusLines(g gathered, lk *link) []string {
	lines := []string{fmt.Sprintf("link %s proto %s remote %s", lk.id, lk.transport.Load().proto, lk.remote)}
	h := lk.health
	if h == nil {
		lines = append(lines, "state unmonitored")
	} else {
		lines = append(lines,
			fmt.Sprintf("state %s", h.state),
			statLine("rtt_us", uint64(h.rtt.Microseconds())),
			fmt.Sprintf("loss_pct %.1f", h.lossRate()*100))
	}
	for _, r := range linkRows {
		if h != nil || !r.health {
			lines = append(lines, statLine(r.key, g.sum(r.family, "link", lk.id)))
		}
	}
	return lines
}

func linkSummaryLine(g gathered, lk *link) string {
	proto, h := lk.transport.Load().proto, lk.health
	if h == nil {
		return fmt.Sprintf("%s %s unmonitored", lk.id, proto)
	}
	return fmt.Sprintf("%s %s %s rtt_us=%d loss_pct=%.1f sent=%d lost=%d send_errors=%d",
		lk.id, proto, h.state, h.rtt.Microseconds(), h.lossRate()*100,
		g.sum("vnetp_link_probes_sent_total", "link", lk.id),
		g.sum("vnetp_link_probes_lost_total", "link", lk.id),
		g.sum("vnetp_link_send_errors_total", "link", lk.id))
}
