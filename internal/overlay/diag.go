// The diagnostic snapshot bundle (ISSUE 10): one JSON document
// answering "what is this node doing and why is it dropping frames" —
// build info, uptime, the normalized datapath configuration, a full
// metrics gather, health states, flow-cache and
// heavy-hitter readings, the drop ledger's tails, supervisor restart
// history, and the recorded traces. GET /diag on the telemetry
// listener and `vnetctl diag` both render it; the schema's top-level
// keys are golden-pinned so downstream triage tooling can rely on the
// shape.
//
// The bundle's numbers are its own Metrics gather read back (flow cache,
// drop totals) plus the summary surfaces the control language renders, so
// they agree with a /metrics scrape by construction (pinned by the diag
// e2e test on a live two-node overlay).

package overlay

import (
	"encoding/json"
	"net/http"
	"runtime"
	"time"

	"vnetp/internal/telemetry"
)

// DiagSchema versions the bundle's shape. Bump only when a top-level
// key changes meaning or disappears; adding keys is append-only and
// does not bump.
const DiagSchema = 2

// DiagBundle is the one-shot diagnostic snapshot document.
type DiagBundle struct {
	Schema        int       `json:"schema"`
	Node          string    `json:"node"`
	Addr          string    `json:"addr"`
	GeneratedAt   time.Time `json:"generated_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`

	Build  DiagBuild  `json:"build"`
	Config DiagConfig `json:"config"`

	// Metrics is the full registry gather — every family /metrics
	// would render, as structured samples.
	Metrics []telemetry.FamilySnapshot `json:"metrics"`

	Health    []string                `json:"health"`
	FlowCache DiagFlowCache           `json:"flow_cache"`
	TopFlows  map[string][]topFlowDoc `json:"top_flows"`
	Drops     DiagDrops               `json:"drops"`
	Tenants   []string                `json:"tenants"`
	Runtime   []DiagComponent         `json:"runtime"`
	Traces    []string                `json:"traces"`
}

// DiagBuild identifies the binary.
type DiagBuild struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// DiagConfig is the node's normalized datapath configuration — the
// effective values after defaulting, not the zero-ridden input.
type DiagConfig struct {
	Dispatchers     int     `json:"dispatchers"`
	RxBatch         int     `json:"rx_batch"`
	FlowCache       bool    `json:"flow_cache"`
	FlowCacheSize   int     `json:"flow_cache_size"`
	Adaptive        bool    `json:"adaptive"`
	TraceSample     uint64  `json:"trace_sample"`
	FlightDepth     int     `json:"flight_depth"`
	AnomalyWatch    bool    `json:"anomaly_watch"`
	AnomalyInterval string  `json:"anomaly_interval"`
	AnomalyDropRate float64 `json:"anomaly_drop_rate"`
}

// DiagFlowCache is the per-flow fast path's state.
type DiagFlowCache struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Epoch     uint64 `json:"epoch"`
	SrcKeyed  bool   `json:"source_keyed"`
}

// DiagDrops is the unified drop ledger's snapshot: totals by reason
// plus the per-reason detail tails.
type DiagDrops struct {
	Total    uint64                            `json:"total"`
	ByReason map[string]uint64                 `json:"by_reason"`
	Tails    map[string][]telemetry.DropRecord `json:"tails"`
}

// DiagComponent is one supervised component's restart history.
type DiagComponent struct {
	Name     string `json:"name"`
	Restarts uint64 `json:"restarts"`
}

// Diag assembles the node's diagnostic snapshot bundle.
func (n *Node) Diag() DiagBundle {
	n.metrics.diagRenders.Add(1)
	cfg := n.cfg
	fcSize := flowCacheSize
	if cfg.FlowCacheDisabled {
		fcSize = 0
	}
	g := gathered(n.metrics.reg.Gather())
	byReason := make(map[string]uint64, len(dropReasons))
	for _, r := range dropReasons {
		byReason[r] = g.sum("vnetp_drops_total", "reason", r)
	}
	comps := []DiagComponent{}
	for _, name := range n.sup.Components() {
		if w := n.sup.Worker(name); w != nil {
			comps = append(comps, DiagComponent{Name: name, Restarts: w.Restarts()})
		}
	}
	return DiagBundle{
		Schema:        DiagSchema,
		Node:          n.name,
		Addr:          n.Addr(),
		GeneratedAt:   time.Now().UTC(),
		UptimeSeconds: time.Since(n.started).Seconds(),
		Build: DiagBuild{
			GoVersion: runtime.Version(),
			OS:        runtime.GOOS,
			Arch:      runtime.GOARCH,
		},
		Config: DiagConfig{
			Dispatchers:     cfg.Dispatchers,
			RxBatch:         rxBatch,
			FlowCache:       !cfg.FlowCacheDisabled,
			FlowCacheSize:   fcSize,
			Adaptive:        cfg.Adaptive.Enabled,
			TraceSample:     cfg.TraceSample,
			FlightDepth:     cfg.FlightDepth,
			AnomalyWatch:    !cfg.Anomaly.Disabled,
			AnomalyInterval: cfg.Anomaly.Interval.String(),
			AnomalyDropRate: cfg.Anomaly.DropRate,
		},
		// Empty sections render as [] rather than null: the bundle's
		// consumers iterate without a nil check.
		Metrics: g,
		Health:  orEmpty(n.HealthSummary()),
		FlowCache: DiagFlowCache{
			Hits:      g.sum("vnetp_flow_cache_hits_total", ""),
			Misses:    g.sum("vnetp_flow_cache_misses_total", ""),
			Evictions: g.sum("vnetp_flow_cache_evictions_total", ""),
			Entries:   int(g.sum("vnetp_flow_cache_entries", "")),
			Epoch:     n.flowEpoch.Load(),
			SrcKeyed:  g.sum("vnetp_flow_cache_source_keyed", "") == 1,
		},
		TopFlows: n.topFlowsDoc(),
		Drops: DiagDrops{
			Total:    g.sum("vnetp_drops_total", ""),
			ByReason: byReason,
			Tails:    n.ledger.Snapshot(),
		},
		Tenants: orEmpty(n.TenantSummary()),
		Runtime: comps,
		Traces:  orEmpty(n.TraceDump()),
	}
}

// orEmpty maps a nil string slice to an empty one.
func orEmpty(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

// DiagHandler serves the snapshot bundle as JSON — mounted at /diag on
// the telemetry listener, beside /metrics, /trace, and /flight.
func (n *Node) DiagHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(n.Diag())
	})
}
