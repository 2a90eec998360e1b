// Per-tenant heavy-hitter exposure (ISSUE 10): each tenant gets a
// core.TopFlows candidate set fed from flow accounting (countOut: a
// flow is offered at its first frame and again each time its packet
// count doubles), so the flow cache's view of the world is inspectable
// at /topflows and via LIST FLOWS for one branch on the per-frame hot
// path.

package overlay

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"vnetp/internal/core"
)

// offerTopFlow proposes a locally originated flow to its tenant's
// heavy-hitter candidate set (countOut decides when).
func (n *Node) offerTopFlow(key core.FlowKey, fl *core.Flow) {
	v, ok := n.topk.Load(key.Tenant)
	if !ok {
		v, _ = n.topk.LoadOrStore(key.Tenant, core.NewTopFlows(core.TopFlowCapacity))
	}
	v.(*core.TopFlows).Offer(key, fl)
}

// TopFlowEntries returns every tenant's heavy-hitter readings, keyed by
// tenant, each list ordered by live byte count. Tenants with no
// candidates are absent.
func (n *Node) TopFlowEntries() map[uint32][]core.TopFlowEntry {
	out := make(map[uint32][]core.TopFlowEntry)
	n.topk.Range(func(k, v any) bool {
		tenant := k.(uint32)
		if top := v.(*core.TopFlows).Top(0); len(top) > 0 {
			out[tenant] = top
		}
		return true
	})
	return out
}

// TopFlowSummary renders the heavy hitters in the control language's
// line-per-fact style: a "flows N" count, then one line per candidate
// ordered by tenant then bytes. LIST FLOWS returns these lines.
func (n *Node) TopFlowSummary() []string {
	byTenant := n.TopFlowEntries()
	tenants := make([]uint32, 0, len(byTenant))
	total := 0
	for t, entries := range byTenant {
		tenants = append(tenants, t)
		total += len(entries)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i] < tenants[j] })
	out := make([]string, 0, total+1)
	out = append(out, fmt.Sprintf("flows %d", total))
	for _, t := range tenants {
		for _, e := range byTenant[t] {
			out = append(out, fmt.Sprintf("flow tenant=%d src=%s dst=%s bytes=%d packets=%d",
				t, e.Key.Src, e.Key.Dst, e.Bytes, e.Packets))
		}
	}
	return out
}

// topFlowsDoc is the /topflows JSON shape: tenant (as a decimal string
// key) → ordered heavy-hitter list.
type topFlowDoc struct {
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	Bytes   uint64 `json:"bytes"`
	Packets uint64 `json:"packets"`
}

func (n *Node) topFlowsDoc() map[string][]topFlowDoc {
	out := make(map[string][]topFlowDoc)
	for tenant, entries := range n.TopFlowEntries() {
		docs := make([]topFlowDoc, 0, len(entries))
		for _, e := range entries {
			docs = append(docs, topFlowDoc{
				Src:     e.Key.Src.String(),
				Dst:     e.Key.Dst.String(),
				Bytes:   e.Bytes,
				Packets: e.Packets,
			})
		}
		out[fmt.Sprint(tenant)] = docs
	}
	return out
}

// TopFlowsHandler serves the per-tenant heavy hitters as JSON — mounted
// at /topflows on the telemetry listener, beside /trace and /flight.
func (n *Node) TopFlowsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(n.topFlowsDoc())
	})
}
