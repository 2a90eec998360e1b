package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// TopFlowCapacity is the heavy-hitter candidate capacity per tenant:
// top 32 flows by bytes, the working set an operator actually reads.
const TopFlowCapacity = 32

// TopFlowEntry is one heavy-hitter reading: a flow key and its live
// byte/packet counts at query time.
type TopFlowEntry struct {
	Key     FlowKey
	Bytes   uint64
	Packets uint64
}

// TopFlows is a bounded heavy-hitter candidate set over live FlowStats
// accounting entries — a space-saving sketch specialised to this
// codebase's flow fast path. Classic space-saving maintains k counters
// and, at capacity, replaces the minimum-count entry with each new
// arrival. Here the counts are not sketch-internal: each candidate
// holds a live *Flow pointer (FlowStats.Acquire), whose atomic
// Bytes/Packets every routed frame already updates, so readings stay
// exactly current without the sketch seeing every frame.
//
// The space-saving error characteristics carry over: a genuinely heavy
// flow is never the minimum, so it is never evicted; churn is confined
// to the light tail. One departure from the classic sketch: at capacity
// an arrival no heavier than the lightest candidate is turned away
// instead of replacing it (it would be the next victim anyway), which
// lets a MAC scan's stream of first-frame offers be refused without a
// scan. A refusal is therefore not final: the caller re-offers a flow
// as it grows (the overlay does at packet counts 1, 2, 4, 8, …, so a
// flow costs O(log packets) offers in its lifetime), and a flow that
// has outgrown the lightest candidate is admitted at its next offer.
type TopFlows struct {
	mu sync.Mutex
	k  int
	m  map[FlowKey]*Flow

	// floor is the lightest candidate's byte count at the last scan.
	// Counters only grow, membership changes only under mu, and a
	// candidate that follows a new, lighter entry lowers it, so it
	// never exceeds the current minimum: an offer at or below it is
	// lighter than every candidate and is refused without scanning.
	floor uint64
}

// NewTopFlows returns an empty candidate set holding at most k flows
// (TopFlowCapacity when k <= 0).
func NewTopFlows(k int) *TopFlows {
	if k <= 0 {
		k = TopFlowCapacity
	}
	return &TopFlows{k: k, m: make(map[FlowKey]*Flow, k)}
}

// Offer proposes a flow for candidacy. A present flow offered with its
// current accounting entry is a no-op (its live counters are already
// tracked); offered with another — FlowStats dropped the flow and
// admitted it again — the candidate follows the new entry, since
// FlowStats is the truth and the old entry counts no more. With room the
// flow is admitted; at capacity it replaces the current minimum-bytes
// candidate if it is heavier (space-saving replacement on live
// readings), and is refused in O(1) when it is no heavier than the
// recorded floor.
func (t *TopFlows) Offer(key FlowKey, fl *Flow) {
	if fl == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old, ok := t.m[key]; ok {
		if old != fl {
			t.m[key] = fl
			if b := atomic.LoadUint64(&fl.Bytes); b < t.floor {
				t.floor = b
			}
		}
		return
	}
	if len(t.m) >= t.k {
		bytes := atomic.LoadUint64(&fl.Bytes)
		if bytes <= t.floor {
			return
		}
		var minKey FlowKey
		first := true
		for k2, f2 := range t.m {
			if b := atomic.LoadUint64(&f2.Bytes); first || b < t.floor {
				first, minKey, t.floor = false, k2, b
			}
		}
		if bytes <= t.floor {
			return
		}
		delete(t.m, minKey)
	}
	t.m[key] = fl
}

// Len reports the current candidate count.
func (t *TopFlows) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Top returns up to n candidates ordered by live byte count (packets,
// then key rendering break ties deterministically). n <= 0 means all.
func (t *TopFlows) Top(n int) []TopFlowEntry {
	t.mu.Lock()
	out := make([]TopFlowEntry, 0, len(t.m))
	for key, fl := range t.m {
		out = append(out, TopFlowEntry{
			Key:     key,
			Bytes:   atomic.LoadUint64(&fl.Bytes),
			Packets: atomic.LoadUint64(&fl.Packets),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
