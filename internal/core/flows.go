package core

import (
	"encoding/binary"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"

	"vnetp/internal/ethernet"
)

// Flow is one observed (source, destination) MAC pair with its traffic
// volume — the raw material of the VNET model's adaptation loop (paper
// Sect. 3: "monitor application communication ... and address such
// problems through VM migration and overlay network control").
//
// Bytes and Packets are updated with sync/atomic: holders of a live
// pointer (Acquire) add concurrently with Record, without the shard
// lock.
type Flow struct {
	Src, Dst ethernet.MAC
	Bytes    uint64
	Packets  uint64
}

// Add counts one packet of n bytes into the flow and returns the new
// packet count. Bytes are added first, so whoever observes packet count
// p also observes at least p packets' bytes. A nil flow — one
// FlowStats.Acquire did not admit — counts nothing and returns 0.
func (f *Flow) Add(n int) uint64 {
	if f == nil {
		return 0
	}
	atomic.AddUint64(&f.Bytes, uint64(n))
	return atomic.AddUint64(&f.Packets, 1)
}

// flowKey identifies a directed flow.
type flowKey struct{ src, dst ethernet.MAC }

// maxTrackedFlows bounds the accounting table; when full, a light flow
// is evicted to admit a new one (heavy flows, the ones adaptation cares
// about, stay).
const maxTrackedFlows = 4096

// admitEvery is the sample-and-hold rate of a full table (Estan and
// Varghese, "New Directions in Traffic Measurement and Accounting",
// SIGCOMM 2002): a flow the table does not hold is admitted with
// probability 1/admitEvery per Acquire, and counted exactly from then
// on. A flow of n frames stays out with probability
// (1-1/admitEvery)^n — 1.6 % at 64 frames, about 1e-28 at 1 000 — while
// a MAC scan's one-frame flows allocate and evict for one Acquire in
// admitEvery instead of every one. The draw is random, not a counter, so
// a periodic sender cannot keep falling between admissions.
const admitEvery = 16

// evictSample is how many resident flows an eviction inspects: the
// lightest of the sample goes. Acquire runs whenever a flow-cache entry
// meets a new source, and under a MAC scan one call in admitEvery is an
// eviction, so the cost must not grow with the table. A flow is evicted
// only when it is the lightest of evictSample residents (a run of slots
// from a random start), which a heavy flow among light ones never is.
const evictSample = 8

// flowStatShards is the number of independently locked accounting
// segments. Record sits on the per-frame datapath (every routed frame
// touches it), so a single table mutex serializes otherwise parallel
// senders; sharding by flow key keeps distinct flows on distinct locks.
// Power of two for cheap masking.
const flowStatShards = 16

// flowStatShard is one accounting segment: its own lock, map, and slice
// of the global capacity. slots lists the residents so an eviction can
// sample them by index; the newcomer takes its victim's slot. A ranged
// break over the map would need no second structure, but go1.24's map
// iterator costs ~530 ns to set up and walk 8 entries of a 256-entry
// shard against ~55 ns for 8 slots (Acquire without an eviction: ~130
// ns), which alone puts the full-table benchmark >2x the roomy one.
type flowStatShard struct {
	mu    sync.Mutex
	flows map[flowKey]*Flow
	slots []*Flow
}

// FlowStats accumulates per-flow traffic counters. Safe for concurrent
// use (the real-socket overlay records from socket goroutines); sharded
// so concurrent senders on distinct flows do not contend. The capacity
// bound, sample-and-hold admission and light-flow eviction apply per
// shard, which preserves the intent (heavy flows get in and stay) while
// keeping evictions local. A held flow's counts are exact from its
// admission; what a flow sent before it was admitted is not counted.
type FlowStats struct {
	shards [flowStatShards]flowStatShard
}

// NewFlowStats returns an empty accounting table.
func NewFlowStats() *FlowStats {
	fs := &FlowStats{}
	for i := range fs.shards {
		fs.shards[i].flows = make(map[flowKey]*Flow)
	}
	return fs
}

// shardOf maps a flow key onto its segment: word-at-a-time multiply-mix
// over both MACs. Record sits on the per-frame datapath, so the hash is
// two loads and two multiplies rather than a byte loop; the high bits
// fold down so the vendor prefix still influences shard choice.
func (fs *FlowStats) shardOf(k flowKey) *flowStatShard {
	a := binary.BigEndian.Uint32(k.src[2:])
	b := binary.BigEndian.Uint32(k.dst[2:])
	c := uint32(k.src[0])<<24 | uint32(k.src[1])<<16 | uint32(k.dst[0])<<8 | uint32(k.dst[1])
	h := (a ^ c) * 0x9E3779B1
	h ^= (b ^ h>>15) * 0x85EBCA6B
	h ^= h >> 16
	return &fs.shards[h&uint32(flowStatShards-1)]
}

// Record adds one packet of n bytes to the flow, and counts nothing when
// a full table does not admit it (Acquire).
func (fs *FlowStats) Record(src, dst ethernet.MAC, n int) {
	fs.Acquire(src, dst).Add(n)
}

// Acquire returns the live accounting entry for a flow, without counting
// anything. A held flow is returned as is. A new one is inserted while
// its shard has room; at capacity it is admitted with probability
// 1/admitEvery, evicting the lightest of a sample of residents, and
// otherwise Acquire returns nil and allocates nothing — a nil *Flow
// counts nothing (Flow.Add). Callers may retain the pointer and count
// into it with Flow.Add — the overlay's flow cache does exactly that, so
// a cache hit accounts its frame with two atomic adds instead of a hash
// + lock + map probe. A retained pointer whose entry is later evicted (or
// swept by Reset) keeps counting into the detached object until the
// holder refreshes; those counts are lost, which matches eviction's
// semantics — the table is an adaptation sensor, not a ledger.
func (fs *FlowStats) Acquire(src, dst ethernet.MAC) *Flow {
	k := flowKey{src, dst}
	sh := fs.shardOf(k)
	sh.mu.Lock()
	f := sh.flows[k]
	if f == nil {
		f = sh.admitLocked(k)
	}
	sh.mu.Unlock()
	return f
}

// admitLocked inserts a flow the shard does not hold: while there is
// room, always; at capacity with probability 1/admitEvery, in the place
// of the lightest of a sample of residents. It returns nil, having
// allocated nothing, when it does not admit the flow.
func (sh *flowStatShard) admitLocked(k flowKey) *Flow {
	full := len(sh.slots) >= maxTrackedFlows/flowStatShards
	if full && rand.Uint32N(admitEvery) != 0 {
		return nil
	}
	f := &Flow{Src: k.src, Dst: k.dst}
	if full {
		i := sh.lightSlotLocked()
		delete(sh.flows, flowKey{sh.slots[i].Src, sh.slots[i].Dst})
		sh.slots[i] = f
	} else {
		sh.slots = append(sh.slots, f)
	}
	sh.flows[k] = f
	return f
}

// lightSlotLocked picks the eviction victim: the lightest of evictSample
// consecutive slots from a random start.
func (sh *flowStatShard) lightSlotLocked() int {
	start := rand.IntN(len(sh.slots))
	victim, min := start, atomic.LoadUint64(&sh.slots[start].Bytes)
	for j := 1; j < evictSample; j++ {
		i := (start + j) % len(sh.slots)
		if b := atomic.LoadUint64(&sh.slots[i].Bytes); b < min {
			victim, min = i, b
		}
	}
	return victim
}

// Top returns the k largest flows by bytes, descending (ties broken by
// MAC order for determinism).
func (fs *FlowStats) Top(k int) []Flow {
	var out []Flow
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.Lock()
		for _, f := range sh.flows {
			out = append(out, Flow{Src: f.Src, Dst: f.Dst,
				Bytes:   atomic.LoadUint64(&f.Bytes),
				Packets: atomic.LoadUint64(&f.Packets)})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		if out[i].Src != out[j].Src {
			return lessMAC(out[i].Src, out[j].Src)
		}
		return lessMAC(out[i].Dst, out[j].Dst)
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

func lessMAC(a, b ethernet.MAC) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Reset clears the counters (start of a new observation window).
func (fs *FlowStats) Reset() {
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.Lock()
		sh.flows = make(map[flowKey]*Flow)
		sh.slots = nil
		sh.mu.Unlock()
	}
}

// Len reports the number of tracked flows (at most maxTrackedFlows).
func (fs *FlowStats) Len() int {
	total := 0
	for i := range fs.shards {
		sh := &fs.shards[i]
		sh.mu.Lock()
		total += len(sh.flows)
		sh.mu.Unlock()
	}
	return total
}
