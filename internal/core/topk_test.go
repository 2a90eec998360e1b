package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vnetp/internal/ethernet"
)

func topkMAC(b byte) ethernet.MAC { return ethernet.MAC{0x02, 0, 0, 0, 0, b} }

func topkKey(i int) FlowKey {
	return FlowKey{Tenant: 1, Src: topkMAC(byte(i)), Dst: topkMAC(byte(i + 1))}
}

func TestTopFlowsOrderAndLiveCounts(t *testing.T) {
	tf := NewTopFlows(8)
	flows := make([]*Flow, 4)
	for i := range flows {
		flows[i] = &Flow{Src: topkMAC(byte(i)), Dst: topkMAC(byte(i + 1))}
		flows[i].Bytes = uint64((i + 1) * 100)
		flows[i].Packets = uint64(i + 1)
		tf.Offer(topkKey(i), flows[i])
	}
	top := tf.Top(2)
	if len(top) != 2 {
		t.Fatalf("top len = %d, want 2", len(top))
	}
	if top[0].Key != topkKey(3) || top[0].Bytes != 400 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Key != topkKey(2) || top[1].Bytes != 300 {
		t.Fatalf("top[1] = %+v", top[1])
	}
	// Live readings: growth after Offer is visible without re-offering.
	atomic.AddUint64(&flows[0].Bytes, 10_000)
	top = tf.Top(1)
	if top[0].Key != topkKey(0) || top[0].Bytes != 10_100 {
		t.Fatalf("live top[0] = %+v", top[0])
	}
	// Re-offering a present key with its own entry is a no-op.
	tf.Offer(topkKey(0), flows[0])
	if got := tf.Top(1)[0].Bytes; got != 10_100 {
		t.Fatalf("re-offer replaced live entry: bytes = %d", got)
	}
	// Re-offering it with a new entry (FlowStats re-admitted the flow)
	// follows the new entry.
	fresh := &Flow{Bytes: 7, Packets: 1}
	tf.Offer(topkKey(0), fresh)
	atomic.AddUint64(&fresh.Bytes, 5)
	if got := tf.Top(0); len(got) != 4 || got[3].Key != topkKey(0) || got[3].Bytes != 12 {
		t.Fatalf("re-admitted flow not followed: %+v", got)
	}
}

func TestTopFlowsEvictsMinimum(t *testing.T) {
	tf := NewTopFlows(3)
	heavy := &Flow{Bytes: 1000}
	mid := &Flow{Bytes: 500}
	light := &Flow{Bytes: 1}
	tf.Offer(topkKey(0), heavy)
	tf.Offer(topkKey(1), mid)
	tf.Offer(topkKey(2), light)
	if tf.Len() != 3 {
		t.Fatalf("len = %d, want 3", tf.Len())
	}
	// At capacity: the new arrival displaces the current minimum (light),
	// never the heavy hitters.
	tf.Offer(topkKey(3), &Flow{Bytes: 50})
	top := tf.Top(0)
	if len(top) != 3 {
		t.Fatalf("len = %d, want 3", len(top))
	}
	if top[0].Bytes != 1000 || top[1].Bytes != 500 || top[2].Bytes != 50 {
		t.Fatalf("post-evict top = %+v", top)
	}
}

func TestTopFlowsDefaultCapacity(t *testing.T) {
	tf := NewTopFlows(0)
	for i := 0; i < TopFlowCapacity*2; i++ {
		tf.Offer(FlowKey{Tenant: 2, Src: topkMAC(byte(i)), Dst: topkMAC(byte(i >> 8))},
			&Flow{Bytes: uint64(i)})
	}
	if tf.Len() != TopFlowCapacity {
		t.Fatalf("len = %d, want %d", tf.Len(), TopFlowCapacity)
	}
}

func TestTopFlowsConcurrent(t *testing.T) {
	tf := NewTopFlows(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fl := &Flow{Bytes: uint64(w*1000 + i)}
				key := FlowKey{Tenant: uint32(w), Src: topkMAC(byte(i))}
				tf.Offer(key, fl)
				if i%17 == 0 {
					_ = tf.Top(4)
					_ = tf.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tf.Len(); got != 16 {
		t.Fatalf("len = %d, want 16", got)
	}
	top := tf.Top(0)
	for i := 1; i < len(top); i++ {
		if top[i-1].Bytes < top[i].Bytes {
			t.Fatalf("unsorted top: %s", fmt.Sprint(top))
		}
	}
}

// TestTopFlowsRefusesLighterThanFloor: at capacity an arrival no heavier
// than the lightest candidate is turned away, one heavier than it is
// always admitted — also after the candidates have grown since the last
// scan, when the recorded floor understates the true minimum.
func TestTopFlowsRefusesLighterThanFloor(t *testing.T) {
	tf := NewTopFlows(2)
	a, b := &Flow{Bytes: 100}, &Flow{Bytes: 200}
	tf.Offer(topkKey(0), a)
	tf.Offer(topkKey(1), b)
	tf.Offer(topkKey(2), &Flow{Bytes: 100}) // ties the minimum: refused
	tf.Offer(topkKey(3), &Flow{})           // lighter than the minimum: refused
	if top := tf.Top(0); len(top) != 2 || top[0].Key != topkKey(1) || top[1].Key != topkKey(0) {
		t.Fatalf("light offers displaced a candidate: %+v", top)
	}
	atomic.AddUint64(&a.Bytes, 400)         // candidates grow: a=500, b=200
	tf.Offer(topkKey(4), &Flow{Bytes: 150}) // above the stale floor, below the true minimum
	tf.Offer(topkKey(5), &Flow{Bytes: 300}) // heavier than the minimum (b): admitted
	top := tf.Top(0)
	if len(top) != 2 || top[0].Key != topkKey(0) || top[1].Key != topkKey(5) {
		t.Fatalf("after growth: %+v, want keys 0 and 5", top)
	}
}

// TestTopFlowsRefusalIsNotFinal: a flow turned away while light gets in
// when it is offered again after outgrowing the lightest candidate — the
// rule that lets a late elephant into a full set.
func TestTopFlowsRefusalIsNotFinal(t *testing.T) {
	tf := NewTopFlows(2)
	tf.Offer(topkKey(0), &Flow{Bytes: 100})
	tf.Offer(topkKey(1), &Flow{Bytes: 200})
	late := &Flow{Bytes: 50}
	tf.Offer(topkKey(2), late)
	if top := tf.Top(0); top[1].Key != topkKey(0) {
		t.Fatalf("a lighter offer displaced the minimum: %+v", top)
	}
	atomic.AddUint64(&late.Bytes, 100)
	tf.Offer(topkKey(2), late)
	if top := tf.Top(0); top[0].Key != topkKey(1) || top[1].Key != topkKey(2) {
		t.Fatalf("a refused flow that outgrew the minimum was not admitted: %+v", top)
	}
}

// BenchmarkTopFlowsOfferChurn is a MAC scan's candidacy cost: "below"
// offers flows to a set with room, "16x" offers first-frame flows (one
// small frame counted) from a population 16 times the set's capacity to
// a full set of heavier ones — refused against the floor without a scan,
// so the two cost about the same.
func BenchmarkTopFlowsOfferChurn(b *testing.B) {
	const batch = 4096 // one op = this many offers
	run := func(b *testing.B, population int, full bool) {
		tf := NewTopFlows(TopFlowCapacity)
		keys := make([]FlowKey, population)
		for i := range keys {
			keys[i] = FlowKey{Tenant: 1, Src: ethernet.LocalMAC(uint32(i)), Dst: ethernet.LocalMAC(9)}
		}
		if full {
			for i := 0; i < TopFlowCapacity; i++ {
				tf.Offer(FlowKey{Tenant: 2, Src: ethernet.LocalMAC(uint32(i))}, &Flow{Bytes: 1 << 20})
			}
		}
		fl := &Flow{Bytes: 64, Packets: 1}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				tf.Offer(keys[j%population], fl)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/offer")
	}
	b.Run("below", func(b *testing.B) { run(b, TopFlowCapacity/2, false) })
	b.Run("16x", func(b *testing.B) { run(b, 16*TopFlowCapacity, true) })
}
