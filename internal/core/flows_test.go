package core

import (
	"sync"
	"testing"
	"testing/quick"

	"vnetp/internal/ethernet"
)

func TestFlowStatsAccumulates(t *testing.T) {
	fs := NewFlowStats()
	a, b := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	fs.Record(a, b, 100)
	fs.Record(a, b, 200)
	fs.Record(b, a, 50)
	top := fs.Top(0)
	if len(top) != 2 {
		t.Fatalf("flows = %v", top)
	}
	if top[0].Src != a || top[0].Bytes != 300 || top[0].Packets != 2 {
		t.Fatalf("top flow = %+v", top[0])
	}
	if top[1].Bytes != 50 {
		t.Fatalf("second flow = %+v", top[1])
	}
}

func TestFlowStatsTopK(t *testing.T) {
	fs := NewFlowStats()
	for i := 0; i < 10; i++ {
		fs.Record(ethernet.LocalMAC(uint32(i)), ethernet.LocalMAC(99), 100*(i+1))
	}
	top := fs.Top(3)
	if len(top) != 3 {
		t.Fatalf("top(3) = %d entries", len(top))
	}
	if top[0].Bytes != 1000 || top[2].Bytes != 800 {
		t.Fatalf("top = %v", top)
	}
}

func TestFlowStatsEviction(t *testing.T) {
	fs := NewFlowStats()
	// One giant flow, then overflow the table with singletons: the giant
	// must survive.
	big := ethernet.LocalMAC(1)
	fs.Record(big, ethernet.LocalMAC(2), 1<<30)
	for i := 0; i < maxTrackedFlows+100; i++ {
		fs.Record(ethernet.LocalMAC(uint32(1000+i)), ethernet.LocalMAC(3), 1)
	}
	if fs.Len() > maxTrackedFlows {
		t.Fatalf("len = %d, cap %d", fs.Len(), maxTrackedFlows)
	}
	top := fs.Top(1)
	if top[0].Src != big {
		t.Fatal("heavy flow evicted")
	}
}

func TestFlowStatsReset(t *testing.T) {
	fs := NewFlowStats()
	fs.Record(ethernet.LocalMAC(1), ethernet.LocalMAC(2), 10)
	fs.Reset()
	if fs.Len() != 0 || len(fs.Top(0)) != 0 {
		t.Fatal("reset left data")
	}
}

// Property: Top is totally ordered by bytes descending, and total bytes
// across flows equals total recorded.
func TestFlowStatsOrderProperty(t *testing.T) {
	prop := func(records []struct {
		S, D uint8
		N    uint16
	}) bool {
		fs := NewFlowStats()
		var total uint64
		for _, r := range records {
			n := int(r.N) + 1
			fs.Record(ethernet.LocalMAC(uint32(r.S)), ethernet.LocalMAC(uint32(r.D)), n)
			total += uint64(n)
		}
		top := fs.Top(0)
		var sum uint64
		for i, f := range top {
			sum += f.Bytes
			if i > 0 && f.Bytes > top[i-1].Bytes {
				return false
			}
		}
		return sum == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowStatsHeavySurvivesConcurrentChurn: one heavy flow keeps its
// place while four goroutines push ten times the table's capacity of
// one-packet flows through it (run under -race in CI).
func TestFlowStatsHeavySurvivesConcurrentChurn(t *testing.T) {
	fs := NewFlowStats()
	big, peer := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	fs.Record(big, peer, 1<<30)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10*maxTrackedFlows/workers; i++ {
				fs.Acquire(ethernet.LocalMAC(uint32(1000+w<<20+i)), ethernet.LocalMAC(3)).Add(1)
			}
		}(w)
	}
	wg.Wait()
	if got := fs.Len(); got > maxTrackedFlows {
		t.Fatalf("len = %d, cap %d", got, maxTrackedFlows)
	}
	if top := fs.Top(1); top[0].Src != big || top[0].Bytes != 1<<30 {
		t.Fatalf("heavy flow displaced: top = %+v", top[0])
	}
	// The retained pointer is still the table's entry, not a detached one.
	if fl := fs.Acquire(big, peer); fl.Bytes != 1<<30 {
		t.Fatalf("heavy flow re-created: %+v", fl)
	}
}

// BenchmarkFlowStatsAcquireChurn is the flow-cache miss path's
// accounting cost: each op acquires a flow the table has never seen and
// counts one packet. "below" resets the table before it fills, so no op
// evicts; "16x" keeps inserting into a full table, so every op evicts.
// Eviction inspects a bounded sample, so the two stay within 2x of each
// other (a full-shard scan put them >20x apart).
func BenchmarkFlowStatsAcquireChurn(b *testing.B) {
	const batch = maxTrackedFlows / 2 // one op = this many acquires
	run := func(b *testing.B, prefill int) {
		fs := NewFlowStats()
		dst := ethernet.LocalMAC(3)
		next := uint32(0)
		for ; next < uint32(prefill); next++ {
			fs.Acquire(ethernet.LocalMAC(next), dst).Add(1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if prefill == 0 {
				b.StopTimer()
				fs.Reset()
				b.StartTimer()
			}
			for j := 0; j < batch; j++ {
				fs.Acquire(ethernet.LocalMAC(next), dst).Add(1)
				next++
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/acquire")
	}
	b.Run("below", func(b *testing.B) { run(b, 0) })
	b.Run("16x", func(b *testing.B) { run(b, 16*maxTrackedFlows) })
}
