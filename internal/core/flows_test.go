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

// TestLateFlowAdmittedToFullTable: a flow that starts after every shard
// has filled is admitted within 1 000 frames, and counted exactly from
// its admission. While the table does not hold it, each frame admits it
// with probability 1/admitEvery, so the test fails by chance with
// probability (15/16)^1000 ≈ 1e-28.
func TestLateFlowAdmittedToFullTable(t *testing.T) {
	fs := NewFlowStats()
	dst := ethernet.LocalMAC(3)
	for i := 0; fs.Len() < maxTrackedFlows; i++ {
		fs.Record(ethernet.LocalMAC(uint32(1000+i)), dst, 1)
	}
	late := ethernet.LocalMAC(7)
	frames := 0
	var fl *Flow
	for ; fl == nil && frames < 1000; frames++ {
		fl = fs.Acquire(late, dst)
	}
	if fl == nil {
		t.Fatalf("a late flow was refused %d times in a row", frames)
	}
	if fl.Packets != 0 || fl.Bytes != 0 {
		t.Fatalf("admitted with counts: %+v", fl)
	}
	for i := 0; i < 50; i++ {
		fs.Record(late, dst, 100)
	}
	if top := fs.Top(1); top[0].Src != late || top[0].Packets != 50 || top[0].Bytes != 5000 {
		t.Fatalf("top = %+v, want the late flow's 50 packets since admission", top[0])
	}
	if got := fs.Len(); got != maxTrackedFlows {
		t.Fatalf("len = %d, want %d", got, maxTrackedFlows)
	}
}

// FuzzFlowStats is an op-machine over FlowStats checked against a shadow
// model of the entries Acquire handed out. Each op is a byte pair (op,
// operand):
//
//	0  Acquire a flow named by the operand and count a frame into it, as
//	   a flow-cache miss does;
//	1  count a frame through the entry last handed out for that flow, as
//	   a memo hit does;
//	2  flood: Acquire and count (operand%64+1)*64 fresh one-byte flows;
//	3  Reset;
//	4  Top.
//
// Invariants: Len never exceeds the capacity; Acquire refuses a flow only
// when its shard is full; an admitted entry starts at zero and every flow
// Top lists reads exactly what the model counted into its entry since
// admission; Top is ordered by bytes and lists every held flow; and a
// held flow with at least half of all bytes recorded since the last
// Reset is never evicted by a flood of one-frame flows.
func FuzzFlowStats(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 1, 1, 0, 40, 4, 0})
	f.Add([]byte{0, 9, 2, 63, 2, 63, 2, 63, 2, 63, 2, 63, 0, 9, 1, 9, 4, 0, 2, 63, 4, 0})
	heavy := []byte{}
	for i := 0; i < 8; i++ {
		heavy = append(heavy, 2, 63) // fill every shard
	}
	for i := 0; i < 40; i++ {
		heavy = append(heavy, 0, 200, 1, 200) // one flow grows heavy (once admitted)
	}
	heavy = append(heavy, 2, 63, 2, 63, 4, 0, 3, 0, 0, 200, 2, 63, 4, 0)
	f.Add(heavy)
	const floodDst = 999
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512] // a flood or a Top of a full table costs ~1 ms: bound an input's time
		}
		fs := NewFlowStats()
		type shadow struct {
			fl             *Flow
			bytes, packets uint64
		}
		model := map[flowKey]*shadow{}
		var total uint64 // bytes counted into admitted entries since Reset
		fresh := uint32(1 << 20)
		held := func(k flowKey, fl *Flow) bool { return fs.shardOf(k).flows[k] == fl }
		for i := 0; i+1 < len(ops); i += 2 {
			arg := ops[i+1]
			k := flowKey{ethernet.LocalMAC(uint32(arg % 32)), ethernet.LocalMAC(uint32(100 + arg/32))}
			n := uint64(arg)*13%1500 + 1
			switch ops[i] % 5 {
			case 0:
				fl := fs.Acquire(k.src, k.dst)
				if fl == nil {
					if room := len(fs.shardOf(k).slots); room < maxTrackedFlows/flowStatShards {
						t.Fatalf("refused %v with %d of %d slots used", k, room, maxTrackedFlows/flowStatShards)
					}
					continue
				}
				sh := model[k]
				if sh == nil || sh.fl != fl {
					if fl.Packets != 0 || fl.Bytes != 0 {
						t.Fatalf("%v admitted with counts %+v", k, fl)
					}
					sh = &shadow{fl: fl}
					model[k] = sh
				}
				fl.Add(int(n))
				sh.bytes, sh.packets, total = sh.bytes+n, sh.packets+1, total+n
			case 1:
				if sh := model[k]; sh != nil {
					sh.fl.Add(int(n))
					sh.bytes, sh.packets, total = sh.bytes+n, sh.packets+1, total+n
				}
			case 2:
				var heavy []flowKey
				for k, sh := range model {
					if held(k, sh.fl) {
						heavy = append(heavy, k)
					}
				}
				for j := 0; j < (int(arg)%64+1)*64; j++ {
					if fs.Acquire(ethernet.LocalMAC(fresh), ethernet.LocalMAC(floodDst)).Add(1) != 0 {
						total++
					}
					fresh++
				}
				for _, k := range heavy {
					if sh := model[k]; 2*sh.bytes >= total && !held(k, sh.fl) {
						t.Fatalf("%v with %d of %d bytes evicted by one-frame flows", k, sh.bytes, total)
					}
				}
			case 3:
				fs.Reset()
				model, total = map[flowKey]*shadow{}, 0
			case 4:
				top := fs.Top(0)
				if len(top) != fs.Len() {
					t.Fatalf("Top lists %d flows, Len %d", len(top), fs.Len())
				}
				for j, fl := range top {
					if j > 0 && fl.Bytes > top[j-1].Bytes {
						t.Fatalf("Top out of order at %d: %d after %d bytes", j, fl.Bytes, top[j-1].Bytes)
					}
					if fl.Dst == ethernet.LocalMAC(floodDst) {
						if fl.Packets != 1 || fl.Bytes != 1 {
							t.Fatalf("flood flow %+v, want 1 packet of 1 byte", fl)
						}
						continue
					}
					sh := model[flowKey{fl.Src, fl.Dst}]
					if sh == nil || fl.Bytes != sh.bytes || fl.Packets != sh.packets {
						t.Fatalf("Top reads %+v, model %+v", fl, sh)
					}
				}
			}
			if got := fs.Len(); got > maxTrackedFlows {
				t.Fatalf("len = %d, capacity %d", got, maxTrackedFlows)
			}
		}
	})
}
