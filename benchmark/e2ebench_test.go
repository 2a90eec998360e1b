package main

import (
	"math"
	"os"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for e2ebench when the harness
// re-execs itself for a round.
func TestMain(m *testing.M) {
	if runChild() {
		return
	}
	os.Exit(m.Run())
}

// TestQuickRun drives the whole harness in -quick shape — every
// workload, one untraced and one traced round, the probe child — and
// checks the result against the contract file.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live nodes for ~20 s")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	contract, err := loadBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(workloads, 1, 0, true)
	p.outDir = t.TempDir()
	p.untraced, p.traced = 1, 1
	rep := newReport(p, p.run(func(s string) { t.Log(s) }))

	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(contract.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, w := range rep.Workloads {
		if contract.Workloads[i].Name != w.Workload || contract.Workloads[i].Why != workloads[i].Why {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, contract.Workloads[i].Name, w.Workload)
		}
		if !w.Correct {
			t.Errorf("%s: output checks failed: %v", w.Workload, w.Failures)
		}
		if w.Attempted == 0 {
			t.Errorf("%s: nothing attempted", w.Workload)
		}
		// Every metric the contract names appears exactly once, finite,
		// under a well-formed name, and the harness reports nothing else.
		for _, tr := range []bool{false, true} {
			line := w.contractLine(tr)
			want := map[string]string{}
			if tr {
				for _, m := range contract.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range contract.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, contract names %d", w.Workload, tr, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", w.Workload, name)
				case got.Unit != unit:
					t.Errorf("%s: %s has unit %q, contract says %q", w.Workload, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.Workload, name, got.Value)
				case !nameOK.MatchString(name):
					t.Errorf("metric name %q is malformed", name)
				}
			}
		}
		for _, m := range contract.EndToEnd {
			if w.EndToEnd[m.Name] <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must be positive", w.Workload, m.Name, w.EndToEnd[m.Name])
			}
		}
	}
	small := rep.Workloads[0]
	if small.Workload != "small_sync" || small.PerLayer["loss_pct"] != 0 || small.Failed != 0 {
		t.Errorf("small_sync lost frames: loss_pct %v, failed %d", small.PerLayer["loss_pct"], small.Failed)
	}
	if _, err := os.Stat(p.outDir + "/small_sync.trace.json"); err != nil {
		t.Errorf("traced round wrote no trace file: %v", err)
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample must be 0")
	}
}

func TestRoundEstimators(t *testing.T) {
	vs := []float64{10, 12, 9, 11, 4}
	if best(vs) != 12 || median(vs) != 10 || lowest(vs) != 4 {
		t.Errorf("best %v median %v lowest %v", best(vs), median(vs), lowest(vs))
	}
	if median([]float64{1, 3}) != 2 {
		t.Error("median of an even count is the mean of the middle two")
	}
	if got := roundSpread(vs); math.Abs(got-100*2.0/12) > 1e-9 {
		t.Errorf("roundSpread = %v", got)
	}
	// The quietest tenth (at least three) of the echo slices, chosen by
	// median: the lucky {5, 1} slice cannot set the 99th percentile alone.
	slices := [][2]float64{{20, 200}, {5, 1}, {6, 60}, {30, 300}, {7, 70}, {25, 250}}
	if p50, p99 := quietest(slices); p50 != 6 || p99 != 60 {
		t.Errorf("quietest = %v, %v; want 6, 60", p50, p99)
	}
}

func TestWindowStallReconcile(t *testing.T) {
	w := window{limit: 4}
	for i := 0; i < 4; i++ {
		if w.full() {
			t.Fatalf("window full after %d sends", i)
		}
		w.sent()
	}
	if !w.full() {
		t.Fatal("window should be full at its limit")
	}
	w.stall() // no credit in time: write the four off, reopen
	if w.full() || w.stalls != 1 {
		t.Fatalf("after stall: %+v", w)
	}
	w.sent()
	w.credit(4) // the written-off frames' credit arrives late: clamped
	if w.inflight != 0 {
		t.Fatalf("late credit drove inflight to %d", w.inflight)
	}
	for i := 0; i < 4; i++ {
		w.sent()
	}
	if !w.full() {
		t.Fatal("a recovered window still holds at most limit frames")
	}
}

func TestPayloadPattern(t *testing.T) {
	for _, size := range []int{24, 64, 67, 1486, 8900} {
		p := make([]byte, size)
		fillPayload(p, 3, 42)
		if flow, seq, ok := checkPayload(p); !ok || flow != 3 || seq != 42 {
			t.Errorf("size %d: round trip gave flow %d seq %d ok %v", size, flow, seq, ok)
		}
		p[size-1] ^= 1
		if _, _, ok := checkPayload(p); ok {
			t.Errorf("size %d: a flipped last byte passed", size)
		}
		p[size-1] ^= 1
		if _, _, ok := checkPayload(p[:size-1]); ok {
			t.Errorf("size %d: a truncated payload passed", size)
		}
	}
	// A fragment spliced in from another frame of the same flow fails.
	a, b := make([]byte, 2800), make([]byte, 2800)
	fillPayload(a, 0, 7)
	fillPayload(b, 0, 8)
	copy(a[1384:], b[1384:])
	if _, _, ok := checkPayload(a); ok {
		t.Error("a frame with another frame's second fragment passed")
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		a, b, bound  float64
		better, want string
	}{
		{100, 95, 0.10, "higher", "agree"},
		{100, 89, 0.10, "higher", "worse"},
		{100, 111, 0.10, "higher", "better"},
		{20, 21.9, 0.10, "lower", "agree"},
		{20, 22.1, 0.10, "lower", "worse"},
		{20, 17, 0.10, "lower", "better"},
	} {
		if got := verdict(c.a, c.b, c.bound, c.better); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %s) = %s, want %s", c.a, c.b, c.bound, c.better, got, c.want)
		}
	}
}
