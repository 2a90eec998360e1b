package telemetry

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact Prometheus text rendering of a
// small registry: header lines, label escaping, sort order, histogram
// expansion.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_frames_total", "Frames handled.")
	c.Add(41)
	c.Inc()
	v := r.CounterVec("test_link_errors_total", "Per-link errors.", "link")
	v.With("b").Add(2)
	v.With(`a"\` + "\n").Inc()
	g := r.Gauge("test_depth", "Queue depth.")
	g.Set(3.5)
	r.GaugeFunc("test_auto", "Func gauge.", func() float64 { return 7 })
	h := r.Histogram("test_rtt_seconds", "RTT.", HistogramOpts{Start: 0.001, Factor: 10, Count: 3})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(99)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_auto Func gauge.
# TYPE test_auto gauge
test_auto 7
# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 3.5
# HELP test_frames_total Frames handled.
# TYPE test_frames_total counter
test_frames_total 42
# HELP test_link_errors_total Per-link errors.
# TYPE test_link_errors_total counter
test_link_errors_total{link="a\"\\\n"} 1
test_link_errors_total{link="b"} 2
# HELP test_rtt_seconds RTT.
# TYPE test_rtt_seconds histogram
test_rtt_seconds_bucket{le="0.001"} 1
test_rtt_seconds_bucket{le="0.01"} 1
test_rtt_seconds_bucket{le="0.1"} 2
test_rtt_seconds_bucket{le="+Inf"} 3
test_rtt_seconds_sum 99.0505
test_rtt_seconds_count 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestHistogramBuckets checks log-bucket assignment at and around the
// bound values (bounds are inclusive upper limits), one sample at a time
// and n at a time (ObserveN).
func TestHistogramBuckets(t *testing.T) {
	for _, n := range []uint64{1, 3} {
		h := newHistogram(HistogramOpts{Start: 1, Factor: 2, Count: 3}) // bounds 1,2,4
		for _, v := range []float64{0.5, 1, 1.001, 2, 4, 4.001} {
			h.ObserveN(v, n)
		}
		_, cum, count, sum := h.snapshot()
		if count != 6*n {
			t.Fatalf("n=%d: count = %d, want %d", n, count, 6*n)
		}
		if want := float64(n) * (0.5 + 1 + 1.001 + 2 + 4 + 4.001); math.Abs(sum-want) > 1e-9 {
			t.Fatalf("n=%d: sum = %v, want %v", n, sum, want)
		}
		want := []uint64{2, 4, 5, 6} // le=1:2, le=2:4, le=4:5, +Inf:6
		for i, w := range want {
			if cum[i] != w*n {
				t.Fatalf("n=%d: cumulative[%d] = %d, want %d (%v)", n, i, cum[i], w*n, cum)
			}
		}
	}
}

// TestRegistryHammer pounds one registry from many goroutines — child
// creation, increments, observations, deletions, and snapshots all
// concurrently. Run under -race this is the registry's thread-safety
// proof; the final counter total is also asserted.
func TestRegistryHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "x")
	cv := r.CounterVec("hammer_link_total", "x", "link")
	gv := r.GaugeVec("hammer_depth", "x", "w")
	h := r.Histogram("hammer_lat_seconds", "x", HistogramOpts{})
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			link := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				c.Inc()
				cv.With(link).Inc()
				gv.With(link).Set(float64(i))
				h.Observe(float64(i) * 1e-6)
				if i%512 == 0 {
					gv.Delete(link)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Gather()
				var b strings.Builder
				r.WriteText(&b)
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := c.Load(); got != workers*iters {
		t.Fatalf("hammer_total = %d, want %d", got, workers*iters)
	}
	if got := cv.Sum(); got != workers*iters {
		t.Fatalf("hammer_link_total sum = %d, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestServerEndpoints drives a real Serve instance: /metrics serves the
// exposition with the right content type, /healthz answers ok, and the
// pprof index is mounted.
func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "x").Add(3)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) (string, string) {
		t.Helper()
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	body, ct := get("/metrics")
	if !strings.Contains(body, "up_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if ct != TextContentType {
		t.Fatalf("content type = %q", ct)
	}
	if body, _ := get("/healthz"); body != "ok\n" {
		t.Fatalf("/healthz = %q", body)
	}
	if body, _ := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index not mounted:\n%.200s", body)
	}
}

// TestReRegistration checks idempotent re-registration returns the same
// underlying metric, and that shape mismatches panic loudly.
func TestReRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("again_total", "x")
	b := r.Counter("again_total", "x")
	a.Add(5)
	if b.Load() != 5 {
		t.Fatal("re-registration did not return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	r.Gauge("again_total", "x")
}

// TestLookupAndDeleteLabel: Lookup finds a child without creating one,
// and DeleteLabel takes a label value's children out of every family
// that has the label — whatever else labels them — and out of no other.
func TestLookupAndDeleteLabel(t *testing.T) {
	r := NewRegistry()
	errs := r.CounterVec("test_link_errors_total", "Per-link errors.", "link")
	depth := r.GaugeVec("test_link_depth", "Per-link depth.", "link")
	byKind := r.CounterVec("test_kind_link_total", "Two labels.", "kind", "link")
	workers := r.CounterVec("test_worker_total", "Another label.", "worker")
	errs.With("a").Add(3)
	errs.With("b").Inc()
	depth.With("a").Set(2)
	byKind.With("x", "a").Inc()
	byKind.With("a", "b").Inc() // "a" as a kind, not a link
	workers.With("a").Inc()

	if c := errs.Lookup("a"); c == nil || c.Load() != 3 {
		t.Fatalf("Lookup(a) = %v, want the child holding 3", c)
	}
	if errs.Lookup("never") != nil {
		t.Fatal("Lookup found a child nobody created")
	}
	r.DeleteLabel("link", "a")
	if errs.Lookup("a") != nil {
		t.Fatal("deleted child still found")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{`link="a"}`, `link="never"}`} {
		if strings.Contains(b.String(), gone) {
			t.Fatalf("%s survived DeleteLabel:\n%s", gone, b.String())
		}
	}
	for _, kept := range []string{`test_link_errors_total{link="b"} 1`, `test_kind_link_total{kind="a",link="b"} 1`, `test_worker_total{worker="a"} 1`} {
		if !strings.Contains(b.String(), kept) {
			t.Fatalf("%s lost to DeleteLabel:\n%s", kept, b.String())
		}
	}
}
