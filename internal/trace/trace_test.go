package trace_test

import (
	"strings"
	"testing"
	"time"

	"vnetp/internal/ethernet"
	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/trace"
	"vnetp/internal/vnetpsim"
)

func TestTracerBasics(t *testing.T) {
	eng := sim.New()
	tr := trace.New(func() time.Duration { return eng.Now().Duration() })
	tr.Watch(7)
	eng.Go("p", func(p *sim.Proc) {
		tr.Record(7, "a")
		p.Sleep(10 * time.Microsecond)
		tr.Record(7, "b")
		tr.Record(99, "unwatched") // ignored
		tr.Record(0, "zero tag")   // ignored
	})
	eng.Run()
	eng.Close()
	path := tr.Path(7)
	if path == nil || len(path.Hops) != 2 {
		t.Fatalf("path = %+v", path)
	}
	if path.Elapsed() != 10*time.Microsecond {
		t.Fatalf("elapsed = %v", path.Elapsed())
	}
	if tr.Path(99) != nil {
		t.Fatal("unwatched tag recorded")
	}
	if !strings.Contains(path.String(), "+10µs") {
		t.Fatalf("String missing delta:\n%s", path.String())
	}
	if len(tr.Paths()) != 1 {
		t.Fatalf("paths = %v", tr.Paths())
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *trace.Tracer
	tr.Watch(1)
	tr.Record(1, "x")
	if tr.Path(1) != nil || tr.Paths() != nil {
		t.Fatal("nil tracer returned data")
	}
}

// TestDatapathTrace tags a frame through a full VNET/P crossing and
// checks the recorded stages arrive in causal order with sane deltas —
// the measured Fig. 7.
func TestDatapathTrace(t *testing.T) {
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, vnetpsim.DefaultParams())
	tr := trace.New(func() time.Duration { return eng.Now().Duration() })
	for _, n := range c.Nodes {
		n.Host.Tracer = tr
	}
	tr.Watch(42)

	var drained bool
	c.Nodes[1].Iface.SetRecv(func() {
		for {
			if _, ok := c.Nodes[1].Iface.GuestRecv(); !ok {
				break
			}
			drained = true
		}
		c.Nodes[1].Iface.RxDone()
	})
	f := &ethernet.Frame{
		Dst: c.Nodes[1].MAC(), Src: c.Nodes[0].MAC(),
		Type: ethernet.TypeTest, Pad: 1000, Tag: 42,
	}
	c.Nodes[0].Iface.TrySend(f)
	eng.Run()
	eng.Close()

	if !drained {
		t.Fatal("frame never drained")
	}
	path := tr.Path(42)
	if path == nil {
		t.Fatal("no path recorded")
	}
	t.Logf("\n%s", path)
	want := []string{
		"guest: TX ring push",
		"core: dispatched + routed", // sender's core
		"bridge: encapsulated",
		"bridge: decapsulated",
		"core: dispatched + routed", // receiver's core
		"core: RX ring push",
		"guest: drained from RX ring",
	}
	if len(path.Hops) != len(want) {
		t.Fatalf("hops = %d, want %d:\n%s", len(path.Hops), len(want), path)
	}
	for i, h := range path.Hops {
		if h.Stage != want[i] {
			t.Errorf("hop %d = %q, want %q", i, h.Stage, want[i])
		}
		if i > 0 && h.At < path.Hops[i-1].At {
			t.Errorf("hop %d out of causal order", i)
		}
	}
	// The full crossing must take roughly the one-way datapath time.
	if e := path.Elapsed(); e < 20*time.Microsecond || e > 120*time.Microsecond {
		t.Errorf("end-to-end trace elapsed %v, want ~30-80µs", e)
	}
}
