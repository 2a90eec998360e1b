package experiments

import (
	"fmt"
	"io"
	"time"

	"vnetp/internal/ethernet"
	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/trace"
	"vnetp/internal/vnetpsim"
)

func init() {
	register("trace", "measured per-stage journey of one frame (VNET/P vs VNET/P+)", runTrace)
}

// runTrace tags one frame through a full 10G VNET/P crossing and prints
// the recorded stage timeline, for both the plain and the VNET/P+
// datapaths — the measured companion to fig7's analytic budget.
func runTrace(w io.Writer) error {
	for _, cfg := range []struct {
		label  string
		params vnetpsim.Params
	}{
		{"VNET/P", vnetpsim.DefaultParams()},
		{"VNET/P+", vnetpsim.PlusParams()},
	} {
		eng := sim.New()
		c := lab.NewPair(eng, phys.Eth10G, cfg.params)
		tr := trace.New(func() time.Duration { return eng.Now().Duration() })
		for _, n := range c.Nodes {
			n.Host.Tracer = tr
		}
		tr.Watch(1)
		c.Nodes[1].Iface.SetRecv(func() {
			for {
				if _, ok := c.Nodes[1].Iface.GuestRecv(); !ok {
					break
				}
			}
			c.Nodes[1].Iface.RxDone()
		})
		c.Nodes[0].Iface.TrySend(&ethernet.Frame{
			Dst: c.Nodes[1].MAC(), Src: c.Nodes[0].MAC(),
			Type: ethernet.TypeTest, Pad: 1000, Tag: 1,
		})
		eng.Run()
		eng.Close()
		path := tr.Path(1)
		if path == nil || len(path.Hops) == 0 {
			return fmt.Errorf("trace: no hops recorded for %s", cfg.label)
		}
		fmt.Fprintf(w, "%s (1000-byte frame, 10G):\n%s", cfg.label, path)
		fmt.Fprintf(w, "  end-to-end: %v\n\n", path.Elapsed())
	}
	return nil
}
