package experiments

import (
	"fmt"
	"io"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/lab"
	"vnetp/internal/microbench"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func init() {
	register("ablation-modes", "guest-driven vs VMM-driven vs adaptive dispatch", runAblationModes)
	register("ablation-cache", "routing cache on vs off", runAblationCache)
	register("ablation-yield", "yield strategies: latency vs CPU", runAblationYield)
	register("ablation-mtu", "guest MTU sweep on 10G", runAblationMTU)
}

// runAblationModes quantifies Sect. 4.3's claim: guest-driven mode wins
// on latency, VMM-driven on throughput, adaptive gets both.
func runAblationModes(w io.Writer) error {
	fmt.Fprintf(w, "%-14s %14s %16s\n", "mode", "ping RTT", "TCP throughput")
	for _, mode := range []vnetpsim.Mode{vnetpsim.GuestDriven, vnetpsim.VMMDriven, vnetpsim.Adaptive} {
		p := vnetpsim.DefaultParams()
		p.Mode = mode
		mk := func() *lab.Testbed {
			return lab.NewVNETPTestbed(sim.New(), lab.Config{Dev: phys.Eth10GStd, N: 2, Params: p})
		}
		rtt := microbench.PingRTT(mk(), 0, 1, 56, 10)
		tcp := microbench.TTCPStream(mk(), 0, 1, 64<<10, tcpBytes)
		fmt.Fprintf(w, "%-14s %11.1fus %11.0f MB/s\n", mode, us(rtt), mbps(tcp))
	}
	return nil
}

// runAblationCache shows the routing cache's contribution as the routing
// table grows (Sect. 4.3: linear scan vs constant-time cache hit).
func runAblationCache(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %14s %14s\n", "routes", "cache on", "cache off")
	for _, extra := range []int{0, 64, 512, 4096} {
		rtts := make([]time.Duration, 2)
		for i, cacheOn := range []bool{true, false} {
			tb := vnetpPair(phys.Eth10G)
			for _, n := range tb.VNETP.Nodes {
				n.Core.Table.CacheEnabled = cacheOn
				// Pad the table with low-priority filler routes.
				for k := 0; k < extra; k++ {
					n.Core.Table.AddRoute(core.Route{
						DstMAC:  [6]byte{0xee, byte(k >> 16), byte(k >> 8), byte(k), 0, 1},
						DstQual: core.QualExact, SrcQual: core.QualAny,
						Dest: core.Destination{Type: core.DestLink, ID: "nowhere"},
					})
				}
			}
			rtts[i] = microbench.PingRTT(tb, 0, 1, 56, 10)
		}
		fmt.Fprintf(w, "%-10d %11.1fus %11.1fus\n", extra+3, us(rtts[0]), us(rtts[1]))
	}
	return nil
}

// runAblationYield compares the yield strategies (Sect. 4.8): immediate
// yield minimizes latency, timed yield minimizes dispatcher CPU burn.
func runAblationYield(w io.Writer) error {
	fmt.Fprintf(w, "%-12s %14s %18s\n", "strategy", "ping RTT", "thread CPU burn")
	for _, y := range []sim.YieldStrategy{sim.YieldImmediate, sim.YieldTimed, sim.YieldAdaptive} {
		p := vnetpsim.DefaultParams()
		p.Yield = y
		p.TSleep = 100 * time.Microsecond
		p.TNoWork = 200 * time.Microsecond
		eng := sim.New()
		tb := lab.NewVNETPTestbed(eng, lab.Config{Dev: phys.Eth10G, N: 2, Params: p})
		node := tb.VNETP.Nodes[0]
		var awake, elapsed time.Duration
		// Sample CPU burn just before the run ends (Close wipes state).
		eng.Schedule(2*time.Millisecond, func() {
			now := eng.Now()
			awake = node.Core.Dispatchers()[0].AwakeTime(now) + node.Bridge.Worker().AwakeTime(now)
			elapsed = 2 * now.Duration() // two threads
		})
		rtt := microbench.PingRTT(tb, 0, 1, 56, 10)
		fmt.Fprintf(w, "%-12s %11.1fus %16.1f%%\n", y, us(rtt), 100*float64(awake)/float64(elapsed))
	}
	return nil
}

// runAblationMTU sweeps the guest MTU (Sect. 4.4): throughput rises with
// MTU until fragmentation or the wire takes over.
func runAblationMTU(w io.Writer) error {
	fmt.Fprintf(w, "%-10s %16s %12s\n", "guest MTU", "UDP goodput", "fragments")
	for _, mtu := range []int{1500, 4000, 8946, 16000, 32000, 64000} {
		tb := lab.NewVNETPTestbed(sim.New(), lab.Config{
			Dev: phys.Eth10G, N: 2, Params: defaultParams(), GuestMTU: mtu,
		})
		node := tb.VNETP.Nodes[0]
		g := microbench.TTCPUDP(tb, 0, 1, mtu-100, udpWindow)
		frags := float64(node.Bridge.FragmentsSent) / float64(node.Bridge.EncapSent)
		fmt.Fprintf(w, "%-10d %11.0f MB/s %11.2f\n", mtu, mbps(g), frags)
	}
	return nil
}
