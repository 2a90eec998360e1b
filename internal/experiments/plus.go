package experiments

import (
	"fmt"
	"io"

	"vnetp/internal/lab"
	"vnetp/internal/microbench"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func init() {
	register("vnetp-plus", "VNET/P+ optimistic interrupts + cut-through forwarding (Cui et al. SC'12)", runPlus)
}

// runPlus compares plain VNET/P against VNET/P+ on 10G: the follow-on
// paper reports near-native throughput and latency overheads down from
// 2-3x to 1.2-1.3x.
func runPlus(w io.Writer) error {
	mk := func(p vnetpsim.Params, dev phys.Device) *lab.Testbed {
		return lab.NewVNETPTestbed(sim.New(), lab.Config{Dev: dev, N: 2, Params: p})
	}
	wj := microbench.StreamWriteFor(lab.GuestMTUFor(phys.Eth10G))

	natTCP := microbench.TTCPStream(nativePair(phys.Eth10G), 0, 1, wj, tcpBytes)
	natUDP := microbench.TTCPUDP(nativePair(phys.Eth10G), 0, 1, 8900, udpWindow)
	natRTT := microbench.PingRTT(nativePair(phys.Eth10G), 0, 1, 56, 10)

	fmt.Fprintf(w, "%-12s %12s %12s %12s %10s\n", "config", "TCP", "UDP", "ping RTT", "RTT ratio")
	fmt.Fprintf(w, "%-12s %7.0f MB/s %7.0f MB/s %9.1fus %9.2fx\n",
		"Native", mbps(natTCP), mbps(natUDP), us(natRTT), 1.0)
	for _, row := range []struct {
		label  string
		params vnetpsim.Params
	}{
		{"VNET/P", vnetpsim.DefaultParams()},
		{"VNET/P+", vnetpsim.PlusParams()},
	} {
		tcp := microbench.TTCPStream(mk(row.params, phys.Eth10G), 0, 1, wj, tcpBytes)
		udp := microbench.TTCPUDP(mk(row.params, phys.Eth10G), 0, 1, 8900, udpWindow)
		rtt := microbench.PingRTT(mk(row.params, phys.Eth10G), 0, 1, 56, 10)
		fmt.Fprintf(w, "%-12s %7.0f MB/s %7.0f MB/s %9.1fus %9.2fx\n",
			row.label, mbps(tcp), mbps(udp), us(rtt), float64(rtt)/float64(natRTT))
	}
	return nil
}
