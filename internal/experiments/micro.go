package experiments

import (
	"fmt"
	"io"
	"time"

	"vnetp/internal/lab"
	"vnetp/internal/microbench"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
	"vnetp/internal/vnetu"
)

// Simulated measurement windows (the paper uses 60 s runs; goodput is a
// rate, so shorter steady-state windows give the same numbers).
const (
	udpWindow = 20 * time.Millisecond
	tcpBytes  = 8 << 20
)

func init() {
	register("fig5", "receive throughput vs dispatcher cores (1500B, 10G)", runFig5)
	register("fig8", "TCP throughput / UDP goodput: Native, VNET/U, VNET/P x 1G/10G", runFig8)
	register("fig9", "end-to-end round-trip latency vs ICMP payload", runFig9)
	register("vnetu", "VNET/U baseline evolution (Sect. 5.2 text)", runVNETU)
	register("table1", "VNET/P tuning parameters (Table 1)", runTable1)
}

// fig5Row is one point of the dispatcher-scaling curve.
type fig5Row struct {
	Cores   int
	Goodput float64 // bits/s
}

// measureFig5 runs the receive-throughput scaling sweep: the VMM-side
// VNET/P components spread over 1..4 cores, 1500-byte MTU.
func measureFig5() []fig5Row {
	var rows []fig5Row
	for cores := 1; cores <= 4; cores++ {
		p := vnetpsim.DefaultParams()
		p.Mode = vnetpsim.VMMDriven
		p.RoundRobinDispatch = true
		shared := false
		switch cores {
		case 1:
			p.NDispatchers = 1
			shared = true // bridge and dispatcher share the single core
		default:
			p.NDispatchers = cores - 1
		}
		tb := lab.NewVNETPTestbed(sim.New(), lab.Config{
			Dev: phys.Eth10GStd, N: 2, Params: p, BridgeSharesDispatcher: shared,
		})
		rows = append(rows, fig5Row{Cores: cores, Goodput: microbench.TTCPUDP(tb, 0, 1, 64000, udpWindow)})
	}
	return rows
}

func runFig5(w io.Writer) error {
	fmt.Fprintf(w, "%-8s %14s\n", "cores", "UDP goodput")
	for _, r := range measureFig5() {
		fmt.Fprintf(w, "%-8d %11.0f MB/s\n", r.Cores, mbps(r.Goodput))
	}
	return nil
}

// fig8Row is one bar pair of the throughput chart.
type fig8Row struct {
	Label    string
	TCP, UDP float64 // bits/s
}

// measureFig8 runs the throughput bar chart configurations.
func measureFig8() []fig8Row {
	type cfg struct {
		label string
		tb    func() *lab.Testbed
		write int
	}
	std := 64 << 10
	jumboWrite := microbench.StreamWriteFor(lab.GuestMTUFor(phys.Eth10G))
	cfgs := []cfg{
		{"Native-1G", func() *lab.Testbed { return nativePair(phys.Eth1G) }, std},
		{"VNET/U-1G (Palacios tap)", func() *lab.Testbed {
			return lab.NewVNETUTestbed(sim.New(), phys.Eth1G, 2, vnetu.PalaciosTap)
		}, std},
		{"VNET/P-1G", func() *lab.Testbed { return vnetpPair(phys.Eth1G) }, std},
		{"Native-10G (MTU 1500)", func() *lab.Testbed { return nativePair(phys.Eth10GStd) }, std},
		{"VNET/P-10G (MTU 1500)", func() *lab.Testbed { return vnetpPair(phys.Eth10GStd) }, std},
		{"Native-10G (MTU 9000)", func() *lab.Testbed { return nativePair(phys.Eth10G) }, jumboWrite},
		{"VNET/P-10G (MTU 9000)", func() *lab.Testbed { return vnetpPair(phys.Eth10G) }, jumboWrite},
	}
	var rows []fig8Row
	for _, c := range cfgs {
		tcp := microbench.TTCPStream(c.tb(), 0, 1, c.write, tcpBytes)
		udpWrite := c.write
		if udpWrite > 60000 {
			udpWrite = 8900
		}
		udp := microbench.TTCPUDP(c.tb(), 0, 1, udpWrite, udpWindow)
		rows = append(rows, fig8Row{Label: c.label, TCP: tcp, UDP: udp})
	}
	return rows
}

func runFig8(w io.Writer) error {
	fmt.Fprintf(w, "%-26s %12s %12s\n", "configuration", "TCP", "UDP")
	for _, r := range measureFig8() {
		fmt.Fprintf(w, "%-26s %7.0f MB/s %7.0f MB/s\n", r.Label, mbps(r.TCP), mbps(r.UDP))
	}
	return nil
}

// fig9Row is one payload size's RTT across the four networks.
type fig9Row struct {
	Size                                   int
	Native1G, VNETP1G, Native10G, VNETP10G time.Duration
}

// measureFig9 runs the ping RTT vs ICMP payload sweep on both networks.
func measureFig9() []fig9Row {
	var rows []fig9Row
	for _, size := range []int{56, 256, 1024, 4096, 8192} {
		rows = append(rows, fig9Row{
			Size:      size,
			Native1G:  microbench.PingRTT(nativePair(phys.Eth1G), 0, 1, size, 10),
			VNETP1G:   microbench.PingRTT(vnetpPair(phys.Eth1G), 0, 1, size, 10),
			Native10G: microbench.PingRTT(nativePair(phys.Eth10G), 0, 1, size, 10),
			VNETP10G:  microbench.PingRTT(vnetpPair(phys.Eth10G), 0, 1, size, 10),
		})
	}
	return rows
}

func runFig9(w io.Writer) error {
	fmt.Fprintf(w, "%-8s %14s %14s %14s %14s\n", "size", "Native-1G", "VNET/P-1G", "Native-10G", "VNET/P-10G")
	for _, r := range measureFig9() {
		fmt.Fprintf(w, "%-8d %11.1fus %11.1fus %11.1fus %11.1fus\n",
			r.Size, us(r.Native1G), us(r.VNETP1G), us(r.Native10G), us(r.VNETP10G))
	}
	return nil
}

// runVNETU: the Sect. 5.2 VNET/U measurements (71 MB/s Palacios tap,
// 35 MB/s VMware tap, +0.88 ms latency).
func runVNETU(w io.Writer) error {
	pal := lab.NewVNETUTestbed(sim.New(), phys.Eth1G, 2, vnetu.PalaciosTap)
	palTCP := microbench.TTCPStream(pal, 0, 1, 64<<10, 2<<20)
	vmw := lab.NewVNETUTestbed(sim.New(), phys.Eth1G, 2, vnetu.VMwareTap)
	vmwTCP := microbench.TTCPStream(vmw, 0, 1, 64<<10, 2<<20)
	nat := microbench.PingRTT(nativePair(phys.Eth1G), 0, 1, 56, 10)
	palL := lab.NewVNETUTestbed(sim.New(), phys.Eth1G, 2, vnetu.PalaciosTap)
	vuRTT := microbench.PingRTT(palL, 0, 1, 56, 10)
	// The historical data point: VMware GSX 2.5 on dual 2.0 GHz Xeons.
	gsx := lab.NewVNETUTestbedModel(sim.New(), phys.Eth1G, 2, vnetu.VMwareTap, phys.ModelGSXEra())
	gsxTCP := microbench.TTCPStream(gsx, 0, 1, 64<<10, 1<<20)
	gsxL := lab.NewVNETUTestbedModel(sim.New(), phys.Eth1G, 2, vnetu.VMwareTap, phys.ModelGSXEra())
	gsxRTT := microbench.PingRTT(gsxL, 0, 1, 56, 10)

	fmt.Fprintf(w, "VNET/U on GSX-era hardware: %.1f MB/s, +%.2f ms (paper 2005: 21.5 MB/s, +1 ms)\n",
		mbps(gsxTCP), (gsxRTT-nat).Seconds()*1e3)
	fmt.Fprintf(w, "VNET/U on Palacios (custom tap): %.1f MB/s   (paper: 71 MB/s)\n", mbps(palTCP))
	fmt.Fprintf(w, "VNET/U on VMware (host-only tap): %.1f MB/s  (paper: 35 MB/s)\n", mbps(vmwTCP))
	fmt.Fprintf(w, "VNET/U latency overhead: +%.2f ms            (paper: +0.88 ms)\n",
		(vuRTT-nat).Seconds()*1e3)
	return nil
}

// runTable1 prints the default tuning parameters, which tests assert
// against the paper's Table 1.
func runTable1(w io.Writer) error {
	p := vnetpsim.DefaultParams()
	fmt.Fprintf(w, "Mode:            %v\n", p.Mode)
	fmt.Fprintf(w, "alpha_l:         %.0f packets/s\n", p.AlphaL)
	fmt.Fprintf(w, "alpha_u:         %.0f packets/s\n", p.AlphaU)
	fmt.Fprintf(w, "omega:           %v\n", p.Omega)
	fmt.Fprintf(w, "n_dispatchers:   %d\n", p.NDispatchers)
	fmt.Fprintf(w, "yield strategy:  %v\n", p.Yield)
	return nil
}
