package experiments

import (
	"fmt"
	"io"

	"vnetp/internal/hpcc"
	"vnetp/internal/kitten"
	"vnetp/internal/lab"
	"vnetp/internal/microbench"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func init() {
	register("fig15", "HPCC latency-bandwidth over IPoIB (Sect. 6.1)", runFig15)
	register("fig16", "HPCC apps over IPoIB (Sect. 6.1)", runFig16)
	register("gemini", "ttcp over Cray Gemini IPoG (Sect. 6.2)", runGemini)
	register("kitten", "VNET/P for Kitten on InfiniBand (Sect. 6.3)", runKitten)
}

func defaultParams() vnetpsim.Params { return vnetpsim.DefaultParams() }

func runFig15(w io.Writer) error {
	// Out-of-the-box single-stream numbers the paper quotes first.
	ping := microbench.PingRTT(vnetpPair(phys.IPoIB), 0, 1, 56, 10)
	tcp := microbench.TTCPStream(vnetpPair(phys.IPoIB), 0, 1, 64<<10, tcpBytes)
	fmt.Fprintf(w, "VNET/P on IPoIB: ping %.0fus, ttcp %.2f Gbps  (paper: 155us, 3.6 Gbps)\n",
		us(ping), phys.BytesToGbps(tcp))

	fmt.Fprintf(w, "%-6s | %22s | %26s | %26s\n",
		"procs", "pingpong lat/bw", "natural ring lat/bw", "random ring lat/bw")
	for _, hosts := range []int{2, 4, 6} {
		engN := sim.New()
		nat := hpcc.LatBw(engN, mpiStacks(engN, phys.IPoIB, hosts, 4, false), 42)
		engV := sim.New()
		vnp := hpcc.LatBw(engV, mpiStacks(engV, phys.IPoIB, hosts, 4, true), 42)
		fmt.Fprintf(w, "%-6d | N %6.1fus %6.0fMB/s | N %6.1fus %8.0fMB/s | N %6.1fus %8.0fMB/s\n",
			hosts*4, us(nat.PingPongLat), mbps(nat.PingPongBwBps),
			us(nat.NaturalRingLat), mbps(nat.NaturalRingBw),
			us(nat.RandomRingLat), mbps(nat.RandomRingBw))
		fmt.Fprintf(w, "%-6s | V %6.1fus %6.0fMB/s | V %6.1fus %8.0fMB/s | V %6.1fus %8.0fMB/s\n",
			"", us(vnp.PingPongLat), mbps(vnp.PingPongBwBps),
			us(vnp.NaturalRingLat), mbps(vnp.NaturalRingBw),
			us(vnp.RandomRingLat), mbps(vnp.RandomRingBw))
	}
	return nil
}

func runFig16(w io.Writer) error {
	fmt.Fprintln(w, "(a) MPIRandomAccess over IPoIB")
	fmt.Fprintf(w, "%-6s %12s %12s %8s\n", "procs", "Native GUPs", "VNET/P GUPs", "ratio")
	for _, hosts := range []int{2, 4, 6} {
		engN := sim.New()
		nat := hpcc.RandomAccess(engN, mpiStacks(engN, phys.IPoIB, hosts, 4, false))
		engV := sim.New()
		vnp := hpcc.RandomAccess(engV, mpiStacks(engV, phys.IPoIB, hosts, 4, true))
		fmt.Fprintf(w, "%-6d %12.4f %12.4f %7.0f%%\n",
			hosts*4, nat.GUPs, vnp.GUPs, 100*vnp.GUPs/nat.GUPs)
	}
	fmt.Fprintln(w, "(b) MPIFFT over IPoIB")
	fmt.Fprintf(w, "%-6s %12s %12s %8s\n", "procs", "Native GF/s", "VNET/P GF/s", "ratio")
	for _, hosts := range []int{2, 4, 6} {
		engN := sim.New()
		nat := hpcc.FFT(engN, mpiStacks(engN, phys.IPoIB, hosts, 4, false))
		engV := sim.New()
		vnp := hpcc.FFT(engV, mpiStacks(engV, phys.IPoIB, hosts, 4, true))
		fmt.Fprintf(w, "%-6d %12.2f %12.2f %7.0f%%\n",
			hosts*4, nat.GFlops, vnp.GFlops, 100*vnp.GFlops/nat.GFlops)
	}
	return nil
}

func runGemini(w io.Writer) error {
	eng := sim.New()
	tb := lab.NewVNETPTestbed(eng, lab.Config{
		Dev: phys.Gemini, N: 2, Params: defaultParams(), Model: phys.ModelXK6(),
	})
	write := microbench.StreamWriteFor(lab.GuestMTUFor(phys.Gemini))
	tcp := microbench.TTCPStream(tb, 0, 1, write, tcpBytes)
	fmt.Fprintf(w, "VNET/P over IPoG: TCP %.2f GB/s (%.1f Gbps)   (paper: 1.6 GB/s, 13 Gbps)\n",
		tcp/1e9, phys.BytesToGbps(tcp))
	return nil
}

func runKitten(w io.Writer) error {
	engV := sim.New()
	vtb := kitten.NewTestbed(engV, 2)
	vtcp := microbench.TTCPStream(vtb, 0, 1, 8900, tcpBytes)
	engN := sim.New()
	ntb := kitten.NewNativeTestbed(engN, 2)
	ntcp := microbench.TTCPStream(ntb, 0, 1, 8900, tcpBytes)
	fmt.Fprintf(w, "Kitten VNET/P on IB: %.2f Gbps   (paper: 4.0 Gbps)\n", phys.BytesToGbps(vtcp))
	fmt.Fprintf(w, "Native IPoIB (RC):   %.2f Gbps   (paper: 6.5 Gbps)\n", phys.BytesToGbps(ntcp))
	return nil
}
