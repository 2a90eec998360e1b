package hpcc_test

import (
	"testing"
	"time"

	"vnetp/internal/hpcc"
	"vnetp/internal/lab"
	"vnetp/internal/netstack"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

// stacks builds per-rank stacks: hosts VMs (or native nodes) with
// ranksPerVM ranks each.
func vnetpStacks(eng *sim.Engine, dev phys.Device, hosts, ranksPerVM int) []*netstack.Stack {
	tb := lab.NewVNETPTestbed(eng, lab.Config{Dev: dev, N: hosts, Params: vnetpsim.DefaultParams()})
	var out []*netstack.Stack
	for i := 0; i < hosts; i++ {
		for k := 0; k < ranksPerVM; k++ {
			out = append(out, tb.Stacks[i])
		}
	}
	return out
}

func nativeStacks(eng *sim.Engine, dev phys.Device, hosts, ranksPerVM int) []*netstack.Stack {
	tb := lab.NewNativeTestbed(eng, dev, hosts)
	var out []*netstack.Stack
	for i := 0; i < hosts; i++ {
		for k := 0; k < ranksPerVM; k++ {
			out = append(out, tb.Stacks[i])
		}
	}
	return out
}

func TestFig10PingPongLatencyShape(t *testing.T) {
	sizes := []int{1, 64, 1024}
	engN := sim.New()
	nat := hpcc.PingPong(engN, nativeStacks(engN, phys.Eth10G, 2, 1), sizes, 5)
	engV := sim.New()
	vnp := hpcc.PingPong(engV, vnetpStacks(engV, phys.Eth10G, 2, 1), sizes, 5)

	t.Logf("MPI one-way latency 1B: native %v, VNET/P %v", nat[0].OneWay, vnp[0].OneWay)
	// Paper: VNET/P small-message MPI latency ~55µs, ~2.5x native.
	if vnp[0].OneWay < 35*time.Microsecond || vnp[0].OneWay > 90*time.Microsecond {
		t.Errorf("VNET/P 1B one-way %v, want ~40-80µs (paper 55µs)", vnp[0].OneWay)
	}
	ratio := float64(vnp[0].OneWay) / float64(nat[0].OneWay)
	if ratio < 1.8 || ratio > 4 {
		t.Errorf("latency ratio %.2f, want ~2-3.5 (paper 2.5)", ratio)
	}
	// Latency gap narrows in relative terms as size grows.
	rBig := float64(vnp[2].OneWay) / float64(nat[2].OneWay)
	if rBig > ratio {
		t.Errorf("relative latency overhead grew with size: %.2f -> %.2f", ratio, rBig)
	}
}

func TestFig11BandwidthShape(t *testing.T) {
	sizes := []int{256 << 10, 1 << 20}
	engN := sim.New()
	nat := hpcc.PingPong(engN, nativeStacks(engN, phys.Eth10G, 2, 1), sizes, 2)
	engV := sim.New()
	vnp := hpcc.PingPong(engV, vnetpStacks(engV, phys.Eth10G, 2, 1), sizes, 2)

	for i := range sizes {
		r := vnp[i].BwBps / nat[i].BwBps
		t.Logf("size %d: native %.0f MB/s, VNET/P %.0f MB/s (%.0f%%)",
			sizes[i], nat[i].BwBps/1e6, vnp[i].BwBps/1e6, r*100)
		// Paper: beyond 256K one-way bandwidth ~74% of native.
		if r < 0.5 || r > 0.95 {
			t.Errorf("one-way bw ratio at %d = %.2f, want 0.5-0.95 (paper 0.74)", sizes[i], r)
		}
	}
	// Paper: VNET/P delivers ~510 MB/s MPI bandwidth on 10G.
	if vnp[1].BwBps < 350e6 || vnp[1].BwBps > 900e6 {
		t.Errorf("VNET/P MPI bandwidth %.0f MB/s, want ~400-800 (paper 510)", vnp[1].BwBps/1e6)
	}

	// SendRecv: bidirectional ratio should be at or below the one-way
	// ratio (paper: 62% vs 74%).
	engN2 := sim.New()
	natB := hpcc.SendRecvBench(engN2, nativeStacks(engN2, phys.Eth10G, 2, 1), sizes[1:], 2)
	engV2 := sim.New()
	vnpB := hpcc.SendRecvBench(engV2, vnetpStacks(engV2, phys.Eth10G, 2, 1), sizes[1:], 2)
	rBi := vnpB[0].BiBps / natB[0].BiBps
	t.Logf("SendRecv 1MB: native %.0f MB/s, VNET/P %.0f MB/s (%.0f%%)",
		natB[0].BiBps/1e6, vnpB[0].BiBps/1e6, rBi*100)
	if rBi < 0.4 || rBi > 0.9 {
		t.Errorf("bidirectional ratio %.2f, want 0.4-0.9 (paper 0.62)", rBi)
	}
}

func TestFig12LatBwShape(t *testing.T) {
	// 2 hosts x 4 ranks = 8 processes (the smallest paper point).
	engN := sim.New()
	nat := hpcc.LatBw(engN, nativeStacks(engN, phys.Eth10G, 2, 4), 42)
	engV := sim.New()
	vnp := hpcc.LatBw(engV, vnetpStacks(engV, phys.Eth10G, 2, 4), 42)

	t.Logf("pingpong: lat %v vs %v; bw %.0f vs %.0f MB/s",
		nat.PingPongLat, vnp.PingPongLat, nat.PingPongBwBps/1e6, vnp.PingPongBwBps/1e6)
	t.Logf("natural ring: lat %v vs %v; bw %.0f vs %.0f MB/s",
		nat.NaturalRingLat, vnp.NaturalRingLat, nat.NaturalRingBw/1e6, vnp.NaturalRingBw/1e6)
	t.Logf("random ring: lat %v vs %v; bw %.0f vs %.0f MB/s",
		nat.RandomRingLat, vnp.RandomRingLat, nat.RandomRingBw/1e6, vnp.RandomRingBw/1e6)

	// Paper Fig 12 (10G): bandwidths within 60-75% of native, latencies
	// 2-3x higher.
	latR := float64(vnp.PingPongLat) / float64(nat.PingPongLat)
	if latR < 1.5 || latR > 4.5 {
		t.Errorf("pingpong latency ratio %.2f, want 2-3x", latR)
	}
	bwR := vnp.PingPongBwBps / nat.PingPongBwBps
	if bwR < 0.45 || bwR > 0.95 {
		t.Errorf("pingpong bw ratio %.2f, want ~0.6-0.75", bwR)
	}
	for _, pair := range [][2]float64{
		{vnp.NaturalRingBw, nat.NaturalRingBw},
		{vnp.RandomRingBw, nat.RandomRingBw},
	} {
		if r := pair[0] / pair[1]; r < 0.4 || r > 1.0 {
			t.Errorf("ring bw ratio %.2f, want 0.5-0.9", r)
		}
	}
	if float64(vnp.NaturalRingLat) < float64(nat.NaturalRingLat) {
		t.Error("VNET/P ring latency below native")
	}
}

func TestFig13RandomAccessShape(t *testing.T) {
	engN := sim.New()
	nat := hpcc.RandomAccess(engN, nativeStacks(engN, phys.Eth10G, 2, 4))
	engV := sim.New()
	vnp := hpcc.RandomAccess(engV, vnetpStacks(engV, phys.Eth10G, 2, 4))
	t.Logf("RandomAccess 8 procs: native %.4f GUPs, VNET/P %.4f GUPs (%.0f%%)",
		nat.GUPs, vnp.GUPs, 100*vnp.GUPs/nat.GUPs)
	if nat.GUPs <= 0 || vnp.GUPs <= 0 {
		t.Fatal("GUPs not measured")
	}
	r := vnp.GUPs / nat.GUPs
	// Paper: VNET/P achieves 65-70% of native GUPs.
	if r < 0.45 || r > 0.95 {
		t.Errorf("GUPs ratio %.2f, want ~0.55-0.85 (paper 0.65-0.70)", r)
	}
}

func TestFig13FFTShape(t *testing.T) {
	engN := sim.New()
	nat := hpcc.FFT(engN, nativeStacks(engN, phys.Eth10G, 2, 4))
	engV := sim.New()
	vnp := hpcc.FFT(engV, vnetpStacks(engV, phys.Eth10G, 2, 4))
	t.Logf("MPIFFT 8 procs: native %.2f GFlop/s, VNET/P %.2f GFlop/s (%.0f%%)",
		nat.GFlops, vnp.GFlops, 100*vnp.GFlops/nat.GFlops)
	if nat.GFlops <= 0 || vnp.GFlops <= 0 {
		t.Fatal("GFlops not measured")
	}
	r := vnp.GFlops / nat.GFlops
	// Paper: VNET/P within 60-70% of native.
	if r < 0.45 || r > 0.95 {
		t.Errorf("FFT ratio %.2f, want ~0.55-0.85 (paper 0.60-0.70)", r)
	}
}

func TestCollectivesOrdering(t *testing.T) {
	engN := sim.New()
	nat := hpcc.Collectives(engN, nativeStacks(engN, phys.Eth10G, 2, 4), 4096, 4)
	engV := sim.New()
	vnp := hpcc.Collectives(engV, vnetpStacks(engV, phys.Eth10G, 2, 4), 4096, 4)
	if len(nat) != 5 || len(vnp) != 5 {
		t.Fatalf("collective counts: %d/%d", len(nat), len(vnp))
	}
	for i := range nat {
		t.Logf("%-10s native %v, vnetp %v", nat[i].Op, nat[i].PerOp, vnp[i].PerOp)
		if nat[i].PerOp <= 0 || vnp[i].PerOp <= 0 {
			t.Errorf("%s: non-positive timing", nat[i].Op)
		}
		if vnp[i].PerOp <= nat[i].PerOp {
			t.Errorf("%s: VNET/P (%v) not slower than native (%v)", nat[i].Op, vnp[i].PerOp, nat[i].PerOp)
		}
	}
	// Alltoall moves the most data: it must dominate bcast.
	if vnp[3].PerOp <= vnp[1].PerOp {
		t.Errorf("alltoall (%v) should exceed bcast (%v)", vnp[3].PerOp, vnp[1].PerOp)
	}
}

func TestLatBwScalesWithProcs(t *testing.T) {
	// Sanity: the suite runs at the paper's larger scales too.
	eng := sim.New()
	res := hpcc.LatBw(eng, vnetpStacks(eng, phys.Eth10G, 3, 4), 7)
	if res.Procs != 12 || res.NaturalRingBw <= 0 || res.RandomRingBw <= 0 {
		t.Fatalf("12-proc latbw: %+v", res)
	}
}
