package vnetp_test

// One benchmark per table and figure of the paper's evaluation (the
// per-experiment index in DESIGN.md), each regenerating its item through
// the deterministic simulation, plus true micro-benchmarks of the
// datapath primitives. Run:
//
//	go test -bench=. -benchmem
//
// The per-figure benches measure how long regenerating the item takes
// (the simulated results themselves are printed by cmd/vnetbench and
// recorded in EXPERIMENTS.md).

import (
	"io"
	"testing"

	"vnetp"
	"vnetp/internal/bridge"
	"vnetp/internal/ethernet"
	"vnetp/internal/experiments"
	"vnetp/internal/vnetpsim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Per-figure/table regeneration benches (E1-E14) ---

func BenchmarkFig5_DispatcherScaling(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig8_Throughput(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9_Latency(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10_MPIPingPongLatency(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11_MPIBandwidth(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12_HPCCLatBw(b *testing.B)          { benchExperiment(b, "fig12") }
func BenchmarkFig13_HPCCApps(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkFig14_NAS(b *testing.B)                { benchExperiment(b, "fig14") }
func BenchmarkFig15_IPoIB_LatBw(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16_IPoIB_Apps(b *testing.B)         { benchExperiment(b, "fig16") }
func BenchmarkGemini_Throughput(b *testing.B)        { benchExperiment(b, "gemini") }
func BenchmarkKitten_IB(b *testing.B)                { benchExperiment(b, "kitten") }
func BenchmarkVNETU_Baseline(b *testing.B)           { benchExperiment(b, "vnetu") }

// --- Ablation benches (design choices from Sect. 4.3/4.8) ---

func BenchmarkAblation_Modes(b *testing.B)        { benchExperiment(b, "ablation-modes") }
func BenchmarkAblation_RoutingCache(b *testing.B) { benchExperiment(b, "ablation-cache") }
func BenchmarkAblation_Yield(b *testing.B)        { benchExperiment(b, "ablation-yield") }
func BenchmarkAblation_MTU(b *testing.B)          { benchExperiment(b, "ablation-mtu") }

// --- Datapath primitive micro-benchmarks ---

// BenchmarkRouting_CacheHit measures the common-case constant-time lookup
// the paper's routing cache provides.
func BenchmarkRouting_CacheHit(b *testing.B) {
	t := vnetp.NewRoutingTable()
	dst := vnetp.LocalMAC(2)
	t.AddRoute(vnetp.Route{DstMAC: dst, DstQual: vnetp.QualExact, SrcQual: vnetp.QualAny,
		Dest: vnetp.Destination{Type: vnetp.DestLink, ID: "l"}})
	src := vnetp.LocalMAC(1)
	t.Lookup(src, dst) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := t.Lookup(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouting_CacheMissScan measures the linear-table fallback at a
// large table size.
func BenchmarkRouting_CacheMissScan(b *testing.B) {
	t := vnetp.NewRoutingTable()
	t.CacheEnabled = false
	for i := 0; i < 1024; i++ {
		t.AddRoute(vnetp.Route{DstMAC: vnetp.LocalMAC(uint32(i + 10)), DstQual: vnetp.QualExact,
			SrcQual: vnetp.QualAny, Dest: vnetp.Destination{Type: vnetp.DestLink, ID: "l"}})
	}
	src, dst := vnetp.LocalMAC(1), vnetp.LocalMAC(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := t.Lookup(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameMarshal measures Ethernet frame serialization.
func BenchmarkFrameMarshal(b *testing.B) {
	f := &ethernet.Frame{
		Dst: vnetp.LocalMAC(2), Src: vnetp.LocalMAC(1), Type: ethernet.TypeIPv4,
		Payload: make([]byte, 1500),
	}
	buf := make([]byte, 0, 2048)
	b.SetBytes(int64(f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := f.Marshal(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// BenchmarkEncapsulate measures the bridge's UDP encapsulation of a
// standard frame (single datagram).
func BenchmarkEncapsulate(b *testing.B) {
	f := &ethernet.Frame{
		Dst: vnetp.LocalMAC(2), Src: vnetp.LocalMAC(1), Type: ethernet.TypeIPv4,
		Payload: make([]byte, 1400),
	}
	b.SetBytes(int64(f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bridge.Encapsulate(f, uint32(i), 1472); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncapsulateJumboFragmented measures encapsulation with
// fragmentation (9000-byte guest frame over a 1500-byte path).
func BenchmarkEncapsulateJumboFragmented(b *testing.B) {
	f := &ethernet.Frame{
		Dst: vnetp.LocalMAC(2), Src: vnetp.LocalMAC(1), Type: ethernet.TypeIPv4,
		Payload: make([]byte, 9000),
	}
	b.SetBytes(int64(f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bridge.Encapsulate(f, uint32(i), 1472); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReassemble measures the receive-side reassembly path.
func BenchmarkReassemble(b *testing.B) {
	f := &ethernet.Frame{
		Dst: vnetp.LocalMAC(2), Src: vnetp.LocalMAC(1), Type: ethernet.TypeIPv4,
		Payload: make([]byte, 9000),
	}
	datagrams, err := bridge.Encapsulate(f, 1, 1472)
	if err != nil {
		b.Fatal(err)
	}
	r := bridge.NewReassembler()
	b.SetBytes(int64(f.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got *ethernet.Frame
		for _, d := range datagrams {
			g, err := r.Add("peer", d)
			if err != nil {
				b.Fatal(err)
			}
			if g != nil {
				got = g
			}
		}
		if got == nil {
			b.Fatal("no frame")
		}
	}
}

// BenchmarkAdaptiveModeLogic measures the per-packet cost of the rate
// bookkeeping behind adaptive operation.
func BenchmarkAdaptiveModeLogic(b *testing.B) {
	eng := vnetp.NewSimEngine()
	tb := vnetp.NewVNETPTestbed(eng, vnetp.ClusterConfig{
		Dev: vnetp.Eth10G, N: 2, Params: vnetp.DefaultParams(),
	})
	node := tb.VNETP.Nodes[0]
	f := &ethernet.Frame{Dst: tb.VNETP.Nodes[1].MAC(), Src: node.MAC(), Type: ethernet.TypeTest, Pad: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Iface.TrySend(f)
		eng.RunFor(0)
		node.NIC.TX.PopBatch(0) // keep the ring from filling
	}
	b.StopTimer()
	eng.Close()
	_ = vnetpsim.GuestDriven
}
