package core_test

import (
	"testing"

	"vnetp/internal/lab"
	"vnetp/internal/microbench"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func TestPlusParams(t *testing.T) {
	p := vnetpsim.PlusParams()
	if !p.OptimisticInterrupts || !p.CutThrough {
		t.Fatal("PlusParams must enable both VNET/P+ techniques")
	}
	// Everything else stays at Table 1.
	if p.Mode != vnetpsim.Adaptive || p.NDispatchers != 1 {
		t.Fatal("PlusParams changed unrelated defaults")
	}
}

// The VNET/P+ techniques must strictly improve on plain VNET/P in both
// dimensions (the follow-on paper's result: near-native 10G throughput,
// latency overhead down from 2-3x to 1.2-1.3x).
func TestPlusBeatsPlainVNETP(t *testing.T) {
	mk := func(p vnetpsim.Params) *lab.Testbed {
		return lab.NewVNETPTestbed(sim.New(), lab.Config{Dev: phys.Eth10G, N: 2, Params: p})
	}
	wj := microbench.StreamWriteFor(lab.GuestMTUFor(phys.Eth10G))

	plainTCP := microbench.TTCPStream(mk(vnetpsim.DefaultParams()), 0, 1, wj, 8<<20)
	plusTCP := microbench.TTCPStream(mk(vnetpsim.PlusParams()), 0, 1, wj, 8<<20)
	natTCP := microbench.TTCPStream(lab.NewNativeTestbed(sim.New(), phys.Eth10G, 2), 0, 1, wj, 8<<20)
	t.Logf("TCP: native %.0f, VNET/P %.0f, VNET/P+ %.0f MB/s", natTCP/1e6, plainTCP/1e6, plusTCP/1e6)
	if plusTCP <= plainTCP*1.1 {
		t.Errorf("VNET/P+ TCP %.0f MB/s not clearly above plain %.0f", plusTCP/1e6, plainTCP/1e6)
	}
	if r := plusTCP / natTCP; r < 0.8 {
		t.Errorf("VNET/P+ at %.0f%% of native, want near-native (>80%%)", r*100)
	}

	plainRTT := microbench.PingRTT(mk(vnetpsim.DefaultParams()), 0, 1, 56, 10)
	plusRTT := microbench.PingRTT(mk(vnetpsim.PlusParams()), 0, 1, 56, 10)
	natRTT := microbench.PingRTT(lab.NewNativeTestbed(sim.New(), phys.Eth10G, 2), 0, 1, 56, 10)
	t.Logf("RTT: native %v, VNET/P %v, VNET/P+ %v", natRTT, plainRTT, plusRTT)
	if plusRTT >= plainRTT {
		t.Error("VNET/P+ did not reduce latency")
	}
	r := float64(plusRTT) / float64(natRTT)
	if r < 1.1 || r > 2.3 {
		t.Errorf("VNET/P+ latency ratio %.2f, want ~1.2-2 (follow-on paper: 1.2-1.3)", r)
	}
}

// Cut-through alone must lift the memory-bus ceiling; optimistic
// interrupts alone must cut latency. Each technique pulls its own
// weight.
func TestPlusTechniquesIndependent(t *testing.T) {
	mk := func(p vnetpsim.Params) *lab.Testbed {
		return lab.NewVNETPTestbed(sim.New(), lab.Config{Dev: phys.Eth10G, N: 2, Params: p})
	}
	cutOnly := vnetpsim.DefaultParams()
	cutOnly.CutThrough = true
	optOnly := vnetpsim.DefaultParams()
	optOnly.OptimisticInterrupts = true

	baseUDP := microbench.TTCPUDP(mk(vnetpsim.DefaultParams()), 0, 1, 8900, 10e6)
	cutUDP := microbench.TTCPUDP(mk(cutOnly), 0, 1, 8900, 10e6)
	if cutUDP <= baseUDP*1.05 {
		t.Errorf("cut-through alone: %.0f -> %.0f MB/s, want a clear gain", baseUDP/1e6, cutUDP/1e6)
	}

	baseRTT := microbench.PingRTT(mk(vnetpsim.DefaultParams()), 0, 1, 56, 10)
	optRTT := microbench.PingRTT(mk(optOnly), 0, 1, 56, 10)
	if optRTT >= baseRTT-10e3 { // at least 10us better
		t.Errorf("optimistic interrupts alone: RTT %v -> %v, want >=10us better", baseRTT, optRTT)
	}
}
