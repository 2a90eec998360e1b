package kitten_test

import (
	"testing"
	"time"

	"vnetp/internal/kitten"
	"vnetp/internal/lab"
	"vnetp/internal/microbench"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func TestBridgeVMExtraApplied(t *testing.T) {
	eng := sim.New()
	tb := kitten.NewTestbed(eng, 2)
	for i, n := range tb.VNETP.Nodes {
		if n.Bridge.Extra != kitten.BridgeVMExtra {
			t.Errorf("node %d bridge extra = %v", i, n.Bridge.Extra)
		}
	}
	if tb.Dev.Name != phys.KittenIB.Name {
		t.Errorf("device = %s", tb.Dev.Name)
	}
}

func TestKittenVsNativeShape(t *testing.T) {
	// Sect. 6.3: 8900-byte ttcp payloads; VNET/P 4.0 Gbps vs native
	// IPoIB-RC 6.5 Gbps (ratio ~62%).
	engV := sim.New()
	vtcp := microbench.TTCPStream(kitten.NewTestbed(engV, 2), 0, 1, 8900, 4<<20)
	engN := sim.New()
	ntcp := microbench.TTCPStream(kitten.NewNativeTestbed(engN, 2), 0, 1, 8900, 4<<20)

	vg, ng := phys.BytesToGbps(vtcp), phys.BytesToGbps(ntcp)
	t.Logf("kitten VNET/P %.2f Gbps, native %.2f Gbps (paper: 4.0 / 6.5)", vg, ng)
	if ng < 5.5 || ng > 6.6 {
		t.Errorf("native IPoIB-RC %.2f Gbps, want ~6-6.5", ng)
	}
	if vg < 3.0 || vg > 5.0 {
		t.Errorf("Kitten VNET/P %.2f Gbps, want ~3.3-4.6 (paper 4.0)", vg)
	}
	if r := vg / ng; r < 0.5 || r > 0.75 {
		t.Errorf("ratio %.2f, want ~0.55-0.7 (paper 0.62)", r)
	}
}

func TestBridgeVMHopCostsLatency(t *testing.T) {
	// The service-VM hop must show up in latency relative to a plain
	// VNET/P datapath on the same fabric.
	engK := sim.New()
	kRTT := microbench.PingRTT(kitten.NewTestbed(engK, 2), 0, 1, 56, 10)
	engP := sim.New()
	import2 := lab.NewVNETPTestbed(engP, lab.Config{Dev: phys.KittenIB, N: 2, Params: vnetpsim.DefaultParams()})
	pRTT := microbench.PingRTT(import2, 0, 1, 56, 10)
	t.Logf("kitten RTT %v vs plain VNET/P RTT %v", kRTT, pRTT)
	if kRTT <= pRTT {
		t.Fatal("bridge-VM hop should add latency")
	}
	if kRTT-pRTT < 2*kitten.BridgeVMExtra || kRTT-pRTT > 8*kitten.BridgeVMExtra {
		t.Fatalf("hop cost %v not in band for extra %v", kRTT-pRTT, kitten.BridgeVMExtra)
	}
	_ = time.Microsecond
}
