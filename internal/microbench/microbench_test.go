package microbench

import (
	"testing"
	"time"

	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
	"vnetp/internal/vnetu"
)

// Short simulated measurement windows: long enough for steady state,
// short enough for fast tests.
const (
	udpWindow   = 20 * time.Millisecond
	tcpTotal    = 8 << 20
	tcpTotal1G  = 2 << 20
	pingSamples = 20
)

func vnetpPairTB(dev phys.Device) *lab.Testbed {
	return lab.NewVNETPTestbed(sim.New(), lab.Config{Dev: dev, N: 2, Params: vnetpsim.DefaultParams()})
}

func nativePairTB(dev phys.Device) *lab.Testbed {
	return lab.NewNativeTestbed(sim.New(), dev, 2)
}

func TestFig8Shape1G(t *testing.T) {
	natTCP := TTCPStream(nativePairTB(phys.Eth1G), 0, 1, 64<<10, tcpTotal1G)
	vnpTCP := TTCPStream(vnetpPairTB(phys.Eth1G), 0, 1, 64<<10, tcpTotal1G)
	natUDP := TTCPUDP(nativePairTB(phys.Eth1G), 0, 1, 64000, udpWindow)
	vnpUDP := TTCPUDP(vnetpPairTB(phys.Eth1G), 0, 1, 64000, udpWindow)
	t.Logf("1G: native TCP %.1f MB/s, VNET/P TCP %.1f MB/s", natTCP/1e6, vnpTCP/1e6)
	t.Logf("1G: native UDP %.1f MB/s, VNET/P UDP %.1f MB/s", natUDP/1e6, vnpUDP/1e6)

	// Paper: "VNET/P performs identically to the native case for the
	// 1 Gbps network."
	if r := vnpTCP / natTCP; r < 0.93 {
		t.Errorf("VNET/P-1G TCP at %.0f%% of native, want ~100%%", r*100)
	}
	if r := vnpUDP / natUDP; r < 0.93 {
		t.Errorf("VNET/P-1G UDP at %.0f%% of native, want ~100%%", r*100)
	}
	// Native 1G should be near line rate (125 MB/s).
	if natUDP < 100e6 || natUDP > 126e6 {
		t.Errorf("native-1G UDP %.1f MB/s, want ~110-125", natUDP/1e6)
	}
}

func TestFig8Shape10G(t *testing.T) {
	// Standard MTU (1500).
	natTCPstd := TTCPStream(nativePairTB(phys.Eth10GStd), 0, 1, 64<<10, tcpTotal)
	vnpTCPstd := TTCPStream(vnetpPairTB(phys.Eth10GStd), 0, 1, 64<<10, tcpTotal)
	natUDPstd := TTCPUDP(nativePairTB(phys.Eth10GStd), 0, 1, 64000, udpWindow)
	vnpUDPstd := TTCPUDP(vnetpPairTB(phys.Eth10GStd), 0, 1, 64000, udpWindow)
	t.Logf("10G-1500: native TCP %.0f MB/s UDP %.0f MB/s; VNET/P TCP %.0f MB/s UDP %.0f MB/s",
		natTCPstd/1e6, natUDPstd/1e6, vnpTCPstd/1e6, vnpUDPstd/1e6)

	// Paper: VNET/P achieves 74-78% of native on 10G at standard MTU.
	rt, ru := vnpTCPstd/natTCPstd, vnpUDPstd/natUDPstd
	if rt < 0.55 || rt > 0.95 {
		t.Errorf("VNET/P-10G-1500 TCP at %.0f%% of native, want ~60-90%%", rt*100)
	}
	if ru < 0.55 || ru > 0.95 {
		t.Errorf("VNET/P-10G-1500 UDP at %.0f%% of native, want ~60-90%%", ru*100)
	}

	// Jumbo (9000).
	wj := StreamWriteFor(lab.GuestMTUFor(phys.Eth10G))
	natTCPj := TTCPStream(nativePairTB(phys.Eth10G), 0, 1, wj, tcpTotal)
	vnpTCPj := TTCPStream(vnetpPairTB(phys.Eth10G), 0, 1, wj, tcpTotal)
	natUDPj := TTCPUDP(nativePairTB(phys.Eth10G), 0, 1, 8900, udpWindow)
	vnpUDPj := TTCPUDP(vnetpPairTB(phys.Eth10G), 0, 1, 8900, udpWindow)
	t.Logf("10G-9000: native TCP %.0f MB/s UDP %.0f MB/s; VNET/P TCP %.0f MB/s UDP %.0f MB/s",
		natTCPj/1e6, natUDPj/1e6, vnpTCPj/1e6, vnpUDPj/1e6)

	// Paper: "performance increases across the board compared to the 1500
	// byte MTU results."
	if vnpTCPj <= vnpTCPstd || vnpUDPj <= vnpUDPstd {
		t.Errorf("jumbo VNET/P (%.0f/%.0f MB/s) not above standard-MTU (%.0f/%.0f MB/s)",
			vnpTCPj/1e6, vnpUDPj/1e6, vnpTCPstd/1e6, vnpUDPstd/1e6)
	}
	if r := vnpUDPj / natUDPj; r < 0.6 || r > 0.98 {
		t.Errorf("VNET/P-10G-9000 UDP at %.0f%% of native", r*100)
	}
}

func TestFig8VNETUBaseline(t *testing.T) {
	// Sect. 5.2: VNET/U on Palacios reaches 71 MB/s; on VMware, 35 MB/s.
	tbP := lab.NewVNETUTestbed(sim.New(), phys.Eth1G, 2, vnetu.PalaciosTap)
	palTCP := TTCPStream(tbP, 0, 1, 64<<10, tcpTotal1G)
	tbV := lab.NewVNETUTestbed(sim.New(), phys.Eth1G, 2, vnetu.VMwareTap)
	vmwTCP := TTCPStream(tbV, 0, 1, 64<<10, tcpTotal1G)
	t.Logf("VNET/U: palacios-tap %.1f MB/s, vmware-tap %.1f MB/s", palTCP/1e6, vmwTCP/1e6)

	if palTCP < 50e6 || palTCP > 95e6 {
		t.Errorf("VNET/U (Palacios tap) %.1f MB/s, want ~60-85 (paper: 71)", palTCP/1e6)
	}
	if vmwTCP < 25e6 || vmwTCP > 50e6 {
		t.Errorf("VNET/U (VMware tap) %.1f MB/s, want ~28-45 (paper: 35)", vmwTCP/1e6)
	}
	if vmwTCP >= palTCP {
		t.Error("VMware tap should be slower than the Palacios custom tap")
	}
	// VNET/U cannot saturate a 1 Gbps link (the paper's core motivation).
	if palTCP > 110e6 {
		t.Errorf("VNET/U at %.1f MB/s saturates 1G; it must not", palTCP/1e6)
	}
}

func TestFig9LatencyShape(t *testing.T) {
	nat10 := PingRTT(nativePairTB(phys.Eth10G), 0, 1, 56, pingSamples)
	vnp10 := PingRTT(vnetpPairTB(phys.Eth10G), 0, 1, 56, pingSamples)
	nat1 := PingRTT(nativePairTB(phys.Eth1G), 0, 1, 56, pingSamples)
	vnp1 := PingRTT(vnetpPairTB(phys.Eth1G), 0, 1, 56, pingSamples)
	t.Logf("ping 56B: native-10G %v, VNET/P-10G %v (%.1fx)", nat10, vnp10, float64(vnp10)/float64(nat10))
	t.Logf("ping 56B: native-1G %v, VNET/P-1G %v (%.1fx)", nat1, vnp1, float64(vnp1)/float64(nat1))

	// Paper Fig 9: ~2x on 1G, ~3x on 10G, VNET/P-10G ~130µs absolute.
	r10 := float64(vnp10) / float64(nat10)
	if r10 < 1.8 || r10 > 4.5 {
		t.Errorf("10G RTT ratio %.2f, want ~2-4 (paper ~3)", r10)
	}
	r1 := float64(vnp1) / float64(nat1)
	if r1 < 1.3 || r1 > 3.2 {
		t.Errorf("1G RTT ratio %.2f, want ~1.5-2.5 (paper ~2)", r1)
	}
	if vnp10 < 80*time.Microsecond || vnp10 > 200*time.Microsecond {
		t.Errorf("VNET/P-10G RTT %v, want ~100-170µs (paper ~130µs)", vnp10)
	}
	// Larger payloads raise RTT monotonically-ish.
	small := PingRTT(vnetpPairTB(phys.Eth10G), 0, 1, 64, pingSamples)
	large := PingRTT(vnetpPairTB(phys.Eth10G), 0, 1, 8192, pingSamples)
	if large <= small {
		t.Errorf("RTT(8192B)=%v <= RTT(64B)=%v", large, small)
	}
}

func TestVNETULatencyOverhead(t *testing.T) {
	// Sect. 5.2: VNET/U adds ~0.88 ms over native; VNET/P is ~7x lower
	// latency than VNET/U.
	nat := PingRTT(nativePairTB(phys.Eth1G), 0, 1, 56, pingSamples)
	tbU := lab.NewVNETUTestbed(sim.New(), phys.Eth1G, 2, vnetu.PalaciosTap)
	vu := PingRTT(tbU, 0, 1, 56, pingSamples)
	vnp10 := PingRTT(vnetpPairTB(phys.Eth10G), 0, 1, 56, pingSamples)
	tbU10 := lab.NewVNETUTestbed(sim.New(), phys.Eth10G, 2, vnetu.PalaciosTap)
	vu10 := PingRTT(tbU10, 0, 1, 56, pingSamples)
	t.Logf("VNET/U-1G RTT %v (native %v, overhead %v)", vu, nat, vu-nat)
	t.Logf("VNET/U-10G RTT %v vs VNET/P-10G %v (%.1fx)", vu10, vnp10, float64(vu10)/float64(vnp10))

	over := vu - nat
	if over < 500*time.Microsecond || over > 1500*time.Microsecond {
		t.Errorf("VNET/U latency overhead %v, want ~0.6-1.2ms (paper 0.88ms)", over)
	}
	if r := float64(vu10) / float64(vnp10); r < 4 || r > 12 {
		t.Errorf("VNET/U / VNET/P latency ratio %.1f, want ~5-9 (paper ~7)", r)
	}
}
