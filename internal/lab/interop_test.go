package lab_test

import (
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/lab"
	"vnetp/internal/netstack"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/virtio"
	"vnetp/internal/vmm"
	"vnetp/internal/vnetpsim"
	"vnetp/internal/vnetu"
)

// TestVNETPInteroperatesWithVNETU checks the paper's compatibility claim
// (Sect. 4.2): a VNET/P core and a VNET/U daemon on one overlay exchange
// encapsulated traffic in both directions — VNET/P is the "fast path" of
// the same network, not a different network.
func TestVNETPInteroperatesWithVNETU(t *testing.T) {
	eng := sim.New()
	net := vmm.NewNetwork(eng, phys.Eth1G)
	model := phys.DefaultModel()

	// Host 0: VNET/P (core + in-kernel bridge).
	h0 := net.AddHost("p-host", model)
	vm0 := vmm.NewVM(h0, "vm0")
	mac0 := ethernet.LocalMAC(1)
	nic0 := virtio.NewNIC(mac0, 1446) // fits VNET/U's standard-MTU world
	vcore := vnetpsim.New(h0, vnetpsim.DefaultParams())
	br := vnetpsim.NewBridge(h0, sim.WorkerConfig{Yield: sim.YieldImmediate}, nil)
	br.Deliver = vcore.DeliverFromWire
	vcore.Bridge = br
	ifc0 := vcore.Register("nic0", vm0, nic0)
	_ = ifc0

	// Host 1: VNET/U (user-level daemon).
	h1 := net.AddHost("u-host", model)
	vm1 := vmm.NewVM(h1, "vm1")
	mac1 := ethernet.LocalMAC(2)
	nic1 := virtio.NewNIC(mac1, 1446)
	daemon := vnetu.New(h1, vnetu.PalaciosTap)
	uifc := daemon.Register("nic0", vm1, nic1)

	// Routes and links, each side in its own configuration idiom.
	vcore.Table.AddRoute(core.Route{DstMAC: mac0, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "nic0"}})
	vcore.Table.AddRoute(core.Route{DstMAC: mac1, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-u"}})
	br.AddLink(vnetpsim.LinkConfig{ID: "to-u", RemoteHost: "u-host", Proto: vnetpsim.UDP})
	daemon.Table.AddRoute(core.Route{DstMAC: mac1, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "nic0"}})
	daemon.Table.AddRoute(core.Route{DstMAC: mac0, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-p"}})
	daemon.AddLink("to-p", "p-host")

	// Guest stacks over both systems, then a ping across the mixed
	// overlay.
	ipP, ipU := lab.NodeIP(0), lab.NodeIP(1)
	sP := netstack.NewVMStack(eng, vm0, ifc0, ipP)
	sU := netstack.NewVMStack(eng, vm1, uifc, ipU)
	sP.AddNeighbor(ipU, mac1)
	sU.AddNeighbor(ipP, mac0)

	var rttPU, rttUP time.Duration
	var okPU, okUP bool
	eng.Go("p-pings-u", func(p *sim.Proc) {
		rttPU, okPU = sP.Ping(p, ipU, 56, time.Second)
	})
	eng.Go("u-pings-p", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		rttUP, okUP = sU.Ping(p, ipP, 56, time.Second)
	})
	eng.Run()
	eng.Close()

	if !okPU || !okUP {
		t.Fatalf("mixed overlay ping failed: P->U ok=%v, U->P ok=%v", okPU, okUP)
	}
	// Both directions cross the slow VNET/U side once each way.
	if rttPU < 300*time.Microsecond || rttUP < 300*time.Microsecond {
		t.Errorf("mixed-path RTTs %v / %v suspiciously fast for a VNET/U hop", rttPU, rttUP)
	}
	if daemon.Forwarded == 0 || daemon.Received == 0 {
		t.Error("daemon never carried interop traffic")
	}
	if br.EncapSent == 0 || br.Received == 0 {
		t.Error("bridge never carried interop traffic")
	}
}
