package bridge_test

import (
	"testing"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/virtio"
	"vnetp/internal/vmm"
	"vnetp/internal/vnetpsim"
)

// TestDirectSendExitPoint exercises the overlay's "exit point" (paper
// Sect. 4.5): a frame routed to the reserved local-network link leaves
// the overlay as a raw, unencapsulated Ethernet frame toward the
// configured peer, and the peer's bridge delivers it without
// decapsulation.
func TestDirectSendExitPoint(t *testing.T) {
	eng := sim.New()
	net := vmm.NewNetwork(eng, phys.Eth1G)
	model := phys.DefaultModel()

	h0 := net.AddHost("inside", model)
	h1 := net.AddHost("lan-peer", model)
	vm0 := vmm.NewVM(h0, "vm0")
	mac0, macLAN := ethernet.LocalMAC(1), ethernet.LocalMAC(9)
	nic0 := virtio.NewNIC(mac0, 1500)

	core0 := vnetpsim.New(h0, vnetpsim.DefaultParams())
	br0 := vnetpsim.NewBridge(h0, sim.WorkerConfig{Yield: sim.YieldImmediate}, nil)
	br0.Deliver = core0.DeliverFromWire
	br0.DirectPeer = "lan-peer"
	core0.Bridge = br0
	core0.Register("nic0", vm0, nic0)

	// The exit-point rule: the LAN machine's MAC routes to the reserved
	// local link.
	core0.Table.AddRoute(core.Route{
		DstMAC: macLAN, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: vnetpsim.LocalLinkID},
	})

	// The LAN peer: a VNET/P core in direct-receive (promiscuous) mode,
	// standing in for the physical machine.
	vm1 := vmm.NewVM(h1, "vm1")
	nic1 := virtio.NewNIC(macLAN, 1500)
	core1 := vnetpsim.New(h1, vnetpsim.DefaultParams())
	br1 := vnetpsim.NewBridge(h1, sim.WorkerConfig{Yield: sim.YieldImmediate}, nil)
	br1.Deliver = core1.DeliverFromWire
	core1.Bridge = br1
	lanIfc := core1.Register("nic0", vm1, nic1)
	core1.Table.AddRoute(core.Route{
		DstMAC: macLAN, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "nic0"},
	})

	var got *ethernet.Frame
	lanIfc.SetRecv(func() {
		if f, ok := lanIfc.GuestRecv(); ok {
			got = f
		}
		lanIfc.RxDone()
	})

	f := &ethernet.Frame{Dst: macLAN, Src: mac0, Type: ethernet.TypeTest, Pad: 200}
	core0.Iface("nic0").TrySend(f)
	eng.Run()
	eng.Close()

	if got != f {
		t.Fatal("direct-send frame never reached the LAN peer")
	}
	if br0.DirectSent != 1 || br0.EncapSent != 0 {
		t.Fatalf("send mode wrong: direct=%d encap=%d", br0.DirectSent, br0.EncapSent)
	}
	if br1.Received != 1 || br1.Reassembled != 0 {
		t.Fatalf("receive mode wrong: recv=%d reassembled=%d", br1.Received, br1.Reassembled)
	}
}

// TestDirectSendUnconfigured drops (and counts) when no exit peer is set.
func TestDirectSendUnconfigured(t *testing.T) {
	eng := sim.New()
	net := vmm.NewNetwork(eng, phys.Eth1G)
	h0 := net.AddHost("h0", phys.DefaultModel())
	br := vnetpsim.NewBridge(h0, sim.WorkerConfig{Yield: sim.YieldImmediate}, nil)
	br.SendDirect(&ethernet.Frame{Type: ethernet.TypeTest})
	eng.Run()
	eng.Close()
	if br.NoLink != 1 {
		t.Fatalf("NoLink = %d, want 1", br.NoLink)
	}
}

// TestSendOverlayUnknownLink drops (and counts) for a missing link ID.
func TestSendOverlayUnknownLink(t *testing.T) {
	eng := sim.New()
	net := vmm.NewNetwork(eng, phys.Eth1G)
	h0 := net.AddHost("h0", phys.DefaultModel())
	br := vnetpsim.NewBridge(h0, sim.WorkerConfig{Yield: sim.YieldImmediate}, nil)
	br.SendOverlay("nope", &ethernet.Frame{Type: ethernet.TypeTest})
	eng.Run()
	eng.Close()
	if br.NoLink != 1 {
		t.Fatalf("NoLink = %d, want 1", br.NoLink)
	}
}

// TestLinkManagement covers Add/Remove/Links.
func TestLinkManagement(t *testing.T) {
	eng := sim.New()
	net := vmm.NewNetwork(eng, phys.Eth1G)
	h0 := net.AddHost("h0", phys.DefaultModel())
	br := vnetpsim.NewBridge(h0, sim.WorkerConfig{Yield: sim.YieldImmediate}, nil)
	br.AddLink(vnetpsim.LinkConfig{ID: "a", RemoteHost: "x"})
	br.AddLink(vnetpsim.LinkConfig{ID: "b", RemoteHost: "y", Proto: vnetpsim.TCP})
	if len(br.Links()) != 2 {
		t.Fatalf("links = %v", br.Links())
	}
	br.RemoveLink("a")
	if len(br.Links()) != 1 || br.Links()[0] != "b" {
		t.Fatalf("links after remove = %v", br.Links())
	}
	if vnetpsim.UDP.String() != "udp" || vnetpsim.TCP.String() != "tcp" {
		t.Fatal("proto strings")
	}
}
