package core_test

import (
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/virtio"
	"vnetp/internal/vnetpsim"
)

func guestParams(mode vnetpsim.Mode) vnetpsim.Params {
	p := vnetpsim.DefaultParams()
	p.Mode = mode
	return p
}

// sendFrame pushes a frame into a node's TX ring from a guest process.
func sendFrame(c *lab.Cluster, from, to int, payload int) *ethernet.Frame {
	f := &ethernet.Frame{
		Dst:  c.Nodes[to].MAC(),
		Src:  c.Nodes[from].MAC(),
		Type: ethernet.TypeTest,
		Pad:  payload,
	}
	c.Nodes[from].Iface.TrySend(f)
	return f
}

func TestEndToEndDelivery(t *testing.T) {
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, guestParams(vnetpsim.GuestDriven))
	var got *ethernet.Frame
	var at sim.Time
	c.Nodes[1].Iface.SetRecv(func() {
		if f, ok := c.Nodes[1].Iface.GuestRecv(); ok {
			got, at = f, eng.Now()
		}
		c.Nodes[1].Iface.RxDone()
	})
	want := sendFrame(c, 0, 1, 1000)
	eng.Run()
	if got != want {
		t.Fatalf("frame not delivered: got %v", got)
	}
	if at == 0 {
		t.Fatal("no arrival time")
	}
	// One-way latency sanity: must exceed pure wire time but stay far
	// below a VNET/U-style millisecond path.
	oneWay := at.Duration()
	if oneWay < c.Dev.BaseLatency || oneWay > 200*time.Microsecond {
		t.Fatalf("one-way latency %v out of range", oneWay)
	}
	if c.Nodes[0].Core.ToBridge != 1 || c.Nodes[1].Core.LocalDelivered != 1 {
		t.Fatalf("path counters: toBridge=%d delivered=%d",
			c.Nodes[0].Core.ToBridge, c.Nodes[1].Core.LocalDelivered)
	}
}

func TestGuestDrivenChargesExits(t *testing.T) {
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, guestParams(vnetpsim.GuestDriven))
	c.Nodes[1].Iface.SetRecv(func() {
		for {
			if _, ok := c.Nodes[1].Iface.GuestRecv(); !ok {
				break
			}
		}
		c.Nodes[1].Iface.RxDone()
	})
	for i := 0; i < 10; i++ {
		sendFrame(c, 0, 1, 500)
	}
	eng.Run()
	if c.Nodes[0].Iface.Kicks == 0 || c.Nodes[0].VM.Exits == 0 {
		t.Fatalf("guest-driven mode produced no kicks/exits: kicks=%d exits=%d",
			c.Nodes[0].Iface.Kicks, c.Nodes[0].VM.Exits)
	}
	// Back-to-back pushes may coalesce under an active drain, but every
	// drain chain in guest-driven mode starts with a kick exit.
	if c.Nodes[0].Iface.Kicks+c.Nodes[0].Iface.KicksAvoided != 10 {
		t.Fatalf("kicks %d + avoided %d != 10 sends",
			c.Nodes[0].Iface.Kicks, c.Nodes[0].Iface.KicksAvoided)
	}
}

func TestVMMDrivenAvoidsExits(t *testing.T) {
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, guestParams(vnetpsim.VMMDriven))
	received := 0
	c.Nodes[1].Iface.SetRecv(func() {
		for {
			if _, ok := c.Nodes[1].Iface.GuestRecv(); !ok {
				break
			}
			received++
		}
		c.Nodes[1].Iface.RxDone()
	})
	for i := 0; i < 10; i++ {
		sendFrame(c, 0, 1, 500)
	}
	eng.Run()
	if received != 10 {
		t.Fatalf("received %d/10", received)
	}
	if c.Nodes[0].Iface.Kicks != 0 {
		t.Fatalf("VMM-driven mode charged %d kicks", c.Nodes[0].Iface.Kicks)
	}
	if c.Nodes[0].Iface.KicksAvoided != 10 {
		t.Fatalf("kicks avoided = %d, want 10", c.Nodes[0].Iface.KicksAvoided)
	}
}

func TestLocalVMToVMDelivery(t *testing.T) {
	// Two interfaces on one host: frames route VM-to-VM without touching
	// the bridge.
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, guestParams(vnetpsim.GuestDriven))
	n0 := c.Nodes[0]
	nic2 := virtio.NewNIC(ethernet.LocalMAC(50), 1500) // second NIC on host 0
	second := n0.Core.Register("nic1", n0.VM, nic2)
	n0.Core.Table.AddRoute(core.Route{
		DstMAC: nic2.MAC, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "nic1"},
	})
	var got *ethernet.Frame
	second.SetRecv(func() {
		if f, ok := second.GuestRecv(); ok {
			got = f
		}
		second.RxDone()
	})
	f := &ethernet.Frame{Dst: nic2.MAC, Src: n0.MAC(), Type: ethernet.TypeTest, Pad: 100}
	n0.Iface.TrySend(f)
	eng.Run()
	if got != f {
		t.Fatal("local delivery failed")
	}
	if n0.Bridge.EncapSent != 0 {
		t.Fatal("local frame went through the bridge")
	}
	if n0.Core.LocalDelivered != 1 {
		t.Fatalf("LocalDelivered = %d", n0.Core.LocalDelivered)
	}
}

func TestFragmentationOverSmallMTU(t *testing.T) {
	// Guest MTU far above physical MTU: bridge must fragment and
	// reassemble transparently.
	eng := sim.New()
	c := lab.NewCluster(eng, lab.Config{
		Dev: phys.Eth10GStd, N: 2, Params: guestParams(vnetpsim.GuestDriven),
		GuestMTU: 16000,
	})
	var got *ethernet.Frame
	c.Nodes[1].Iface.SetRecv(func() {
		if f, ok := c.Nodes[1].Iface.GuestRecv(); ok {
			got = f
		}
		c.Nodes[1].Iface.RxDone()
	})
	f := sendFrame(c, 0, 1, 15000)
	eng.Run()
	if got != f {
		t.Fatal("fragmented frame not delivered")
	}
	if c.Nodes[0].Bridge.FragmentsSent < 11 {
		t.Fatalf("fragments sent = %d, want >= 11 for 15KB over 1500 MTU",
			c.Nodes[0].Bridge.FragmentsSent)
	}
	if c.Nodes[1].Bridge.Reassembled != 1 {
		t.Fatalf("reassembled = %d", c.Nodes[1].Bridge.Reassembled)
	}
}

func TestNoFragmentationAtAdjustedMTU(t *testing.T) {
	// The default cluster guest MTU is chosen so encapsulated packets fit
	// the physical MTU exactly (the paper's jumbo-frame adjustment).
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, guestParams(vnetpsim.GuestDriven))
	c.Nodes[1].Iface.SetRecv(func() {
		c.Nodes[1].Iface.GuestRecv()
		c.Nodes[1].Iface.RxDone()
	})
	sendFrame(c, 0, 1, c.Nodes[0].NIC.MTU-100)
	eng.Run()
	if c.Nodes[0].Bridge.FragmentsSent != 1 {
		t.Fatalf("fragments = %d, want 1 (no fragmentation)", c.Nodes[0].Bridge.FragmentsSent)
	}
}

func TestNoRouteDropped(t *testing.T) {
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, guestParams(vnetpsim.GuestDriven))
	f := &ethernet.Frame{Dst: ethernet.LocalMAC(99), Src: c.Nodes[0].MAC(), Type: ethernet.TypeTest}
	c.Nodes[0].Iface.TrySend(f)
	eng.Run()
	if c.Nodes[0].Core.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", c.Nodes[0].Core.NoRoute)
	}
}

func TestRXQFullIPIEscalation(t *testing.T) {
	// A guest that never drains: the RX ring fills, the core parks frames
	// and forces an IPI exit; nothing is lost until the parking bound.
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, guestParams(vnetpsim.VMMDriven))
	drained := 0
	drainNow := false
	drain := func() {
		for {
			if _, ok := c.Nodes[1].Iface.GuestRecv(); !ok {
				break
			}
			drained++
		}
		c.Nodes[1].Iface.RxDone()
	}
	c.Nodes[1].Iface.SetRecv(func() {
		if drainNow {
			drain() // guest ignores interrupts until released
		}
	})
	const n = 300 // exceeds the 256-slot RXQ
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			for !c.Nodes[0].Iface.TrySend(&ethernet.Frame{
				Dst: c.Nodes[1].MAC(), Src: c.Nodes[0].MAC(), Type: ethernet.TypeTest, Pad: 100,
			}) {
				c.Nodes[0].Iface.WaitSendSpace(p)
			}
			p.Sleep(time.Microsecond)
		}
		// Let everything land, then release the guest.
		p.Sleep(10 * time.Millisecond)
		drainNow = true
		drain()
	})
	eng.Run()
	eng.Close()
	if c.Nodes[1].VM.IPIs == 0 {
		t.Fatal("RXQ overflow never escalated to an IPI")
	}
	if drained != n {
		t.Fatalf("drained %d/%d after release", drained, n)
	}
}

func TestAdaptiveModeSwitches(t *testing.T) {
	eng := sim.New()
	p := vnetpsim.DefaultParams() // adaptive, alpha_u = 1e4 pkt/s, omega = 5ms
	c := lab.NewPair(eng, phys.Eth10G, p)
	c.Nodes[1].Iface.SetRecv(func() {
		for {
			if _, ok := c.Nodes[1].Iface.GuestRecv(); !ok {
				break
			}
		}
		c.Nodes[1].Iface.RxDone()
	})
	ifc := c.Nodes[0].Iface
	if ifc.Mode() != vnetpsim.GuestDriven {
		t.Fatal("adaptive must start guest-driven")
	}
	eng.Go("burst", func(pr *sim.Proc) {
		// ~100k pkt/s for 20ms: far above alpha_u.
		for i := 0; i < 2000; i++ {
			for !ifc.TrySend(&ethernet.Frame{Dst: c.Nodes[1].MAC(), Src: c.Nodes[0].MAC(), Type: ethernet.TypeTest, Pad: 64}) {
				ifc.WaitSendSpace(pr)
			}
			pr.Sleep(10 * time.Microsecond)
		}
	})
	eng.RunFor(21 * time.Millisecond)
	if ifc.Mode() != vnetpsim.VMMDriven {
		t.Fatalf("mode = %v after burst, want VMM-driven", ifc.Mode())
	}
	// Go quiet: rate falls below alpha_l, mode must revert.
	eng.RunFor(50 * time.Millisecond)
	if ifc.Mode() != vnetpsim.GuestDriven {
		t.Fatalf("mode = %v after quiet period, want guest-driven", ifc.Mode())
	}
	if ifc.ModeSwitches < 2 {
		t.Fatalf("mode switches = %d, want >= 2", ifc.ModeSwitches)
	}
	eng.Close()
}

func TestAdaptiveHysteresisNoFlapping(t *testing.T) {
	// A rate between alpha_l and alpha_u must not cause switching.
	eng := sim.New()
	p := vnetpsim.DefaultParams()
	c := lab.NewPair(eng, phys.Eth10G, p)
	c.Nodes[1].Iface.SetRecv(func() {
		for {
			if _, ok := c.Nodes[1].Iface.GuestRecv(); !ok {
				break
			}
		}
		c.Nodes[1].Iface.RxDone()
	})
	ifc := c.Nodes[0].Iface
	eng.Go("steady", func(pr *sim.Proc) {
		// ~5000 pkt/s: between the bounds.
		for i := 0; i < 500; i++ {
			ifc.TrySend(&ethernet.Frame{Dst: c.Nodes[1].MAC(), Src: c.Nodes[0].MAC(), Type: ethernet.TypeTest, Pad: 64})
			pr.Sleep(200 * time.Microsecond)
		}
	})
	eng.RunFor(100 * time.Millisecond)
	if ifc.ModeSwitches != 0 {
		t.Fatalf("mode flapped %d times at mid-band rate", ifc.ModeSwitches)
	}
	eng.Close()
}

func TestUnregisterRemovesRoutes(t *testing.T) {
	eng := sim.New()
	c := lab.NewPair(eng, phys.Eth10G, guestParams(vnetpsim.GuestDriven))
	before := c.Nodes[0].Core.Table.Len()
	c.Nodes[0].Core.Unregister(lab.IfaceName)
	if c.Nodes[0].Core.Table.Len() != before-1 {
		t.Fatalf("routes %d -> %d, want one fewer", before, c.Nodes[0].Core.Table.Len())
	}
	if c.Nodes[0].Core.Iface(lab.IfaceName) != nil {
		t.Fatal("iface still registered")
	}
}
