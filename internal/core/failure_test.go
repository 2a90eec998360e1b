package core_test

import (
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/lab"
	"vnetp/internal/netstack"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

// TestStreamSurvivesLinkFlap tears an overlay link down mid-transfer and
// restores it: frames sent into the void are lost, the reliable stream
// retransmits, and the transfer completes — the failure-recovery behavior
// a dynamically reconfigured overlay depends on.
func TestStreamSurvivesLinkFlap(t *testing.T) {
	eng := sim.New()
	p := vnetpsim.DefaultParams()
	c := lab.NewPair(eng, phys.Eth10G, p)
	s0 := netstack.NewVMStack(eng, c.Nodes[0].VM, c.Nodes[0].Iface, lab.NodeIP(0))
	s1 := netstack.NewVMStack(eng, c.Nodes[1].VM, c.Nodes[1].Iface, lab.NodeIP(1))
	s0.AddNeighbor(lab.NodeIP(1), c.Nodes[1].MAC())
	s1.AddNeighbor(lab.NodeIP(0), c.Nodes[0].MAC())

	const total = 1 << 20
	received := 0
	var retransmits uint64
	eng.Go("server", func(pr *sim.Proc) {
		l := s1.Listen(5001)
		st := l.Accept(pr)
		received = st.ReadFull(pr, total)
	})
	eng.Go("client", func(pr *sim.Proc) {
		pr.Sleep(time.Millisecond)
		st := s0.Dial(pr, lab.NodeIP(1), 5001)
		st.Write(pr, total)
		st.Close(pr)
		retransmits = st.Retransmits
	})
	// Flap the forward link while the transfer is in flight.
	eng.Go("chaos", func(pr *sim.Proc) {
		pr.Sleep(2 * time.Millisecond)
		c.Nodes[0].Bridge.RemoveLink(lab.LinkID(1))
		pr.Sleep(5 * time.Millisecond) // outage window: frames black-hole
		c.Nodes[0].Bridge.AddLink(vnetpsim.LinkConfig{ID: lab.LinkID(1), RemoteHost: "host1", Proto: vnetpsim.UDP})
	})
	eng.Run()
	eng.Close()

	if received != total {
		t.Fatalf("received %d/%d after link flap", received, total)
	}
	if retransmits == 0 {
		t.Fatal("no retransmissions despite a 5ms outage")
	}
	if c.Nodes[0].Bridge.NoLink == 0 {
		t.Fatal("outage never black-holed a frame")
	}
	t.Logf("outage dropped %d frames at the bridge, %d retransmissions recovered the stream",
		c.Nodes[0].Bridge.NoLink, retransmits)
}

// TestRerouteMidStream switches a destination's route between two links
// mid-transfer (the migration scenario at the routing layer): the stream
// keeps flowing through the new path.
func TestRerouteMidStream(t *testing.T) {
	eng := sim.New()
	// Three hosts: sender 0 can reach 1 directly, or via 2 (which is not
	// wired to forward — so we just switch between the direct link and a
	// second direct link object).
	c := lab.NewCluster(eng, lab.Config{Dev: phys.Eth10G, N: 2, Params: vnetpsim.DefaultParams()})
	s0 := netstack.NewVMStack(eng, c.Nodes[0].VM, c.Nodes[0].Iface, lab.NodeIP(0))
	s1 := netstack.NewVMStack(eng, c.Nodes[1].VM, c.Nodes[1].Iface, lab.NodeIP(1))
	s0.AddNeighbor(lab.NodeIP(1), c.Nodes[1].MAC())
	s1.AddNeighbor(lab.NodeIP(0), c.Nodes[0].MAC())
	// A second, parallel link to the same host.
	c.Nodes[0].Bridge.AddLink(vnetpsim.LinkConfig{ID: "alt", RemoteHost: "host1", Proto: vnetpsim.UDP})

	const total = 512 << 10
	received := 0
	eng.Go("server", func(pr *sim.Proc) {
		l := s1.Listen(5001)
		st := l.Accept(pr)
		received = st.ReadFull(pr, total)
	})
	eng.Go("client", func(pr *sim.Proc) {
		pr.Sleep(time.Millisecond)
		st := s0.Dial(pr, lab.NodeIP(1), 5001)
		st.Write(pr, total)
		st.Close(pr)
	})
	eng.Go("reroute", func(pr *sim.Proc) {
		pr.Sleep(2 * time.Millisecond)
		// Atomically replace the route: dst MAC now flows via "alt".
		c.Nodes[0].Core.Table.RemoveByDest(core.Destination{Type: core.DestLink, ID: lab.LinkID(1)})
		c.Nodes[0].Core.Table.AddRoute(core.Route{
			DstMAC: c.Nodes[1].MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: "alt"},
		})
	})
	eng.Run()
	eng.Close()
	if received != total {
		t.Fatalf("received %d/%d across reroute", received, total)
	}
}
