package lab_test

import (
	"testing"
	"time"

	"vnetp/internal/ethernet"
	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
	"vnetp/internal/vnetu"
)

func TestGuestMTUFor(t *testing.T) {
	// Encapsulated packet must fit one physical MTU exactly: guest MTU +
	// inner Ethernet header + outer IP/UDP + encap header == device MTU.
	for _, dev := range []phys.Device{phys.Eth1G, phys.Eth10G, phys.Gemini} {
		mtu := lab.GuestMTUFor(dev)
		if mtu+lab.EncapOverhead != dev.MTU {
			t.Errorf("%s: guest MTU %d + overhead %d != device MTU %d",
				dev.Name, mtu, lab.EncapOverhead, dev.MTU)
		}
	}
	// IPoIB's 65520-byte MTU would exceed the overlay's 64KB frame cap.
	if lab.GuestMTUFor(phys.IPoIB) > ethernet.MaxMTU {
		t.Error("IPoIB guest MTU exceeds the overlay cap")
	}
}

func TestClusterFullMesh(t *testing.T) {
	eng := sim.New()
	c := lab.NewCluster(eng, lab.Config{Dev: phys.Eth10G, N: 4, Params: vnetpsim.DefaultParams()})
	if len(c.Nodes) != 4 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		// n-1 links and n routes (n-1 remote + 1 local) per node.
		if got := len(n.Bridge.Links()); got != 3 {
			t.Errorf("node %d: %d links, want 3", i, got)
		}
		if got := n.Core.Table.Len(); got != 4 {
			t.Errorf("node %d: %d routes, want 4", i, got)
		}
		if n.MAC() != ethernet.LocalMAC(uint32(i+1)) {
			t.Errorf("node %d MAC %v", i, n.MAC())
		}
	}
}

func TestNodeIPUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		ip := lab.NodeIP(i).String()
		if seen[ip] {
			t.Fatalf("duplicate IP %s at node %d", ip, i)
		}
		seen[ip] = true
	}
}

func TestAllTestbedsPassTraffic(t *testing.T) {
	// Every configuration builder yields a testbed whose stacks can
	// actually exchange a datagram.
	builders := map[string]func(eng *sim.Engine) *lab.Testbed{
		"vnetp": func(eng *sim.Engine) *lab.Testbed {
			return lab.NewVNETPTestbed(eng, lab.Config{Dev: phys.Eth10G, N: 3, Params: vnetpsim.DefaultParams()})
		},
		"native": func(eng *sim.Engine) *lab.Testbed {
			return lab.NewNativeTestbed(eng, phys.Eth10G, 3)
		},
		"vnetu": func(eng *sim.Engine) *lab.Testbed {
			return lab.NewVNETUTestbed(eng, phys.Eth1G, 3, vnetu.PalaciosTap)
		},
	}
	for name, build := range builders {
		eng := sim.New()
		tb := build(eng)
		got := 0
		eng.Go("recv", func(p *sim.Proc) {
			sock := tb.Stacks[2].BindUDP(7)
			d := sock.Recv(p)
			got = d.Size
		})
		eng.Go("send", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			sock := tb.Stacks[0].BindUDP(8)
			sock.SendTo(p, tb.IP(2), 7, 777)
		})
		eng.Run()
		eng.Close()
		if got != 777 {
			t.Errorf("%s testbed: received %d bytes, want 777", name, got)
		}
	}
}

func TestBridgeSharesDispatcherOption(t *testing.T) {
	eng := sim.New()
	c := lab.NewCluster(eng, lab.Config{
		Dev: phys.Eth10G, N: 2, Params: vnetpsim.DefaultParams(), BridgeSharesDispatcher: true,
	})
	for i, n := range c.Nodes {
		if n.Bridge.Worker() != n.Core.Dispatchers()[0] {
			t.Errorf("node %d: bridge did not share the dispatcher worker", i)
		}
	}
	eng2 := sim.New()
	c2 := lab.NewCluster(eng2, lab.Config{Dev: phys.Eth10G, N: 2, Params: vnetpsim.DefaultParams()})
	if c2.Nodes[0].Bridge.Worker() == c2.Nodes[0].Core.Dispatchers()[0] {
		t.Error("default config should give the bridge its own worker")
	}
}
