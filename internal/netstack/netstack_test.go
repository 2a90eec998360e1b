package netstack_test

import (
	"testing"
	"time"

	"vnetp/internal/ethernet"
	"vnetp/internal/ipv4"
	"vnetp/internal/lab"
	"vnetp/internal/netstack"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vmm"
	"vnetp/internal/vnetpsim"
)

var (
	ipA = ipv4.AddrFrom(10, 0, 0, 1)
	ipB = ipv4.AddrFrom(10, 0, 0, 2)
)

// nativePair builds two directly connected native hosts with stacks.
func nativePair(dev phys.Device) (*sim.Engine, [2]*netstack.Stack) {
	eng := sim.New()
	net := vmm.NewNetwork(eng, dev)
	model := phys.DefaultModel()
	h0 := net.AddHost("host0", model)
	h1 := net.AddHost("host1", model)
	m0, m1 := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	p0 := netstack.NewNativePort(h0, m0, 0)
	p1 := netstack.NewNativePort(h1, m1, 0)
	p0.AddPeer(m1, "host1")
	p1.AddPeer(m0, "host0")
	s0 := netstack.NewNativeStack(eng, h0, p0, ipA)
	s1 := netstack.NewNativeStack(eng, h1, p1, ipB)
	s0.AddNeighbor(ipB, m1)
	s1.AddNeighbor(ipA, m0)
	return eng, [2]*netstack.Stack{s0, s1}
}

// vnetpPair builds two VNET/P nodes with guest stacks.
func vnetpPair(dev phys.Device, mode vnetpsim.Mode) (*sim.Engine, *lab.Cluster, [2]*netstack.Stack) {
	eng := sim.New()
	p := vnetpsim.DefaultParams()
	p.Mode = mode
	c := lab.NewPair(eng, dev, p)
	s0 := netstack.NewVMStack(eng, c.Nodes[0].VM, c.Nodes[0].Iface, ipA)
	s1 := netstack.NewVMStack(eng, c.Nodes[1].VM, c.Nodes[1].Iface, ipB)
	s0.AddNeighbor(ipB, c.Nodes[1].MAC())
	s1.AddNeighbor(ipA, c.Nodes[0].MAC())
	return eng, c, [2]*netstack.Stack{s0, s1}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := &netstack.Header{
		Proto: ipv4.ProtoTCP, Flags: netstack.FlagData | netstack.FlagACK,
		SrcPort: 1000, DstPort: 2000,
		Src: ipA, Dst: ipB,
		Seq: 12345, Ack: 67890, BodyLen: 1448,
	}
	b := h.Marshal(nil)
	if len(b) != netstack.HeaderLen {
		t.Fatalf("marshalled %d bytes, want %d", len(b), netstack.HeaderLen)
	}
	g, err := netstack.ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if *g != *h {
		t.Fatalf("round trip: %+v vs %+v", g, h)
	}
	if _, err := netstack.ParseHeader(b[:10]); err == nil {
		t.Fatal("short header parsed")
	}
}

func TestUDPNative(t *testing.T) {
	eng, s := nativePair(phys.Eth10G)
	var got netstack.Datagram
	eng.Go("recv", func(p *sim.Proc) {
		sock := s[1].BindUDP(9000)
		got = sock.Recv(p)
	})
	eng.Go("send", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		sock := s[0].BindUDP(9001)
		sock.SendTo(p, ipB, 9000, 4000)
	})
	eng.Run()
	eng.Close()
	if got.Size != 4000 || got.Src != ipA || got.SrcPort != 9001 {
		t.Fatalf("got %+v", got)
	}
}

func TestUDPSegmentation(t *testing.T) {
	// A datagram larger than the MSS arrives as multiple datagrams (the
	// stack segments; ttcp-style receivers count bytes).
	eng, s := nativePair(phys.Eth10GStd) // MTU 1500
	total := 0
	count := 0
	eng.Go("recv", func(p *sim.Proc) {
		sock := s[1].BindUDP(9000)
		for {
			d, ok := sock.RecvTimeout(p, 100*time.Millisecond)
			if !ok {
				break
			}
			total += d.Size
			count++
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		sock := s[0].BindUDP(9001)
		sock.SendTo(p, ipB, 9000, 64000)
	})
	eng.Run()
	eng.Close()
	if total != 64000 {
		t.Fatalf("received %d bytes, want 64000", total)
	}
	if count < 64000/1472 {
		t.Fatalf("received in %d datagrams, want >= %d", count, 64000/1472)
	}
}

func TestUDPOverVNETP(t *testing.T) {
	eng, c, s := vnetpPair(phys.Eth10G, vnetpsim.GuestDriven)
	var got netstack.Datagram
	eng.Go("recv", func(p *sim.Proc) {
		sock := s[1].BindUDP(7)
		got = sock.Recv(p)
	})
	eng.Go("send", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		sock := s[0].BindUDP(8)
		sock.SendTo(p, ipB, 7, 1000)
	})
	eng.Run()
	eng.Close()
	if got.Size != 1000 {
		t.Fatalf("got %+v", got)
	}
	if c.Nodes[0].Bridge.EncapSent == 0 || c.Nodes[1].Bridge.Received == 0 {
		t.Fatal("traffic did not traverse the overlay")
	}
}

func TestPingNativeVsVNETP(t *testing.T) {
	measure := func(eng *sim.Engine, s [2]*netstack.Stack) time.Duration {
		var rtt time.Duration
		eng.Go("ping", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			// Warm caches/rings with one ping, then measure.
			s[0].Ping(p, ipB, 56, time.Second)
			r, ok := s[0].Ping(p, ipB, 56, time.Second)
			if !ok {
				panic("ping timeout")
			}
			rtt = r
		})
		eng.Run()
		eng.Close()
		return rtt
	}
	engN, sN := nativePair(phys.Eth10G)
	native := measure(engN, sN)
	engV, _, sV := vnetpPair(phys.Eth10G, vnetpsim.GuestDriven)
	vnetp := measure(engV, sV)

	if native <= 0 || vnetp <= 0 {
		t.Fatalf("rtts: native=%v vnetp=%v", native, vnetp)
	}
	ratio := float64(vnetp) / float64(native)
	// Paper Fig 9: VNET/P latency is 2-3x native on 10G; allow slack but
	// require the ordering and a sane band.
	if ratio < 1.5 || ratio > 5 {
		t.Fatalf("VNET/P/native RTT ratio = %.2f (native %v, vnetp %v), want 1.5-5",
			ratio, native, vnetp)
	}
}

func TestStreamTransfer(t *testing.T) {
	eng, s := nativePair(phys.Eth10G)
	const total = 1 << 20
	var received int
	eng.Go("server", func(p *sim.Proc) {
		l := s[1].Listen(5001)
		st := l.Accept(p)
		received = st.ReadFull(p, total)
	})
	eng.Go("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		st := s[0].Dial(p, ipB, 5001)
		for i := 0; i < 4; i++ {
			st.Write(p, total/4)
		}
		st.Close(p)
	})
	eng.Run()
	eng.Close()
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestStreamOverVNETP(t *testing.T) {
	eng, _, s := vnetpPair(phys.Eth10G, vnetpsim.VMMDriven)
	const total = 256 << 10
	var received int
	eng.Go("server", func(p *sim.Proc) {
		l := s[1].Listen(5001)
		st := l.Accept(p)
		received = st.ReadFull(p, total)
	})
	eng.Go("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		st := s[0].Dial(p, ipB, 5001)
		st.Write(p, total)
		st.Close(p)
	})
	eng.Run()
	eng.Close()
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestStreamFINWithoutData(t *testing.T) {
	eng, s := nativePair(phys.Eth10G)
	done := false
	eng.Go("server", func(p *sim.Proc) {
		l := s[1].Listen(5001)
		st := l.Accept(p)
		if n := st.ReadFull(p, 100); n != 0 {
			t.Errorf("read %d from immediately-closed stream", n)
		}
		done = true
	})
	eng.Go("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		st := s[0].Dial(p, ipB, 5001)
		st.Close(p)
	})
	eng.Run()
	eng.Close()
	if !done {
		t.Fatal("server never completed")
	}
}

func TestPingUnreachableTimesOut(t *testing.T) {
	eng, s := nativePair(phys.Eth10G)
	var ok bool
	eng.Go("ping", func(p *sim.Proc) {
		_, ok = s[0].Ping(p, ipv4.AddrFrom(10, 9, 9, 9), 56, 5*time.Millisecond)
	})
	eng.Run()
	eng.Close()
	if ok {
		t.Fatal("ping to unreachable address succeeded")
	}
}

func TestDoubleBindPanics(t *testing.T) {
	eng, s := nativePair(phys.Eth10G)
	_ = eng
	s[0].BindUDP(100)
	defer func() {
		if recover() == nil {
			t.Fatal("double bind did not panic")
		}
	}()
	s[0].BindUDP(100)
}

func TestSocketCloseReleasesPort(t *testing.T) {
	_, s := nativePair(phys.Eth10G)
	sock := s[0].BindUDP(100)
	sock.Close()
	s[0].BindUDP(100) // must not panic
}
