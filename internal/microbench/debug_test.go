package microbench

import (
	"testing"
	"time"

	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func TestDebugUDPVNETP(t *testing.T) {
	eng := sim.New()
	params := vnetpsim.DefaultParams()
	params.Mode = vnetpsim.VMMDriven
	tb := lab.NewVNETPTestbed(eng, lab.Config{Dev: phys.Eth10GStd, N: 2, Params: params})
	rate := TTCPUDP(tb, 0, 1, 64000, 20*time.Millisecond)
	t.Logf("UDP rate %.0f MB/s", rate/1e6)
	for i, n := range tb.VNETP.Nodes {
		el := float64(20 * time.Millisecond)
		t.Logf("node%d: guestCore=%.0f%% disp=%.0f%% bridge=%.0f%% membus=%.0f%% txlink=%.0f%% rxlink=%.0f%%",
			i,
			100*float64(n.VM.GuestCore.BusyTime)/el,
			100*float64(n.Core.Dispatchers()[0].BusyTime)/el,
			100*float64(n.Bridge.Worker().BusyTime)/el,
			100*float64(n.Host.MemBus.BusyTime)/el,
			100*float64(n.Host.TxLink.BusyTime)/el,
			100*float64(n.Host.RxLink.BusyTime)/el)
	}
}

func TestDebugStreamVNETP(t *testing.T) {
	for _, mode := range []vnetpsim.Mode{vnetpsim.GuestDriven, vnetpsim.VMMDriven, vnetpsim.Adaptive} {
		t.Run(mode.String(), func(t *testing.T) { debugStream(t, mode) })
	}
}

func debugStream(t *testing.T, mode vnetpsim.Mode) {
	eng := sim.New()
	params := vnetpsim.DefaultParams()
	params.Mode = mode
	tb := lab.NewVNETPTestbed(eng, lab.Config{Dev: phys.Eth10GStd, N: 2, Params: params})
	const total = 2 << 20
	var start, end sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		l := tb.Stacks[1].Listen(5001)
		st := l.Accept(p)
		start = p.Now()
		st.ReadFull(p, total)
		end = p.Now()
		t.Logf("recv side: dupacks=%d rcvd=%d", st.DupAcks, st.BytesReceived)
	})
	eng.Go("send", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		st := tb.Stacks[0].Dial(p, tb.IP(1), 5001)
		st.Write(p, total)
		st.Close(p)
		t.Logf("send side: retransmits=%d sent=%d", st.Retransmits, st.BytesSent)
	})
	eng.Run()
	eng.Close()
	n0, n1 := tb.VNETP.Nodes[0], tb.VNETP.Nodes[1]
	t.Logf("rate=%.1f MB/s elapsed=%v", float64(total)/end.Sub(start).Seconds()/1e6, end.Sub(start))
	t.Logf("node0: mode=%v kicks=%d avoided=%d switches=%d exits=%d inj=%d ipis=%d",
		n0.Iface.Mode(), n0.Iface.Kicks, n0.Iface.KicksAvoided, n0.Iface.ModeSwitches, n0.VM.Exits, n0.VM.Injections, n0.VM.IPIs)
	t.Logf("node1: mode=%v kicks=%d avoided=%d switches=%d exits=%d inj=%d ipis=%d rxdrop=%d",
		n1.Iface.Mode(), n1.Iface.Kicks, n1.Iface.KicksAvoided, n1.Iface.ModeSwitches, n1.VM.Exits, n1.VM.Injections, n1.VM.IPIs, n1.Iface.RxDropped)
	t.Logf("node0 bridge: encap=%d frags=%d; node1 recv=%d reasm=%d",
		n0.Bridge.EncapSent, n0.Bridge.FragmentsSent, n1.Bridge.Received, n1.Bridge.Reassembled)
	el := float64(end.Sub(start))
	for i, n := range tb.VNETP.Nodes {
		t.Logf("node%d util: guest=%.0f%% disp=%.0f%% bridge=%.0f%% membus=%.0f%% tx=%.0f%% rx=%.0f%%",
			i,
			100*float64(n.VM.GuestCore.BusyTime)/el,
			100*float64(n.Core.Dispatchers()[0].BusyTime)/el,
			100*float64(n.Bridge.Worker().BusyTime)/el,
			100*float64(n.Host.MemBus.BusyTime)/el,
			100*float64(n.Host.TxLink.BusyTime)/el,
			100*float64(n.Host.RxLink.BusyTime)/el)
	}
}
