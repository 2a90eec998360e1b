// The link is the one transmit object (ISSUE 15): every frame path
// reads link and topology state from published snapshots, so none of
// them waits for the node mutex, and every datagram leaves through one
// transport step that keeps the link's accounting — the same on the
// sync and the batched leg, over UDP, TCP and a fault conduit.
package overlay

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
)

// TestFramePathsTakeNoNodeMutex holds n.mu — as a slow control-plane
// operation would — and drives every frame path through the node: a
// cache hit, a miss, a broadcast fan-out, sends over a faulted link, an
// established TCP link and a TX ring, probe sends, receive-side delivery
// over UDP and TCP, and probes answered for a peer. All must complete.
// A path that blocks is named when the watchdog releases the mutex.
func TestFramePathsTakeNoNodeMutex(t *testing.T) {
	n, ring, peer := dropNode(t, NodeConfig{}), dropNode(t, RingConfig()), dropNode(t, NodeConfig{})
	attach := func(on *Node, name string, mac ethernet.MAC) *Endpoint {
		ep, err := on.AttachEndpoint(name, mac, 1500)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	route := func(on *Node, dst ethernet.MAC, d core.Destination) {
		if err := on.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny, Dest: d}); err != nil {
			t.Fatal(err)
		}
	}
	src, sink := attach(n, "src", ethernet.LocalMAC(1)), attach(n, "sink", ethernet.LocalMAC(2))
	ringSrc, peerSrc := attach(ring, "src", ethernet.LocalMAC(3)), attach(peer, "src", ethernet.LocalMAC(4))

	// Outbound: one tap per link, one destination MAC per tap.
	taps := map[string]*wireTap{}
	dsts := map[string]ethernet.MAC{"udp": ethernet.LocalMAC(0x11), "tcp": ethernet.LocalMAC(0x12), "faulted": ethernet.LocalMAC(0x13), "ring": ethernet.LocalMAC(0x14)}
	for id, dst := range dsts {
		on, proto := n, "udp"
		if id == "ring" {
			on = ring
		} else if id == "tcp" {
			proto = "tcp"
		}
		taps[id] = newWireTap(t, proto)
		if err := on.AddLink(id, taps[id].addr, proto); err != nil {
			t.Fatal(err)
		}
		route(on, dst, core.Destination{Type: core.DestLink, ID: id})
	}
	n.SetLinkFault("faulted", faultnet.New(faultnet.Config{}))
	route(n, ethernet.Broadcast, core.Destination{Type: core.DestLink, ID: "udp"})
	route(n, ethernet.Broadcast, core.Destination{Type: core.DestInterface, ID: "sink"})

	// Inbound: the peer reaches n's sink over UDP and over TCP, and probes
	// both links.
	viaTCP := ethernet.LocalMAC(0x22)
	route(n, viaTCP, core.Destination{Type: core.DestInterface, ID: "sink"})
	for id, dst := range map[string]ethernet.MAC{"udp": sink.MAC(), "tcp": viaTCP} {
		if err := peer.AddLink(id, n.Addr(), id); err != nil {
			t.Fatal(err)
		}
		route(peer, dst, core.Destination{Type: core.DestLink, ID: id})
	}
	hc := DefaultHealthConfig()
	hc.Interval = 5 * time.Millisecond
	if err := peer.EnableHealth(hc); err != nil {
		t.Fatal(err)
	}
	replies := func() (total uint64) {
		peer.mu.Lock()
		defer peer.mu.Unlock()
		for _, lk := range peer.topo.Load().links {
			total += lk.health.repliesRecv.Load()
		}
		return total
	}

	send := func(ep *Endpoint, f *ethernet.Frame) {
		t.Helper()
		if err := ep.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(what string) {
		t.Helper()
		if _, ok := sink.Recv(5 * time.Second); !ok {
			t.Fatalf("%s: nothing delivered to the local endpoint", what)
		}
	}
	type pathStep struct {
		name string
		run  func()
	}
	var step atomic.Value
	steps := []pathStep{
		{"cache hit", func() { send(src, testFrame(src.MAC(), dsts["udp"])); taps["udp"].frame(t, 1, nil) }},
		{"cache hit via SendBatch", func() {
			if err := src.SendBatch([]*ethernet.Frame{testFrame(src.MAC(), dsts["udp"])}); err != nil {
				t.Fatal(err)
			}
			taps["udp"].frame(t, 1, nil)
		}},
		{"faulted link", func() { send(src, testFrame(src.MAC(), dsts["faulted"])); taps["faulted"].frame(t, 1, nil) }},
		{"established TCP link", func() { send(src, testFrame(src.MAC(), dsts["tcp"])); taps["tcp"].frame(t, 1, nil) }},
		{"TX ring", func() { send(ringSrc, testFrame(ringSrc.MAC(), dsts["ring"])); taps["ring"].frame(t, 1, nil) }},
		{"receive over UDP", func() { send(peerSrc, testFrame(peerSrc.MAC(), sink.MAC())); recv("udp") }},
		{"receive over TCP", func() { send(peerSrc, testFrame(peerSrc.MAC(), viaTCP)); recv("tcp") }},
	}
	// Once with the mutex free: dials and accepts the TCP transports and
	// caches every flow above.
	for _, s := range steps {
		s.run()
	}
	steps = append(steps, []pathStep{
		{"cache miss", func() { send(src, testFrame(ethernet.LocalMAC(0x99), dsts["udp"])); taps["udp"].frame(t, 1, nil) }},
		{"broadcast fan-out", func() {
			send(src, testFrame(src.MAC(), ethernet.Broadcast))
			taps["udp"].frame(t, 1, nil)
			recv("broadcast")
		}},
		{"probe send", func() {
			for _, id := range []string{"udp", "tcp", "faulted"} {
				lk := n.topo.Load().links[id]
				if _, err := n.transmit(lk, lk.transport.Load(), [][]byte{marshalProbe(id, 1)}); err != nil {
					t.Fatal(err)
				}
				if got := taps[id].frame(t, 1, nil); !got[0].Header.Probe {
					t.Fatalf("link %s: probe arrived as %+v", id, got[0].Header)
				}
			}
		}},
		{"probes answered for the peer", func() {
			// Four more replies than now: at least one probe on each of the
			// peer's links went out after this point.
			for want, deadline := replies()+4, time.Now().Add(5*time.Second); replies() < want; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the peer's probes go unanswered")
				}
			}
		}},
	}...)

	n.mu.Lock()
	ring.mu.Lock()
	fired := make(chan struct{})
	watchdog := time.AfterFunc(3*time.Second, func() {
		defer close(fired)
		t.Errorf("%s: waiting for the node mutex", step.Load())
		n.mu.Unlock()
		ring.mu.Unlock()
	})
	for _, s := range steps {
		step.Store(s.name)
		s.run()
	}
	if watchdog.Stop() {
		n.mu.Unlock()
		ring.mu.Unlock()
	} else {
		<-fired
	}
}

// TestTransmitAccounting is the accounting differential: the same
// frames over {sync, batched} × {UDP, TCP, fault conduit}, from one
// sender or from four at once, charge the link the same bytes_sent —
// exactly the bytes its peer read — and no send_errors; with the peer
// gone, every datagram the node made lands in send_errors and none in
// bytes_sent, and every frame is either the error its Send returned or a
// tx_error drop. One datagram, one counter, on every leg. The frames
// fragment under their transport's budget, so every run encodes them
// alike (frames that fit would share aggregates).
func TestTransmitAccounting(t *testing.T) {
	const frames = 4
	transports := []struct {
		name, proto string
		fault       bool
		size        int    // frame payload
		perFrame    uint64 // datagrams one frame fragments into
	}{
		{name: "udp", proto: "udp", size: 4000, perFrame: 3},
		{name: "tcp", proto: "tcp", size: 40000, perFrame: 2},
		{name: "fault_conduit", proto: "udp", fault: true, size: 4000, perFrame: 3},
	}
	legs := map[string]NodeConfig{"sync": {}, "batched": RingConfig()}
	// run sends the frames down a fresh link, senders goroutines at once,
	// and reports the link's counters and the bytes its peer read.
	run := func(t *testing.T, cfg NodeConfig, proto string, fault, peerGone bool, size, senders int, datagrams uint64) (sent, errs, wire uint64) {
		n := dropNode(t, cfg)
		src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), ethernet.MaxMTU)
		if err != nil {
			t.Fatal(err)
		}
		tap := newWireTap(t, proto)
		remote := tap.addr
		if peerGone {
			remote = "127.0.0.1:1" // TCP: the dial is refused
			if proto == "udp" {
				n.conn.Close() // UDP has no peer to refuse: fail the socket itself
			}
		}
		if err := n.AddLink("wire", remote, proto); err != nil {
			t.Fatal(err)
		}
		if fault {
			n.SetLinkFault("wire", faultnet.New(faultnet.Config{}))
		}
		dst := ethernet.LocalMAC(9)
		n.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: "wire"}})
		var refused atomic.Uint64 // Sends that returned an error
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					f := testFrame(src.MAC(), dst)
					f.Payload = make([]byte, size)
					if src.Send(f) != nil {
						refused.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		lk := n.topo.Load().links["wire"]
		if !peerGone {
			for i := uint64(0); i < datagrams; i++ {
				select {
				case d := <-tap.ch:
					wire += uint64(len(d))
				case <-time.After(5 * time.Second):
					t.Fatalf("the peer read %d of %d datagrams", i, datagrams)
				}
			}
		}
		// The counters move after the transport returns: let them catch up
		// with what the wire (or the refusing transport) has already seen.
		total := uint64(senders * frames)
		refusing := peerGone && !fault
		for deadline := time.Now().Add(5 * time.Second); lk.bytesSent.Load() < wire || (peerGone && lk.sendErrors.Load() < datagrams) ||
			(refusing && refused.Load()+n.ledger.Count(dropTxError) < total); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				break
			}
		}
		// A refused frame is its own Send's error when that Send held the
		// link (a fault conduit cannot refuse: its deliveries may come
		// later), else a tx_error drop; the batched leg never returns one.
		switch r, e := refused.Load(), n.ledger.Count(dropTxError); {
		case !refusing && r+e != 0:
			t.Fatalf("%d Sends refused and %d tx_error drops on a link that takes everything", r, e)
		case refusing && (r+e != total || (cfg.Adaptive.Enabled && r != 0) || (!cfg.Adaptive.Enabled && senders == 1 && r != total)):
			t.Fatalf("peer gone: %d Sends refused and %d tx_error drops for %d frames", r, e, total)
		}
		return lk.bytesSent.Load(), lk.sendErrors.Load(), wire
	}
	healthy := map[string]uint64{} // transport → bytes_sent per frame, the same on every leg
	for _, tr := range transports {
		for leg, cfg := range legs {
			t.Run(tr.name+"_"+leg, func(t *testing.T) {
				for _, senders := range []int{1, 4} {
					made := uint64(senders*frames) * tr.perFrame
					sent, errs, wire := run(t, cfg, tr.proto, tr.fault, false, tr.size, senders, made)
					if errs != 0 || sent != wire {
						t.Fatalf("%d senders, healthy link: bytes_sent=%d send_errors=%d, peer read %d bytes", senders, sent, errs, wire)
					}
					perFrame := sent / uint64(senders*frames)
					if prev, ok := healthy[tr.proto]; ok && prev != perFrame {
						t.Fatalf("%d senders: bytes_sent = %d per frame, another run over %s charged %d for the same frames", senders, perFrame, tr.proto, prev)
					}
					healthy[tr.proto] = perFrame
					if sent, errs, _ = run(t, cfg, tr.proto, tr.fault, true, tr.size, senders, made); sent != 0 || errs != made {
						t.Fatalf("%d senders, peer gone: bytes_sent=%d send_errors=%d, want 0 and %d", senders, sent, errs, made)
					}
				}
			})
		}
	}
	// Within one batch: an accepted train confirms all of its datagrams, a
	// refused one none.
	t.Run("udp_trains", testTransmitAccountingTrains)
}
