// The link is the one transmit object (ISSUE 15): every frame path
// reads link and topology state from published snapshots, so none of
// them waits for the node mutex, and every datagram leaves through one
// transport step that keeps the link's accounting — the same over UDP,
// TCP and a fault conduit, whether frames leave alone or share a flush.
package overlay

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
)

// TestFramePathsTakeNoNodeMutex holds n.mu — as a slow control-plane
// operation would — and drives every frame path through the node: a
// cache hit, a miss, a broadcast fan-out, sends over a faulted link and
// an established TCP link, probe sends, receive-side delivery
// over UDP and TCP, and probes answered for a peer. All must complete.
// A path that blocks is named when the watchdog releases the mutex.
func TestFramePathsTakeNoNodeMutex(t *testing.T) {
	n, peer := dropNode(t, NodeConfig{}), dropNode(t, NodeConfig{})
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
	peerSrc := attach(peer, "src", ethernet.LocalMAC(4))

	// Outbound: one tap per link, one destination MAC per tap.
	taps := map[string]*wireTap{}
	dsts := map[string]ethernet.MAC{"udp": ethernet.LocalMAC(0x11), "tcp": ethernet.LocalMAC(0x12), "faulted": ethernet.LocalMAC(0x13)}
	for id, dst := range dsts {
		proto := "udp"
		if id == "tcp" {
			proto = "tcp"
		}
		taps[id] = newWireTap(t, proto)
		if err := n.AddLink(id, taps[id].addr, proto); err != nil {
			t.Fatal(err)
		}
		route(n, dst, core.Destination{Type: core.DestLink, ID: id})
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
	fired := make(chan struct{})
	watchdog := time.AfterFunc(3*time.Second, func() {
		defer close(fired)
		t.Errorf("%s: waiting for the node mutex", step.Load())
		n.mu.Unlock()
	})
	for _, s := range steps {
		step.Store(s.name)
		s.run()
	}
	if watchdog.Stop() {
		n.mu.Unlock()
	} else {
		<-fired
	}
}

// TestLoneFrameKeepsItsLength: a frame with nothing to share its flush is
// a train of one record in one datagram, the length an aggregate of one
// always had: the header (with the seal extension and tag on a tenant
// link), a two-byte record length, the frame. "ring": the link's first
// frame; "sync": a lone frame after a burst the link has flushed, built in
// a batch that carried others before it.
func TestLoneFrameKeepsItsLength(t *testing.T) {
	for _, leg := range []string{"sync", "ring"} {
		for _, tenant := range []uint32{0, 7} {
			t.Run(fmt.Sprintf("%s_tenant%d", leg, tenant), func(t *testing.T) {
				n := dropNode(t, NodeConfig{})
				if tenant != 0 {
					if err := n.AddTenant(tenant, bytes.Repeat([]byte{0x4e}, 32)); err != nil {
						t.Fatal(err)
					}
				}
				src, err := n.AttachEndpointTenant("src", ethernet.LocalMAC(1), 1500, tenant)
				if err != nil {
					t.Fatal(err)
				}
				tap := newWireTap(t, "udp")
				if err := n.AddLinkTenant("wire", tap.addr, "udp", tenant); err != nil {
					t.Fatal(err)
				}
				dst := ethernet.LocalMAC(9)
				if err := n.AddRoute(core.Route{Tenant: tenant, DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
					Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
					t.Fatal(err)
				}
				f := testFrame(src.MAC(), dst)
				f.Payload = make([]byte, 64)
				if leg == "sync" {
					for i := 0; i < 8; i++ {
						if err := src.Send(f); err != nil {
							t.Fatal(err)
						}
					}
					waitIdle(t, n.topo.Load().links["wire"])
					for quiet := false; !quiet; { // the burst's datagrams
						select {
						case <-tap.ch:
						case <-time.After(20 * time.Millisecond):
							quiet = true
						}
					}
				}
				if err := src.Send(f); err != nil {
					t.Fatal(err)
				}
				want := bridge.EncapHeaderLen + 2 + f.Len()
				if tenant != 0 {
					want += bridge.EncapSealLen + bridge.SealOverhead
				}
				select {
				case d := <-tap.ch:
					h, _, err := bridge.ParseEncap(d)
					if err != nil || len(d) != want || !h.Aggregate || !h.Whole() || h.Frames() != 1 {
						t.Fatalf("a lone 64 B frame left as %d B, header %+v, err %v; want one %d B train of one", len(d), h, err, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("nothing reached the wire")
				}
				select {
				case <-tap.ch:
					t.Fatal("a lone frame left as more than one datagram")
				case <-time.After(20 * time.Millisecond):
				}
			})
		}
	}
}

// TestTransmitAccounting is the accounting differential: the same
// frames over {UDP, TCP, fault conduit}, from one sender or from four at
// once, each Send waiting out the link's flush ("sync") or not
// ("batched"), charge the link exactly the bytes its peer read and no
// send_errors — and, each datagram's header set aside, the same bytes on
// every run: the frames' records, however they shared trains; with the
// peer gone, every datagram the node made lands in send_errors and none in
// bytes_sent, and tx_error counts exactly the frames not confirmed, while
// every Send returns nil. One datagram, one counter, one ledger entry per
// lost frame.
func TestTransmitAccounting(t *testing.T) {
	const frames = 4
	transports := []struct {
		name, proto string
		fault       bool
		size        int // frame payload: longer than one of the transport's datagrams
	}{
		{name: "udp", proto: "udp", size: 4000},
		{name: "tcp", proto: "tcp", size: 40000},
		{name: "fault_conduit", proto: "udp", fault: true, size: 4000},
	}
	// run sends the frames down a fresh link, senders goroutines at once,
	// and reports the link's counters, the bytes its peer read and how many
	// datagrams the node made.
	run := func(t *testing.T, paced bool, proto string, fault, peerGone bool, size, senders int) (sent, errs, wire, made uint64) {
		n := dropNode(t, NodeConfig{})
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
		lk := n.topo.Load().links["wire"]
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < frames; i++ {
					f := testFrame(src.MAC(), dst)
					f.Payload = make([]byte, size)
					if err := src.Send(f); err != nil {
						t.Errorf("Send returned %v: a transport's refusal is the ledger's, not the caller's", err)
					}
					for paced && !lk.idle() {
						time.Sleep(20 * time.Microsecond)
					}
				}
			}()
		}
		wg.Wait()
		// Every datagram is made once the link is idle; a fault conduit's
		// deliveries may still be on their way to the wire.
		total := uint64(senders * frames)
		waitIdle(t, lk)
		made = n.metrics.txDatagramFrames.Count()
		if !peerGone {
			for i := uint64(0); i < made; i++ {
				select {
				case d := <-tap.ch:
					wire += uint64(len(d))
				case <-time.After(5 * time.Second):
					t.Fatalf("the peer read %d of %d datagrams", i, made)
				}
			}
		}
		settle(func() bool { return lk.bytesSent.Load() >= wire && (!peerGone || lk.sendErrors.Load() >= made) })
		// A frame is confirmed or on tx_error, never both (a fault conduit
		// cannot refuse: its deliveries may come later).
		refusing := peerGone && !fault
		switch sent, e := n.EncapSent.Load(), n.ledger.Count(dropTxError); {
		case !refusing && (sent != total || e != 0):
			t.Fatalf("encap_sent %d and %d tx_error drops for %d frames on a link that takes everything", sent, e, total)
		case refusing && (sent != 0 || e != total):
			t.Fatalf("peer gone: encap_sent %d and %d tx_error drops for %d frames", sent, e, total)
		}
		return lk.bytesSent.Load(), lk.sendErrors.Load(), wire, made
	}
	for _, tr := range transports {
		for _, pace := range []string{"sync", "batched"} {
			paced := pace == "sync"
			t.Run(tr.name+"_"+pace, func(t *testing.T) {
				record := uint64(bridge.RecordLen(&ethernet.Frame{Payload: make([]byte, tr.size)}))
				for _, senders := range []int{1, 4} {
					sent, errs, wire, made := run(t, paced, tr.proto, tr.fault, false, tr.size, senders)
					if errs != 0 || sent != wire {
						t.Fatalf("%d senders, healthy link: bytes_sent=%d send_errors=%d, peer read %d bytes", senders, sent, errs, wire)
					}
					if records, want := sent-made*bridge.EncapHeaderLen, uint64(senders*frames)*record; records != want {
						t.Fatalf("%d senders: bytes_sent %d in %d datagrams is %d B of records, want %d", senders, sent, made, records, want)
					}
					if sent, errs, _, made = run(t, paced, tr.proto, tr.fault, true, tr.size, senders); sent != 0 || errs != made {
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
