package overlay

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
)

// TestRxBatchParity pins that the batched receive path is semantically
// invisible: the same frame stream (mixed sizes, including frames that
// fragment across datagrams) delivered to a recvmmsg-batched node and a
// portable single-read node (portableRx selects singleReader) arrives
// byte-identical and in order on both.
func TestRxBatchParity(t *testing.T) {
	recv := func(portable bool) []string {
		n, err := NewNodeWithConfig(fmt.Sprintf("rx-portable-%v", portable), "127.0.0.1:0",
			NodeConfig{portableRx: portable})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		ep, err := n.AttachEndpoint("nic0", ethernet.LocalMAC(1), ethernet.JumboMTU)
		if err != nil {
			t.Fatal(err)
		}
		sender, err := NewNode("tx", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer sender.Close()
		src, err := sender.AttachEndpoint("nic0", ethernet.LocalMAC(2), ethernet.JumboMTU)
		if err != nil {
			t.Fatal(err)
		}
		if err := sender.AddLink("to-rx", n.Addr(), "udp"); err != nil {
			t.Fatal(err)
		}
		sender.AddRoute(core.Route{DstMAC: ep.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: "to-rx"}})

		// One sender, sequential sends: per-sender order is guaranteed
		// end to end, so the received sequence must match exactly.
		sizes := []int{1, 63, 64, 1000, 1400, 4000, 9000, 2, 8999}
		var got []string
		for i, sz := range sizes {
			payload := make([]byte, sz)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			if err := src.Send(&ethernet.Frame{Dst: ep.MAC(), Src: src.MAC(),
				Type: ethernet.TypeTest, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			f, ok := ep.Recv(2 * time.Second)
			if !ok {
				t.Fatalf("portableRx=%v: frame %d (size %d) lost", portable, i, sz)
			}
			got = append(got, string(f.Payload))
		}
		return got
	}
	single := recv(true)
	batched := recv(false)
	if len(single) != len(batched) {
		t.Fatalf("stream lengths differ: %d vs %d", len(single), len(batched))
	}
	for i := range single {
		if single[i] != batched[i] {
			t.Fatalf("frame %d differs between single-read and batched receive", i)
		}
	}
}

// TestMmsgReaderShortBatch is the recvmmsg regression suite (skipped
// where the platform has no batch reader): a batch smaller than the
// ring returns immediately with exactly what was queued (recvmmsg must
// not block waiting to fill the vector), a parked reader wakes on the
// next single datagram (the EAGAIN park/retry loop, which is also the
// EINTR retry loop), and payloads plus sender addresses survive the
// sockaddr round trip intact.
func TestMmsgReaderShortBatch(t *testing.T) {
	rconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	r := newPlatformBatchReader(rconn, 8)
	if r == nil {
		t.Skip("no platform batch reader (recvmmsg) on this host")
	}
	sconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sconn.Close()
	dst := rconn.LocalAddr().(*net.UDPAddr)

	// Short batch: 3 datagrams queued, ring of 8 — one read returns all
	// three (loopback delivery is synchronous) without waiting for five
	// more.
	for i := 0; i < 3; i++ {
		if _, err := sconn.WriteToUDP([]byte{byte(i), 0xAA, byte(i)}, dst); err != nil {
			t.Fatal(err)
		}
	}
	into := make([]rxPacket, 8)
	deadline := time.Now().Add(2 * time.Second)
	want := sconn.LocalAddr().(*net.UDPAddr)
	got := 0
	for got < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/3 datagrams after 2s", got)
		}
		n, err := r.readBatch(into)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range into[:n] { // checked before the next read reuses the buffers
			if len(p.pkt) != 3 || p.pkt[0] != byte(got) || p.pkt[1] != 0xAA {
				t.Fatalf("datagram %d corrupted: %x", got, p.pkt)
			}
			if p.from == nil || p.from.Port != want.Port || !p.from.IP.Equal(want.IP) {
				t.Fatalf("datagram %d sender = %v, want %v", got, p.from, want)
			}
			got++
		}
	}

	// Parked read: the reader blocks on an empty socket (EAGAIN →
	// poller), then a single late datagram wakes it with a batch of one.
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := r.readBatch(into)
		done <- result{n, err}
	}()
	select {
	case res := <-done:
		t.Fatalf("readBatch returned (%d, %v) on an empty socket", res.n, res.err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := sconn.WriteToUDP([]byte("wake"), dst); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.err != nil || res.n != 1 || string(into[0].pkt) != "wake" {
			t.Fatalf("woken read = (%d, %v, %q)", res.n, res.err, into[0].pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked readBatch never woke on a late datagram")
	}

	// Close unblocks: a parked reader must return an error when the
	// socket is torn down (shutdown path), not hang.
	go func() {
		n, err := r.readBatch(into)
		done <- result{n, err}
	}()
	time.Sleep(20 * time.Millisecond)
	rconn.Close()
	select {
	case res := <-done:
		if res.err == nil {
			t.Fatalf("readBatch returned %d datagrams after close, want error", res.n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("readBatch hung across socket close")
	}
}

// TestSingleReaderContract pins the portable fallback's contract: one
// datagram per call, in order, borrowed until the next call, correct
// sender.
func TestSingleReaderContract(t *testing.T) {
	rconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	sconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sconn.Close()
	r := newBatchReader(rconn, true)
	if _, ok := r.(*singleReader); !ok {
		t.Fatalf("portable selected %T, want *singleReader", r)
	}
	dst := rconn.LocalAddr().(*net.UDPAddr)
	for i := 0; i < 2; i++ {
		if _, err := sconn.WriteToUDP([]byte{byte(0x40 + i)}, dst); err != nil {
			t.Fatal(err)
		}
	}
	into := make([]rxPacket, 4)
	n, err := r.readBatch(into)
	if err != nil || n != 1 {
		t.Fatalf("readBatch = (%d, %v), want (1, nil)", n, err)
	}
	first := into[0].pkt[0]
	if cap(into[0].pkt) != 1 {
		t.Fatalf("a 1-byte read has capacity %d: appending to it would run on into the reader's buffer", cap(into[0].pkt))
	}
	n, err = r.readBatch(into)
	if err != nil || n != 1 {
		t.Fatalf("second readBatch = (%d, %v)", n, err)
	}
	if first != 0x40 || into[0].pkt[0] != 0x41 {
		t.Fatalf("reads out of order: %x then %x", first, into[0].pkt)
	}
	if into[0].from.Port != sconn.LocalAddr().(*net.UDPAddr).Port {
		t.Fatalf("sender port = %d", into[0].from.Port)
	}
}

// TestMmsgReaderReusesSenderAddr pins the reader's per-datagram cost: a
// run of datagrams from one peer costs no allocation — the reads are
// handed out in the reader's own buffers, and the decoded sender address
// of the previous datagram is handed out again (it was a fresh
// *net.UDPAddr and net.IP per datagram once). A different peer still
// gets its own address.
func TestMmsgReaderReusesSenderAddr(t *testing.T) {
	rconn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer rconn.Close()
	rconn.SetReadBuffer(1 << 20)
	const batch = 8
	r := newPlatformBatchReader(rconn, batch)
	if r == nil {
		t.Skip("no platform batch reader (recvmmsg) on this host")
	}
	dst := rconn.LocalAddr().(*net.UDPAddr)
	peer := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := peer(), peer()
	const runs = 20
	sent := 0
	send := func(k int) {
		for ; k > 0; k, sent = k-1, sent+1 {
			if _, err := a.WriteToUDP([]byte{byte(sent)}, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	into := make([]rxPacket, batch)
	// Warm-up: the first datagram of the run decodes the address, and the
	// reader doubles its buffers on its way to a full batch.
	send(2 * batch)
	first, warm := (*net.UDPAddr)(nil), 0
	for n := 0; n != batch; warm += n {
		var err error
		if n, err = r.readBatch(into); err != nil || warm+n > 2*batch-1 {
			t.Fatalf("readBatch = (%d, %v) after %d datagrams: the reader never grew to a full batch", n, err, warm)
		}
		if first == nil {
			first = into[0].from
		}
	}
	send((runs+1)*batch - (sent - warm)) // +1 for AllocsPerRun's own warm-up call
	read := func() {
		if n, err := r.readBatch(into); err != nil || n != batch {
			t.Fatalf("readBatch = (%d, %v), want a full batch of queued datagrams", n, err)
		}
	}
	if allocs := testing.AllocsPerRun(runs, read); allocs != 0 {
		t.Fatalf("readBatch of %d datagrams from one peer: %.1f allocations, want 0", batch, allocs)
	}
	if into[batch-1].from != first {
		t.Fatal("a repeat sender was handed a fresh address")
	}
	if _, err := b.WriteToUDP([]byte("other"), dst); err != nil {
		t.Fatal(err)
	}
	if n, err := r.readBatch(into); err != nil || n != 1 {
		t.Fatalf("readBatch = (%d, %v)", n, err)
	}
	if want := b.LocalAddr().(*net.UDPAddr); into[0].from == first || into[0].from.Port != want.Port {
		t.Fatalf("second peer's sender = %v, want %v", into[0].from, want)
	}
	if first.Port != a.LocalAddr().(*net.UDPAddr).Port {
		t.Fatalf("first peer's address changed under its holder: %v", first)
	}
}

// TestHeldFramesSurviveBufferReuse pins the borrowed-buffer contract from
// the guest's side: a delivered frame is the guest's to keep, whatever
// the readers do with their buffers afterwards. Every frame kind the
// receive path delivers — a lone 64 B frame, records of an aggregate, a
// 9 KB frame reassembled from a train's fragments — over UDP and TCP,
// plain and sealed, from a sync and a batched sender, is held while the
// same reader buffers take at least 64 further reads; then every payload
// byte must still be what was sent, and no held frame may reach past the
// datagram (or reassembled frame) it came from: a path that delivered a
// slice of a reader's buffer would fail one or the other.
func TestHeldFramesSurviveBufferReuse(t *testing.T) {
	for _, proto := range []string{"udp", "tcp"} {
		for _, tenant := range []uint32{0, 7} {
			// txbatch1 runs the synchronous leg, txbatch8 the TX ring.
			for _, txBatch := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s_tenant%d_txbatch%d", proto, tenant, txBatch), func(t *testing.T) {
					testHeldFrames(t, proto, tenant, txBatch)
				})
			}
		}
	}
}

func testHeldFrames(t *testing.T, proto string, tenant uint32, txBatch int) {
	tx, rx := dropNode(t, NodeConfig{Adaptive: AdaptiveConfig{Enabled: txBatch > 1}}), dropNode(t, NodeConfig{Dispatchers: 1})
	if tenant != 0 {
		key := bytes.Repeat([]byte{0x5a}, 32)
		for _, n := range []*Node{tx, rx} {
			if err := n.AddTenant(tenant, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	src, err := tx.AttachEndpointTenant("src", ethernet.LocalMAC(1), ethernet.JumboMTU, tenant)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := rx.AttachEndpointTenant("sink", ethernet.LocalMAC(2), ethernet.JumboMTU, tenant)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddLinkTenant("wire", rx.Addr(), proto, tenant); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRoute(core.Route{Tenant: tenant, DstMAC: sink.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
		t.Fatal(err)
	}
	// One burst: a lone small frame, five more handed over together (a
	// batched sender packs them into shared aggregates), and — every
	// fourth burst — a frame that fragments.
	var sent int
	burst := func(i int) []*ethernet.Frame {
		sizes := []int{64, 100, 100, 100, 100, 100}
		if i%4 == 0 {
			sizes = append(sizes, 9000)
		}
		frames := make([]*ethernet.Frame, len(sizes))
		for k, size := range sizes {
			p := make([]byte, size)
			for j := range p {
				p[j] = byte(sent*31 + j)
			}
			sent++
			frames[k] = &ethernet.Frame{Dst: sink.MAC(), Src: src.MAC(), Type: ethernet.TypeTest, Payload: p}
		}
		return frames
	}
	exchange := func(i int) (want, got []*ethernet.Frame) {
		want = burst(i)
		if err := src.Send(want[0]); err != nil {
			t.Fatal(err)
		}
		if err := src.SendBatch(want[1:]); err != nil {
			t.Fatal(err)
		}
		for range want {
			f, ok := sink.Recv(5 * time.Second)
			if !ok {
				t.Fatalf("burst %d: %d of %d frames delivered; drops: sender %v receiver %v",
					i, len(got), len(want), tx.ledger.Snapshot(), rx.ledger.Snapshot())
			}
			got = append(got, f)
		}
		return want, got
	}
	var want, held []*ethernet.Frame
	const heldBursts, furtherBursts = 24, 64
	for i := 0; i < heldBursts; i++ {
		w, g := exchange(i)
		want, held = append(want, w...), append(held, g...)
	}
	for i := 0; i < furtherBursts; i++ { // every one at least one further read, into the buffers the held frames came through
		exchange(i)
	}
	budget := maxDatagram
	if proto == "tcp" {
		budget = tcpMaxDatagram
	}
	for i, f := range held {
		if !bytes.Equal(f.Payload, want[i].Payload) {
			t.Fatalf("held frame %d (%d B) changed under its holder", i, len(want[i].Payload))
		}
		if limit := max(budget, len(f.Payload)); cap(f.Payload) > limit {
			t.Fatalf("held frame %d (%d B) pins %d B, more than the %d B datagram or frame it came from", i, len(f.Payload), cap(f.Payload), limit)
		}
	}
	// The batched sender must have put several records in some aggregate,
	// or that kind was never held.
	jumbo := uint64(7)
	if proto == "tcp" {
		jumbo = 1
	}
	const bursts = heldBursts + furtherBursts // six small frames each, a fragmenting one every fourth
	if alone, datagrams := 6*bursts+jumbo*bursts/4, rx.shards[0].Datagrams.Load(); txBatch > 1 && datagrams >= alone {
		t.Fatalf("%d datagrams carried the frames, %d if none had shared one: no multi-record aggregate was exercised", datagrams, alone)
	}
}
