// Drop-site audit regression (ISSUE 10 satellite): every place the
// datapath sheds a frame or datagram must report to the unified drop
// ledger — exactly one reason per loss, never zero, never two. Each
// subtest drives one site in isolation on a fresh node and pins the
// ledger count, and beside it the older family that has always counted
// the site, read by its public name (and label, where it has one) from
// the registry as a scrape would: those families are views of the
// ledger now, and this is what holds them to their old values. The
// churn test then runs the sites concurrently under -race and checks
// the global invariant: vnetp_drops_total sums exactly to the observed
// drops, reason by reason.
package overlay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/seal"
)

// dropNode builds a node for drop-site tests (anomaly watchdog off so
// alert sampling never races the assertions).
func dropNode(t testing.TB, cfg NodeConfig) *Node {
	t.Helper()
	cfg.Anomaly.Disabled = true
	n, err := NewNodeWithConfig("dropsite", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// waitCount polls until the ledger's count for reason reaches want.
func waitCount(t *testing.T, n *Node, reason string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for n.ledger.Count(reason) < want {
		if time.Now().After(deadline) {
			t.Fatalf("ledger %s = %d, want >= %d", reason, n.ledger.Count(reason), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// testFrame builds a small unicast frame.
func testFrame(src, dst ethernet.MAC) *ethernet.Frame {
	return &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeTest, Payload: []byte("drop-site")}
}

// sealedDatagram crafts one sealed encap datagram under a private
// keyring the receiving node does not share, so opening it must fail.
func sealedDatagram(t testing.TB, tenant uint32) []byte {
	t.Helper()
	kr := seal.NewKeyring(7)
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := kr.AddTenant(tenant, key); err != nil {
		t.Fatal(err)
	}
	sl, err := kr.Sealer(tenant)
	if err != nil {
		t.Fatal(err)
	}
	var enc bridge.Encapsulator
	pkt, err := enc.EncapsulateSealed(testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(2)), 1, maxDatagram, nil, sl)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt.Datagrams) != 1 {
		t.Fatalf("sealed frame fragmented into %d datagrams", len(pkt.Datagrams))
	}
	d := append([]byte(nil), pkt.Datagrams[0]...)
	pkt.Release()
	return d
}

// aggregateDatagram packs frames copies of testFrame(1 → dst) into one
// aggregate datagram, sealed when sl is non-nil.
func aggregateDatagram(t testing.TB, frames int, dst ethernet.MAC, sl bridge.LinkSealer) []byte {
	t.Helper()
	var agg bridge.Aggregator
	var ids atomic.Uint32
	agg.Reset(bridge.NewEncapTemplate(sl), sl, maxDatagram)
	for i := 0; i < frames; i++ {
		if fit, err := agg.Add(testFrame(ethernet.LocalMAC(1), dst), &ids); !fit || err != nil {
			t.Fatalf("frame %d: fit=%v err=%v", i, fit, err)
		}
	}
	d, n := agg.Close()
	if n != frames {
		t.Fatalf("aggregate closed with %d frames, want %d", n, frames)
	}
	return append([]byte(nil), d...)
}

// overrunLastRecord corrupts a plaintext aggregateDatagram: its header
// stays consistent (count, train length) but the last record's length
// prefix now runs one byte past the train.
func overrunLastRecord(d []byte) []byte {
	record := 2 + testFrame(ethernet.MAC{}, ethernet.MAC{}).Len()
	d[len(d)-record+1]++
	return d
}

// TestDropSiteAggregate: a datagram that stands for several frames
// charges all of them when the node sheds it — at the seal check, at the
// parser, at the record walk — on the ledger and so on the site's older
// family, so admitted = delivered + Σ ledger holds across aggregates; and
// a malformed or unauthentic aggregate delivers none of its frames. (One
// the kernel sheds at a worker's socket was never seen: it charges one,
// TestDropSiteDispatcherRing.)
func TestDropSiteAggregate(t *testing.T) {
	const frames = 5
	dst := ethernet.LocalMAC(2)
	node := func(t *testing.T, cfg NodeConfig) (*Node, *Endpoint) {
		cfg.Dispatchers = 1
		n := dropNode(t, cfg)
		sink, err := n.AttachEndpoint("sink", dst, 1500)
		if err != nil {
			t.Fatal(err)
		}
		return n, sink
	}
	delivered := func(t *testing.T, n *Node, sink *Endpoint, want int) {
		t.Helper()
		for i := 0; i < want; i++ {
			if _, ok := sink.Recv(5 * time.Second); !ok {
				t.Fatalf("frame %d of %d not delivered", i, want)
			}
		}
		time.Sleep(20 * time.Millisecond)
		if _, ok := sink.TryRecv(); ok || n.Delivered.Load() != uint64(want) {
			t.Fatalf("delivered = %d, want exactly %d", n.Delivered.Load(), want)
		}
	}

	t.Run("well_formed", func(t *testing.T) {
		n, sink := node(t, NodeConfig{})
		n.rxDatagram(n.shards[0], "10.0.0.5:5", aggregateDatagram(t, frames, dst, nil), time.Now())
		delivered(t, n, sink, frames)
		s := n.shards[0]
		if s.Datagrams.Load() != 1 || s.Frames.Load() != frames || n.EncapRecv.Load() != frames || n.ledger.Total() != 0 {
			t.Fatalf("datagrams=%d frames=%d encap_recv=%d drops=%d, want 1, %d, %d, 0",
				s.Datagrams.Load(), s.Frames.Load(), n.EncapRecv.Load(), n.ledger.Total(), frames, frames)
		}
	})

	t.Run("seal_reject", func(t *testing.T) {
		n, sink := node(t, NodeConfig{})
		key := bytes.Repeat([]byte{0x11}, 32)
		if err := n.AddTenant(7, key); err != nil {
			t.Fatal(err)
		}
		peer := seal.NewKeyring(42)
		peer.AddTenant(7, key)
		sl, err := peer.Sealer(7)
		if err != nil {
			t.Fatal(err)
		}
		d := aggregateDatagram(t, frames, dst, sl)
		d[len(d)-20] ^= 0x01 // one ciphertext bit: the whole train fails authentication
		n.rxDatagram(n.shards[0], "10.0.0.5:5", d, time.Now())
		legacy, sli := Metric(t, n, "vnetp_seal_reject_total", seal.RejectAuth), Metric(t, n, "vnetp_tenant_seal_rejects_total", "7")
		if got := n.ledger.Count(dropSealReject); got != frames || legacy != frames || sli != frames {
			t.Fatalf("seal_reject ledger=%d legacy=%d tenant=%d, want %d each", got, legacy, sli, frames)
		}
		delivered(t, n, sink, 0)
	})

	t.Run("bad_train", func(t *testing.T) {
		n, sink := node(t, NodeConfig{})
		n.rxDatagram(n.shards[0], "10.0.0.5:5", overrunLastRecord(aggregateDatagram(t, frames, dst, nil)), time.Now())
		if got, legacy := n.ledger.Count(dropBadPacket), Metric(t, n, "vnetp_bad_packets_total"); got != frames || legacy != frames {
			t.Fatalf("bad_packet ledger=%d legacy=%d, want %d", got, legacy, frames)
		}
		delivered(t, n, sink, 0) // not even the four intact records before the bad one
	})

	t.Run("bad_header", func(t *testing.T) {
		n, sink := node(t, NodeConfig{})
		d := aggregateDatagram(t, frames, dst, nil)
		binary.BigEndian.PutUint32(d[8:], 1<<30) // claims a billion frames
		n.rxDatagram(n.shards[0], "10.0.0.5:5", d, time.Now())
		// Charged what a datagram this long could hold at most, not the claim.
		most := uint64(len(d)-bridge.EncapHeaderLen) / uint64(2+ethernet.HeaderLen)
		if got, legacy := n.ledger.Count(dropBadPacket), Metric(t, n, "vnetp_bad_packets_total"); got != most || legacy != most {
			t.Fatalf("bad_packet ledger=%d legacy=%d, want %d", got, legacy, most)
		}
		delivered(t, n, sink, 0)
	})
}

func TestDropSiteNoRoute(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	ep, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(testFrame(ep.MAC(), ethernet.LocalMAC(99))); err == nil {
		t.Fatal("send to unrouted destination succeeded")
	}
	if got, legacy := n.ledger.Count(dropNoRoute), Metric(t, n, "vnetp_no_route_drops_total"); got != 1 || got != legacy {
		t.Fatalf("no_route ledger=%d legacy=%d, want 1", got, legacy)
	}
}

func TestDropSiteBadPacket(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1})
	n.rxDatagram(n.shards[0], "10.0.0.1:1", []byte{0xde, 0xad, 0xbe, 0xef}, time.Now())
	if got, legacy := n.ledger.Count(dropBadPacket), Metric(t, n, "vnetp_bad_packets_total"); got != 1 || legacy != 1 {
		t.Fatalf("bad_packet ledger=%d vnetp_bad_packets_total=%d, want 1 each", got, legacy)
	}
}

func TestDropSiteEndpointRing(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AttachEndpoint("dst", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	// Local delivery is synchronous, so overrunning the RX ring by 3 is
	// deterministic: nobody Recvs.
	const extra = 3
	for i := 0; i < epRingDepth+extra; i++ {
		src.Send(testFrame(src.MAC(), dst.MAC()))
	}
	if got, legacy := n.ledger.Count(dropEndpointRing), Metric(t, n, "vnetp_endpoint_ring_drops_total", "dst"); got != extra || got != legacy {
		t.Fatalf("endpoint_ring ledger=%d legacy=%d, want %d", got, legacy, extra)
	}
	// A shed frame is on the ledger and nowhere else: delivered counts
	// what the ring took, which is what a reader gets out of it.
	received := uint64(0)
	for _, ok := dst.TryRecv(); ok; _, ok = dst.TryRecv() {
		received++
	}
	if got := n.Delivered.Load(); got != received || received != epRingDepth {
		t.Fatalf("delivered = %d, received = %d, want %d each (sent %d, shed %d)", got, received, epRingDepth, epRingDepth+extra, extra)
	}
	if out := Metric(t, n, "vnetp_tenant_frames_out_total", "0"); out != n.Delivered.Load()+n.ledger.Total() {
		t.Fatalf("admitted %d != delivered %d + ledger %d", out, n.Delivered.Load(), n.ledger.Total())
	}
}

// TestDropSiteTrainSealReject: one corrupt datagram inside a train costs
// exactly that datagram — it alone lands on seal_reject, its neighbours
// are opened and reassembled — and the frame it leaves a hole in ages out
// onto reassembly_evict. Nothing else is dropped and nothing is delivered.
func TestDropSiteTrainSealReject(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1, evictInterval: 10 * time.Millisecond})
	key := bytes.Repeat([]byte{0x11}, 32)
	if err := n.AddTenant(7, key); err != nil {
		t.Fatal(err)
	}
	sink, err := n.AttachEndpointTenant("sink", ethernet.LocalMAC(2), ethernet.JumboMTU, 7)
	if err != nil {
		t.Fatal(err)
	}
	peer := seal.NewKeyring(42)
	peer.AddTenant(7, key)
	sl, err := peer.Sealer(7)
	if err != nil {
		t.Fatal(err)
	}
	f := testFrame(ethernet.LocalMAC(1), sink.MAC())
	f.Payload = make([]byte, 4000)
	var enc bridge.Encapsulator
	pkt, err := enc.EncapsulateSealed(f, 1, maxDatagram, nil, sl)
	if err != nil || len(pkt.Datagrams) != 3 {
		t.Fatalf("%d sealed fragments, err %v; want 3", len(pkt.Datagrams), err)
	}
	train := bytes.Join(pkt.Datagrams, nil)
	train[maxDatagram+100] ^= 0x01 // one ciphertext bit of the second datagram
	from := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 5), Port: 5}
	n.receive(n.shards[0], rxPacket{pkt: train, seg: maxDatagram, from: from}, time.Now(), &rxAttrib{})
	waitCount(t, n, dropReassemblyEvict, 1)
	if rejects, opened, total := n.ledger.Count(dropSealReject), n.metrics.sealOpened.Load(), n.ledger.Total(); rejects != 1 || opened != 2 || total != 2 {
		t.Fatalf("seal_reject=%d sealed_opened=%d drops_total=%d, want 1, 2, 2", rejects, opened, total)
	}
	if _, ok := sink.TryRecv(); ok || n.Delivered.Load() != 0 {
		t.Fatal("a frame with an unauthentic fragment was delivered")
	}
}

func TestDropSiteProbeRing(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	probe := marshalProbe("lk", 1)
	attr := &rxAttrib{}
	deadline := time.Now().Add(5 * time.Second)
	for n.ledger.Count(dropProbeRing) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("probe ring never overran")
		}
		for i := 0; i < 1024; i++ {
			n.receive(n.shards[0], rxPacket{pkt: probe, from: from}, time.Now(), attr)
		}
	}
}

func TestDropSiteSealReject(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1})
	n.rxDatagram(n.shards[0], "10.0.0.3:3", sealedDatagram(t, 42), time.Now())
	if got, legacy := n.ledger.Count(dropSealReject), Metric(t, n, "vnetp_seal_reject_total", seal.RejectUnknownTenant); got != 1 || legacy != 1 {
		t.Fatalf("seal_reject ledger=%d vnetp_seal_reject_total{unknown_tenant}=%d, want 1 each", got, legacy)
	}
	// The reject also lands in the claimed tenant's SLI.
	if got := Metric(t, n, "vnetp_tenant_seal_rejects_total", "42"); got != 1 {
		t.Fatalf("tenant 42 seal_rejects = %d, want 1", got)
	}
}

func TestDropSiteReassemblyEvict(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1, evictInterval: 10 * time.Millisecond})
	f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(2))
	f.Payload = make([]byte, 9000) // fragments into several datagrams
	ds, err := bridge.Encapsulate(f, 77, maxDatagram)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) < 2 {
		t.Fatalf("frame did not fragment: %d datagrams", len(ds))
	}
	n.rxDatagram(n.shards[0], "10.0.0.4:4", ds[0], time.Now()) // first fragment only: a partial that can never complete
	waitCount(t, n, dropReassemblyEvict, 1)
	if legacy := Metric(t, n, "vnetp_reassembly_evictions_total"); legacy != n.ledger.Count(dropReassemblyEvict) {
		t.Fatalf("reassembly_evict ledger=%d legacy=%d", n.ledger.Count(dropReassemblyEvict), legacy)
	}
}

func TestDropSiteCrossTenant(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachEndpointTenant("other", ethernet.LocalMAC(2), 1500, 7); err != nil {
		t.Fatal(err)
	}
	// A misinstalled tenant-0 route pointing at tenant 7's endpoint: the
	// delivery leg must refuse and count it, not leak the frame.
	dst := ethernet.LocalMAC(3)
	n.AddRoute(core.Route{
		DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "other"},
	})
	src.Send(testFrame(src.MAC(), dst))
	if got, legacy := n.ledger.Count(dropCrossTenant), Metric(t, n, "vnetp_cross_tenant_drops_total"); got != 1 || got != legacy {
		t.Fatalf("cross_tenant ledger=%d legacy=%d, want 1", got, legacy)
	}
}

func TestDropSiteTxRing(t *testing.T) {
	n := dropNode(t, RingConfig().WithTxRing(1))
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("wire", "127.0.0.1:9", "udp"); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.LocalMAC(9)
	n.AddRoute(core.Route{
		DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"},
	})
	n.mu.Lock()
	lk := n.topo.Load().links["wire"]
	n.mu.Unlock()
	// Reap the sender so nothing drains the one-slot ring; once it has
	// exited, every send past the first must overrun.
	lk.txw.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for n.ledger.Count(dropTxRing) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("tx ring never overran")
		}
		src.Send(testFrame(src.MAC(), dst))
		time.Sleep(time.Millisecond)
	}
	// The sender may exit holding one frame in its partial batch (counted
	// as tx_teardown); the per-link family spans both reasons.
	got := n.ledger.Count(dropTxRing) + n.ledger.Count(dropTxTeardown)
	if legacy := Metric(t, n, "vnetp_link_tx_ring_drops_total", "wire"); got != legacy {
		t.Fatalf("tx ledger=%d legacy=%d", got, legacy)
	}

	// Deleting the link takes its children off /metrics, and the sends that
	// still find it in a cached decision must not bring them back; the
	// node's LIST STATS total is the ledger's and never goes backwards.
	txRingDrops := func() (v uint64) {
		for _, line := range n.Stats() {
			fmt.Sscanf(line, "tx_ring_drops %d", &v)
		}
		return v
	}
	if before := txRingDrops(); before != got {
		t.Fatalf("LIST STATS tx_ring_drops = %d, want %d", before, got)
	}
	if err := n.DelLink("wire"); err != nil {
		t.Fatal(err)
	}
	n.enqueueTx(lk, testFrame(src.MAC(), dst), time.Now()) // a sender that resolved before the delete
	if after := txRingDrops(); after != got+1 {
		t.Fatalf("LIST STATS tx_ring_drops = %d after DEL LINK, want %d (monotone)", after, got+1)
	}
	if left := Metric(t, n, "vnetp_link_tx_ring_drops_total"); left != 0 {
		t.Fatalf("deleted link still has %d tx_ring_drops on /metrics", left)
	}
}

func TestDropSiteTxTeardown(t *testing.T) {
	n := dropNode(t, RingConfig().WithTxRing(64))
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink("wire", "127.0.0.1:9", "udp"); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.LocalMAC(9)
	n.AddRoute(core.Route{
		DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"},
	})
	n.mu.Lock()
	lk := n.topo.Load().links["wire"]
	n.mu.Unlock()
	// The self-clocked sender never sits on a frame by itself; an injected
	// stall holds it with the frame that woke it in hand and the second
	// still in the ring. Stopped there, it must not transmit: the frame in
	// hand lands on tx_teardown, exactly once.
	lk.txw.InjectStall(time.Hour)
	src.Send(testFrame(src.MAC(), dst))
	src.Send(testFrame(src.MAC(), dst))
	deadline := time.Now().Add(5 * time.Second)
	for len(lk.txq) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("sender never took a frame off the ring")
		}
		time.Sleep(time.Millisecond)
	}
	lk.txw.Stop()
	waitCount(t, n, dropTxTeardown, 1)
	time.Sleep(20 * time.Millisecond) // a second count would land by now
	if got, legacy := n.ledger.Count(dropTxTeardown), Metric(t, n, "vnetp_link_tx_ring_drops_total", "wire"); got != 1 || legacy != 1 {
		t.Fatalf("tx_teardown = %d, tx_ring_drops = %d, want 1 each", got, legacy)
	}
	if sent := n.EncapSent.Load(); sent != 0 || len(lk.txq) != 1 {
		t.Fatalf("stopped sender transmitted %d frames, ring holds %d; want 0 and 1", sent, len(lk.txq))
	}
}

// TestDropSiteTxError: frames a batched sender took off its ring whose
// datagrams the transport refused — the node's UDP socket gone, the TCP
// peer refusing the dial — land on tx_error, once each, whether they
// left alone (fragments) or shared an aggregate, and get no encap_sent
// and no TX latency sample. A frame that fragments is refused with its
// last datagram; an aggregate's frames share its fate.
func TestDropSiteTxError(t *testing.T) {
	for _, proto := range []string{"udp", "tcp"} {
		for _, tc := range []struct {
			name           string
			frames, size   int
			udpDgs, tcpDgs uint64
		}{
			{name: "plain", frames: 2, size: 40000, udpDgs: 2 * 29, tcpDgs: 2 * 2},
			{name: "aggregate", frames: 5, size: 64, udpDgs: 1, tcpDgs: 1},
		} {
			t.Run(proto+"_"+tc.name, func(t *testing.T) {
				n := dropNode(t, RingConfig())
				if err := n.AddLink("wire", "127.0.0.1:1", proto); err != nil {
					t.Fatal(err)
				}
				lk := n.topo.Load().links["wire"]
				wantDgs := tc.tcpDgs
				if proto == "udp" {
					n.conn.Close() // every write on it fails from here on
					wantDgs = tc.udpDgs
				}
				batch := make([]txFrame, tc.frames)
				for i := range batch {
					f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(9))
					f.Payload = make([]byte, tc.size)
					batch[i] = txFrame{f: f, at: time.Now()}
				}
				n.sendTxBatch(lk, batch, &txScratch{})
				if got, total := n.ledger.Count(dropTxError), n.ledger.Total(); got != uint64(tc.frames) || total != got {
					t.Fatalf("tx_error = %d, ledger total = %d, want %d each", got, total, tc.frames)
				}
				if drops := n.slis.get(0).drops.Load(); drops != uint64(tc.frames) {
					t.Fatalf("tenant drop SLI = %d, want %d", drops, tc.frames)
				}
				if sent, samples := n.EncapSent.Load(), n.metrics.txLatency.Count(); sent != 0 || samples != 0 {
					t.Fatalf("encap_sent = %d, tx latency samples = %d for refused frames", sent, samples)
				}
				if errs, bytes := lk.sendErrors.Load(), lk.bytesSent.Load(); errs != wantDgs || bytes != 0 {
					t.Fatalf("send_errors = %d, bytes_sent = %d, want %d datagrams refused and nothing sent", errs, bytes, wantDgs)
				}
			})
		}
	}
	// A write error mid-batch: the stream took the first two datagrams
	// (tcpaccount_test.go scripts the same failure), so the frames they
	// completed count as sent and only the third is refused.
	t.Run("tcp_partial", func(t *testing.T) {
		n := dropNode(t, RingConfig())
		if err := n.AddLink("wire", "127.0.0.1:1", "tcp"); err != nil {
			t.Fatal(err)
		}
		lk := n.topo.Load().links["wire"]
		c, _ := newScriptTCP(2)
		lk.tcp.Store(c)
		batch := make([]txFrame, 3)
		for i := range batch {
			f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(9))
			f.Payload, f.Tag = make([]byte, 3000), uint64(i+1) // tagged: a datagram of its own
			batch[i] = txFrame{f: f, at: time.Now()}
		}
		n.sendTxBatch(lk, batch, &txScratch{})
		if sent, lost, samples := n.EncapSent.Load(), n.ledger.Count(dropTxError), n.metrics.txLatency.Count(); sent != 2 || lost != 1 || samples != 2 {
			t.Fatalf("encap_sent = %d, tx_error = %d, tx latency samples = %d; want 2, 1, 2", sent, lost, samples)
		}
		if errs := lk.sendErrors.Load(); errs != 1 || lk.bytesSent.Load() == 0 {
			t.Fatalf("send_errors = %d, bytes_sent = %d, want 1 refused and two datagrams' bytes", errs, lk.bytesSent.Load())
		}
	})
}

// TestDropLedgerChurn runs the drop sites concurrently (meant for
// -race) and then checks the audit invariant: the ledger total sums
// exactly to its per-reason counts, and every reason agrees with the
// older family its sites have always been counted in, read by name from
// the registry — each loss counted once, under exactly one reason. The
// node runs the batched leg, and half the
// receive-side churn arrives as aggregate datagrams, whose drops charge
// several frames at a time.
func TestDropLedgerChurn(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 2, Adaptive: AdaptiveConfig{Enabled: true}, txRing: 1, evictInterval: 20 * time.Millisecond})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AttachEndpointTenant("other", ethernet.LocalMAC(3), 1500, 7); err != nil {
		t.Fatal(err)
	}
	crossDst := ethernet.LocalMAC(4)
	n.AddRoute(core.Route{
		DstMAC: crossDst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "other"},
	})
	if err := n.AddLink("wire", "127.0.0.1:9", "udp"); err != nil {
		t.Fatal(err)
	}
	linkDst := ethernet.LocalMAC(5)
	n.AddRoute(core.Route{
		DstMAC: linkDst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"},
	})
	n.mu.Lock()
	lk := n.topo.Load().links["wire"]
	n.mu.Unlock()
	lk.txw.Stop() // every TX past the one-slot ring fill must drop

	sealed := sealedDatagram(t, 42)
	aggregate := aggregateDatagram(t, 3, sink.MAC(), nil)
	badTrain := overrunLastRecord(aggregateDatagram(t, 3, sink.MAC(), nil))
	sealedAggregate := func() []byte {
		kr := seal.NewKeyring(9)
		kr.AddTenant(42, bytes.Repeat([]byte{0x42}, 32))
		sl, err := kr.Sealer(42)
		if err != nil {
			t.Fatal(err)
		}
		return aggregateDatagram(t, 3, sink.MAC(), sl) // tenant 42 is unknown here
	}()
	partial := func() []byte {
		f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(2))
		f.Payload = make([]byte, 9000)
		ds, err := bridge.Encapsulate(f, 123, maxDatagram)
		if err != nil {
			t.Fatal(err)
		}
		return ds[0]
	}()

	const iters = 400
	var wg sync.WaitGroup
	churn := func(body func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body(i)
			}
		}()
	}
	churn(func(i int) { src.Send(testFrame(src.MAC(), ethernet.LocalMAC(200))) }) // no_route
	churn(func(i int) { src.Send(testFrame(src.MAC(), sink.MAC())) })             // endpoint_ring once full
	churn(func(i int) { src.Send(testFrame(src.MAC(), crossDst)) })               // cross_tenant
	churn(func(i int) { src.Send(testFrame(src.MAC(), linkDst)) })                // tx_ring
	// Several goroutines finish datagrams on each shard at once, as a
	// worker and the TCP readers hashed to its shard do.
	rx := func(sender string, d []byte) { n.rxDatagram(n.shardFor(sender), sender, d, time.Now()) }
	churn(func(i int) { rx(fmt.Sprintf("10.1.0.%d:1", i%4), []byte{1, 2, 3}) })
	churn(func(i int) { rx(fmt.Sprintf("10.5.0.%d:1", i%4), aggregate) }) // endpoint_ring ×3 once full
	churn(func(i int) { rx(fmt.Sprintf("10.2.0.%d:1", i%4), sealed) })
	churn(func(i int) { rx(fmt.Sprintf("10.6.0.%d:1", i%4), sealedAggregate) }) // seal_reject ×3
	churn(func(i int) { rx(fmt.Sprintf("10.4.0.%d:1", i%4), []byte{4, 5, 6}) })
	churn(func(i int) { rx(fmt.Sprintf("10.7.0.%d:1", i%4), badTrain) }) // bad_packet ×3
	churn(func(i int) {
		if i%50 == 0 {
			rx(fmt.Sprintf("10.3.0.%d:1", i), partial) // distinct senders: partials pile up for the evictor
		}
	})
	wg.Wait()

	// Quiesce: wait until the total stops moving across two samples, so
	// in-flight datagrams and the evict sweep have all landed.
	var prev uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := n.ledger.Total()
		time.Sleep(100 * time.Millisecond)
		if n.ledger.Total() == cur && cur == prev && cur > 0 {
			break
		}
		prev = cur
		if time.Now().After(deadline) {
			t.Fatal("ledger never quiesced")
		}
	}

	var sum uint64
	for _, r := range n.ledger.Reasons() {
		sum += n.ledger.Count(r)
	}
	if total := n.ledger.Total(); total != sum {
		t.Fatalf("ledger total %d != per-reason sum %d", total, sum)
	}

	checks := []struct {
		reason string
		legacy uint64
	}{
		{dropNoRoute, Metric(t, n, "vnetp_no_route_drops_total")},
		{dropBadPacket, Metric(t, n, "vnetp_bad_packets_total")},
		{dropCrossTenant, Metric(t, n, "vnetp_cross_tenant_drops_total")},
		{dropSealReject, Metric(t, n, "vnetp_seal_reject_total", seal.RejectUnknownTenant)},
		{dropSealReject, Metric(t, n, "vnetp_tenant_seal_rejects_total", "42")},
		{dropReassemblyEvict, Metric(t, n, "vnetp_reassembly_evictions_total")},
		{dropDispatcherRing, Metric(t, n, "vnetp_dispatcher_drops_total", "0") + Metric(t, n, "vnetp_dispatcher_drops_total", "1")},
		{dropEndpointRing, Metric(t, n, "vnetp_endpoint_ring_drops_total", "sink")},
	}
	for _, c := range checks {
		if got := n.ledger.Count(c.reason); got != c.legacy {
			t.Errorf("%s: ledger=%d legacy=%d", c.reason, got, c.legacy)
		}
	}
	// The per-link TX family spans both ring overrun and teardown loss.
	if got, legacy := n.ledger.Count(dropTxRing)+n.ledger.Count(dropTxTeardown), Metric(t, n, "vnetp_link_tx_ring_drops_total", "wire"); got != legacy {
		t.Errorf("tx drops: ledger=%d legacy=%d", got, legacy)
	}
	if drops := Metric(t, n, "vnetp_tenant_drops_total"); drops != n.ledger.Total() {
		t.Errorf("tenant drop SLIs sum to %d, ledger total %d", drops, n.ledger.Total())
	}
	for _, r := range []string{dropNoRoute, dropBadPacket, dropCrossTenant, dropSealReject, dropEndpointRing, dropTxRing} {
		if n.ledger.Count(r) == 0 {
			t.Errorf("churn never exercised %s", r)
		}
	}
}
