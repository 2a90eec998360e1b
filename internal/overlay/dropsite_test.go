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
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
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

// settle gives counters that trail the event a test waited for time to
// catch up; the assertion that follows reports what they read.
func settle(caughtUp func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !caughtUp() && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
	}
}

// idle reports whether lk's sender has flushed every frame Sends encoded
// and parked: nothing pending, the sender not awake. The counters a flush
// moves (encap_sent, bytes_sent, send_errors, the TX histograms) are
// final for those frames from then on.
func (lk *link) idle() bool {
	lk.comb.mu.Lock()
	defer lk.comb.mu.Unlock()
	return !lk.comb.busy && len(lk.comb.pending().frames) == 0
}

// waitIdle returns once lk is idle, and fails the test if it is not
// within 5 s.
func waitIdle(t testing.TB, lk *link) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !lk.idle(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("link %s never went idle", lk.id)
		}
	}
}

// waitSwept polls until the evict sweep has emptied every shard's
// reassembler, then gives the drop the sweep charges after it unlocks
// time to land.
func waitSwept(t *testing.T, n *Node) {
	t.Helper()
	pending := func() (p int) {
		for _, s := range n.shards {
			s.mu.Lock()
			p += s.reasm.Pending()
			s.mu.Unlock()
		}
		return p
	}
	for deadline := time.Now().Add(5 * time.Second); pending() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d partials never swept", pending())
		}
	}
	time.Sleep(20 * time.Millisecond)
}

// imixFrames makes count frames from src to dst in the 7:4:1 IMIX mix of
// 64, 576 and 1500 B payloads, each payload starting with its index.
func imixFrames(src, dst ethernet.MAC, count int) []*ethernet.Frame {
	sizes := []int{64, 576, 64, 1500, 64, 576, 64, 64, 576, 64, 576, 64}
	frames := make([]*ethernet.Frame, count)
	for i := range frames {
		p := make([]byte, sizes[i%len(sizes)])
		binary.BigEndian.PutUint32(p, uint32(i))
		frames[i] = &ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeTest, Payload: p}
	}
	return frames
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

// trainDatagrams packs frames into one record train and cuts it at the
// UDP budget, sealed when sl is non-nil, returning private copies of the
// datagrams.
func trainDatagrams(t testing.TB, id uint32, sl bridge.LinkSealer, frames ...*ethernet.Frame) [][]byte {
	t.Helper()
	var agg bridge.Aggregator
	for i, f := range frames {
		if err := agg.Add(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	var pkt bridge.EncapPacket
	pkt.CutTrain(&agg, id, maxDatagram, bridge.NewEncapTemplate(sl))
	if sl != nil {
		pkt.Seal(sl)
	}
	out := make([][]byte, len(pkt.Datagrams))
	for i, d := range pkt.Datagrams {
		out[i] = append([]byte(nil), d...)
	}
	return out
}

// aggregateDatagram packs frames copies of testFrame(1 → dst) into a train
// of one datagram, sealed when sl is non-nil.
func aggregateDatagram(t testing.TB, frames int, dst ethernet.MAC, sl bridge.LinkSealer) []byte {
	t.Helper()
	fs := make([]*ethernet.Frame, frames)
	for i := range fs {
		fs[i] = testFrame(ethernet.LocalMAC(1), dst)
	}
	dgs := trainDatagrams(t, 1, sl, fs...)
	if len(dgs) != 1 {
		t.Fatalf("%d frames made a train of %d datagrams, want 1", frames, len(dgs))
	}
	return dgs[0]
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
		cfg.dispatchers = 1
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
		n.datagram(n.shards[0], "10.0.0.5:5", nil, nil, aggregateDatagram(t, frames, dst, nil), n.mono())
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
		n.datagram(n.shards[0], "10.0.0.5:5", nil, nil, d, n.mono())
		legacy, sli := Metric(t, n, "vnetp_seal_reject_total", seal.RejectAuth), Metric(t, n, "vnetp_tenant_seal_rejects_total", "7")
		if got := n.ledger.Count(dropSealReject); got != frames || legacy != frames || sli != frames {
			t.Fatalf("seal_reject ledger=%d legacy=%d tenant=%d, want %d each", got, legacy, sli, frames)
		}
		delivered(t, n, sink, 0)
	})

	t.Run("bad_train", func(t *testing.T) {
		n, sink := node(t, NodeConfig{})
		n.datagram(n.shards[0], "10.0.0.5:5", nil, nil, overrunLastRecord(aggregateDatagram(t, frames, dst, nil)), n.mono())
		if got, legacy := n.ledger.Count(dropBadPacket), Metric(t, n, "vnetp_bad_packets_total"); got != frames || legacy != frames {
			t.Fatalf("bad_packet ledger=%d legacy=%d, want %d", got, legacy, frames)
		}
		delivered(t, n, sink, 0) // not even the four intact records before the bad one
	})

	t.Run("bad_header", func(t *testing.T) {
		n, sink := node(t, NodeConfig{})
		d := aggregateDatagram(t, frames, dst, nil)
		binary.BigEndian.PutUint32(d[8:], 1<<30) // claims sixteen thousand frames
		n.datagram(n.shards[0], "10.0.0.5:5", nil, nil, d, n.mono())
		// Charged what a train of the length it claims could hold at most,
		// not the claim.
		most := uint64(binary.BigEndian.Uint32(d[12:])) / uint64(2+ethernet.HeaderLen)
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
	n := dropNode(t, NodeConfig{dispatchers: 1})
	n.datagram(n.shards[0], "10.0.0.1:1", nil, nil, []byte{0xde, 0xad, 0xbe, 0xef}, n.mono())
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

// TestDropSiteTrainSealReject: one corrupt datagram inside a GRO read
// costs its frame once — it alone fails to open and charges the frame to
// seal_reject, its neighbours are opened and reassembled, and the partial
// they leave ages out without charging the frame again. Nothing else is
// dropped and nothing is delivered.
func TestDropSiteTrainSealReject(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 1, evictInterval: 10 * time.Millisecond})
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
	n.receive(n.shards[0], rxPacket{pkt: train, seg: maxDatagram, from: from}, n.mono(), &rxAttrib{})
	waitSwept(t, n)
	if rejects, opened, total := n.ledger.Count(dropSealReject), n.metrics.sealOpened.Load(), n.ledger.Total(); rejects != 1 || opened != 2 || total != 1 {
		t.Fatalf("seal_reject=%d sealed_opened=%d drops_total=%d, want 1, 2, 1", rejects, opened, total)
	}
	if _, ok := sink.TryRecv(); ok || n.Delivered.Load() != 0 {
		t.Fatal("a frame with an unauthentic fragment was delivered")
	}
}

// TestTrainSegmentFaults: a train is delivered whole or not at all, and
// its loss is charged once, in frames. A fault conduit on the link hits
// exactly one datagram of a TX ring batch's train. Lost, the receiver
// delivers none of the train's frames, and the evict sweep charges
// reassembly_evict exactly the train's frame count. Tampered on a sealed
// link, seal_reject is charged exactly the train's frame count, and the
// sweep charges nothing more. Either way admitted = delivered + Σ ledger
// over both nodes, the conduit counts the one datagram it hit, and the
// link carries the next batch whole.
func TestTrainSegmentFaults(t *testing.T) {
	cases := []struct {
		name   string
		tenant uint32
		reason string
		fault  func(seed int64) faultnet.Config
		hits   func(c *faultnet.Conduit) uint64
	}{
		{"lost_segment", 0, dropReassemblyEvict,
			func(seed int64) faultnet.Config { return faultnet.Config{Seed: seed, DropProb: 0.2} },
			func(c *faultnet.Conduit) uint64 { return c.Dropped.Load() }},
		{"tampered_segment", 7, dropSealReject,
			func(seed int64) faultnet.Config { return faultnet.Config{Seed: seed, CorruptProb: 0.2} },
			func(c *faultnet.Conduit) uint64 { return c.Corrupted.Load() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tx, rx := dropNode(t, NodeConfig{}), dropNode(t, NodeConfig{dispatchers: 1, evictInterval: 10 * time.Millisecond})
			if tc.tenant != 0 {
				for _, n := range []*Node{tx, rx} {
					if err := n.AddTenant(tc.tenant, bytes.Repeat([]byte{0x2d}, 32)); err != nil {
						t.Fatal(err)
					}
				}
			}
			src, err := tx.AttachEndpointTenant("src", ethernet.LocalMAC(1), 1500, tc.tenant)
			if err != nil {
				t.Fatal(err)
			}
			sink, err := rx.AttachEndpointTenant("sink", ethernet.LocalMAC(2), 1500, tc.tenant)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.AddLinkTenant("wire", rx.Addr(), "udp", tc.tenant); err != nil {
				t.Fatal(err)
			}
			if err := tx.AddRoute(core.Route{Tenant: tc.tenant, DstMAC: sink.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
				Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
				t.Fatal(err)
			}
			lk := tx.topo.Load().links["wire"]
			frames := imixFrames(src.MAC(), sink.MAC(), 24)
			send := func() { tx.flushFrames(t, lk, frames...) }
			records := 0
			for _, f := range frames {
				records += bridge.RecordLen(f)
			}
			chunk := maxDatagram - lk.tmpl.WireLen()
			if tc.tenant != 0 {
				chunk -= bridge.SealOverhead
			}
			segs := (records + chunk - 1) / chunk
			// A conduit seed whose fault hits exactly one of the train's
			// datagrams: each datagram draws once, so a dry run of as many
			// sends under the same seed finds it.
			var c *faultnet.Conduit
			for seed := int64(1); c == nil; seed++ {
				dry := faultnet.New(tc.fault(seed))
				for i := 0; i < segs; i++ {
					dry.Send([]byte{0}, func(any) {})
				}
				if tc.hits(dry) == 1 {
					c = faultnet.New(tc.fault(seed))
				}
			}
			if err := tx.SetLinkFault("wire", c); err != nil {
				t.Fatal(err)
			}
			send()
			arrived := uint64(segs)
			if tc.reason == dropReassemblyEvict {
				arrived--
			}
			for deadline := time.Now().Add(5 * time.Second); rx.shards[0].Datagrams.Load() < arrived; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of the %d datagrams that passed the conduit arrived", rx.shards[0].Datagrams.Load(), arrived)
				}
			}
			waitSwept(t, rx)
			admitted := uint64(len(frames))
			if hit := tc.hits(c); hit != 1 || segs < 3 {
				t.Fatalf("the conduit hit %d of the train's %d datagrams, want one of several", hit, segs)
			}
			if f, ok := sink.TryRecv(); ok || rx.Delivered.Load() != 0 {
				t.Fatalf("a frame of a train with a faulted datagram was delivered: %v", f)
			}
			if got, total := rx.ledger.Count(tc.reason), rx.ledger.Total(); got != admitted || total != admitted || tx.ledger.Total() != 0 {
				t.Fatalf("%s = %d, receiver drops %d, sender drops %d; want %d, %d, 0: admitted = delivered + Σ ledger",
					tc.reason, got, total, tx.ledger.Total(), admitted, admitted)
			}
			if evicted := rx.ledger.Count(dropReassemblyEvict); tc.reason == dropSealReject && evicted != 0 {
				t.Fatalf("reassembly_evict = %d after the seal reject charged the train", evicted)
			}
			tx.SetLinkFault("wire", nil)
			send()
			for range frames {
				if _, ok := sink.Recv(5 * time.Second); !ok {
					t.Fatalf("the next batch did not arrive whole; drops: %v", rx.ledger.Snapshot())
				}
			}
		})
	}
}

func TestDropSiteSealReject(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 1})
	n.datagram(n.shards[0], "10.0.0.3:3", nil, nil, sealedDatagram(t, 42), n.mono())
	if got, legacy := n.ledger.Count(dropSealReject), Metric(t, n, "vnetp_seal_reject_total", seal.RejectUnknownTenant); got != 1 || legacy != 1 {
		t.Fatalf("seal_reject ledger=%d vnetp_seal_reject_total{unknown_tenant}=%d, want 1 each", got, legacy)
	}
	// The reject also lands in the claimed tenant's SLI.
	if got := Metric(t, n, "vnetp_tenant_seal_rejects_total", "42"); got != 1 {
		t.Fatalf("tenant 42 seal_rejects = %d, want 1", got)
	}
}

func TestDropSiteReassemblyEvict(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 1, evictInterval: 10 * time.Millisecond})
	f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(2))
	f.Payload = make([]byte, 9000) // fragments into several datagrams
	ds, err := bridge.Encapsulate(f, 77, maxDatagram)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) < 2 {
		t.Fatalf("frame did not fragment: %d datagrams", len(ds))
	}
	n.datagram(n.shards[0], "10.0.0.4:4", nil, nil, ds[0], n.mono()) // first fragment only: a partial that can never complete
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
	n := dropNode(t, NodeConfig{}.WithTxRing(1))
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
	// Reap the sender so nothing flushes the one-frame batch; once it has
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
	// The per-link family spans tx_ring and tx_teardown.
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
	if after := txRingDrops(); after != got+1 {
		t.Fatalf("LIST STATS tx_ring_drops = %d after DEL LINK, want %d (the frame left pending)", after, got+1)
	}
	n.sendRing(lk, testFrame(src.MAC(), dst), true) // a sender that resolved before the delete
	if after := txRingDrops(); after != got+2 {
		t.Fatalf("LIST STATS tx_ring_drops = %d after a send to the deleted link, want %d (monotone)", after, got+2)
	}
	if left := Metric(t, n, "vnetp_link_tx_ring_drops_total"); left != 0 {
		t.Fatalf("deleted link still has %d tx_ring_drops on /metrics", left)
	}
}

func TestDropSiteTxTeardown(t *testing.T) {
	n := dropNode(t, NodeConfig{}.WithTxRing(64))
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
	// The sender never sits on a frame by itself; an injected stall holds
	// it on its way to the flush the first frame woke it for, with both
	// frames pending. Stopped there, it must not transmit: both frames land
	// on tx_teardown, exactly once, and so does a frame sent to the link
	// afterwards.
	lk.txw.InjectStall(time.Hour)
	src.Send(testFrame(src.MAC(), dst))
	src.Send(testFrame(src.MAC(), dst))
	if d := lk.comb.depth(); d != 2 {
		t.Fatalf("%d frames pending, want 2", d)
	}
	n.stopSender(lk)
	src.Send(testFrame(src.MAC(), dst))
	time.Sleep(20 * time.Millisecond) // a second count would land by now
	if got, legacy := n.ledger.Count(dropTxTeardown), Metric(t, n, "vnetp_link_tx_ring_drops_total", "wire"); got != 3 || legacy != 3 {
		t.Fatalf("tx_teardown = %d, tx_ring_drops = %d, want 3 each", got, legacy)
	}
	if sent, d := n.EncapSent.Load(), lk.comb.depth(); sent != 0 || d != 0 {
		t.Fatalf("stopped sender transmitted %d frames, %d still pending; want 0 and 0", sent, d)
	}
}

// TestDropSiteTxError: frames a link's sender flushed whose datagrams
// the transport refused — the node's UDP socket gone, the TCP
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
				n := dropNode(t, NodeConfig{})
				if err := n.AddLink("wire", "127.0.0.1:1", proto); err != nil {
					t.Fatal(err)
				}
				lk := n.topo.Load().links["wire"]
				wantDgs := tc.tcpDgs
				if proto == "udp" {
					n.conn.Close() // every write on it fails from here on
					wantDgs = tc.udpDgs
				}
				batch := make([]*ethernet.Frame, tc.frames)
				for i := range batch {
					batch[i] = testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(9))
					batch[i].Payload = make([]byte, tc.size)
				}
				n.flushFrames(t, lk, batch...)
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
		n := dropNode(t, NodeConfig{})
		if err := n.AddLink("wire", "127.0.0.1:1", "tcp"); err != nil {
			t.Fatal(err)
		}
		lk := n.topo.Load().links["wire"]
		c, _ := newScriptTCP(2)
		lk.tcp.Store(c)
		batch := make([]*ethernet.Frame, 3)
		for i := range batch {
			batch[i] = testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(9))
			batch[i].Payload, batch[i].Tag = make([]byte, 3000), uint64(i+1) // tagged: a datagram of its own
		}
		n.flushFrames(t, lk, batch...)
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
// the registry — each loss counted once, under exactly one reason. Half
// the receive-side churn arrives as aggregate datagrams, whose drops
// charge several frames at a time.
func TestDropLedgerChurn(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 2, txRing: 1, evictInterval: 20 * time.Millisecond})
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
	rx := func(sender string, d []byte) { n.datagram(n.shardFor(sender), sender, nil, nil, d, n.mono()) }
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
