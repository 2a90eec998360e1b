//go:build linux && (amd64 || arm64)

// Trains on the wire (ISSUE 20): a fragmented frame leaves as UDP_SEGMENT
// messages and arrives as UDP_GRO reads, and nothing a peer, a counter or
// the ledger can observe tells the two apart from plain per-datagram
// messages. These tests drive the real sockets, with the sendmmsg seam
// (udpTx.sys) recording or refusing messages where a test needs to.
package overlay

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
)

// sentMsg is one message the seam saw: how many datagrams it carried,
// their total bytes, the UDP_SEGMENT size it asked for (0: none), and
// copies of the datagrams.
type sentMsg struct {
	segs, bytes, gso int
	dgs              [][]byte
}

// recordSends wraps a node's sendmmsg seam: every message handed to the
// kernel is recorded, then refuse (when non-nil) may answer for the
// kernel with an errno for the call's first message.
func recordSends(n *Node, refuse func(first sentMsg) syscall.Errno) func() []sentMsg {
	var mu sync.Mutex
	var seen []sentMsg
	describe := func(m *mmsghdr) sentMsg {
		s := sentMsg{segs: int(m.hdr.Iovlen)}
		for _, iov := range unsafe.Slice(m.hdr.Iov, int(m.hdr.Iovlen)) {
			s.bytes += int(iov.Len)
			s.dgs = append(s.dgs, bytes.Clone(unsafe.Slice(iov.Base, int(iov.Len))))
		}
		if m.hdr.Controllen > 0 {
			s.gso = int(binary.NativeEndian.Uint16((*segCmsg)(unsafe.Pointer(m.hdr.Control)).val[:]))
		}
		return s
	}
	n.tx.sys = func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
		if refuse != nil {
			if errno := refuse(describe(&msgs[0])); errno != 0 {
				return 0, errno
			}
		}
		took, errno := sendmmsg(fd, msgs)
		mu.Lock()
		for i := range msgs[:took] {
			seen = append(seen, describe(&msgs[i]))
		}
		mu.Unlock()
		return took, errno
	}
	return func() []sentMsg {
		mu.Lock()
		defer mu.Unlock()
		return append([]sentMsg(nil), seen...)
	}
}

// offloadGauge reads vnetp_link_tx_offload{link}.
func offloadGauge(t *testing.T, n *Node, link string) float64 {
	t.Helper()
	for _, fam := range n.metrics.reg.Gather() {
		if fam.Name != "vnetp_link_tx_offload" {
			continue
		}
		for _, s := range fam.Samples {
			if len(s.LabelValues) == 1 && s.LabelValues[0] == link {
				return s.Value
			}
		}
	}
	t.Fatalf("no vnetp_link_tx_offload sample for link %q", link)
	return -1
}

// waitGRO returns once the node's reader has asked its socket for
// trains (it does so as it starts, off the construction path).
func waitGRO(t *testing.T, n *Node) {
	t.Helper()
	rc, err := n.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		on := 0
		rc.Control(func(fd uintptr) { on, _ = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO) })
		if on == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Skip("UDP_GRO not accepted by this kernel")
		}
	}
}

// trainPair is a sender and a one-dispatcher receiver joined by "wire"
// (and "back", so the receiver attributes bytes_recv), with one endpoint
// each, in tenant (sealed when non-zero).
func trainPair(t *testing.T, txCfg NodeConfig, tenant uint32) (tx, rx *Node, src, sink *Endpoint) {
	t.Helper()
	tx, rx = dropNode(t, txCfg), dropNode(t, NodeConfig{dispatchers: 1})
	waitGRO(t, rx)
	if tenant != 0 {
		key := bytes.Repeat([]byte{0x5a}, 32)
		for _, n := range []*Node{tx, rx} {
			if err := n.AddTenant(tenant, key); err != nil {
				t.Fatal(err)
			}
		}
	}
	var err error
	if src, err = tx.AttachEndpointTenant("src", ethernet.LocalMAC(1), ethernet.MaxMTU, tenant); err != nil {
		t.Fatal(err)
	}
	if sink, err = rx.AttachEndpointTenant("sink", ethernet.LocalMAC(2), ethernet.MaxMTU, tenant); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddLinkTenant("wire", rx.Addr(), "udp", tenant); err != nil {
		t.Fatal(err)
	}
	if err := rx.AddLinkTenant("back", tx.Addr(), "udp", tenant); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRoute(core.Route{Tenant: tenant, DstMAC: sink.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
		t.Fatal(err)
	}
	return tx, rx, src, sink
}

// recvAll collects want frames from sink as a sorted multiset of payloads.
func recvAll(t *testing.T, sink *Endpoint, want int, tx, rx *Node) []string {
	t.Helper()
	got := make([]string, 0, want)
	for len(got) < want {
		f, ok := sink.Recv(5 * time.Second)
		if !ok {
			t.Fatalf("%d of %d frames delivered; drops: sender %v receiver %v",
				len(got), want, tx.ledger.Snapshot(), rx.ledger.Snapshot())
		}
		got = append(got, string(f.Payload))
	}
	sort.Strings(got)
	return got
}

// TestTrainsEqualPlainMessages is the offload differential: the same
// seeded traffic — frames that fit one datagram, two, seven and
// forty-nine; plain and sealed; each frame a flush of its own ("sync":
// every Send waits out its flush) or all of them one batch ("batched") —
// sent as trains and, through the test hook, with every train held to one
// datagram, leaves the receiving node in the same state: the delivered
// multiset, every LIST STATS line (datagram, frame, seal and flow-cache
// counters, the ledger's total and each reason), and the bytes both
// links charged.
func TestTrainsEqualPlainMessages(t *testing.T) {
	sizes := []int{64, 1486, 8900, ethernet.MaxMTU}
	type outcome struct {
		delivered            []string
		stats                []string
		ledger               map[string]uint64
		bytesSent, bytesRecv uint64
	}
	for _, tenant := range []uint32{0, 7} {
		for _, leg := range []string{"sync", "batched"} {
			run := func(t *testing.T, plain bool) (outcome, uint64) {
				tx, rx, src, sink := trainPair(t, NodeConfig{}, tenant)
				tx.tx.plain = plain
				rng := rand.New(rand.NewSource(20))
				frames := make([]*ethernet.Frame, 24)
				for i := range frames {
					p := make([]byte, sizes[rng.Intn(len(sizes))])
					rng.Read(p)
					frames[i] = &ethernet.Frame{Dst: sink.MAC(), Src: src.MAC(), Type: ethernet.TypeTest, Payload: p}
				}
				lk := tx.topo.Load().links["wire"]
				if leg == "sync" {
					for _, f := range frames {
						if err := src.Send(f); err != nil {
							t.Fatal(err)
						}
						waitIdle(t, lk)
					}
				} else {
					// One batch, handed over whole: which frames share an
					// aggregate must not depend on when the sender woke.
					for _, f := range frames {
						if err := src.admit(f); err != nil {
							t.Fatal(err)
						}
					}
					tx.flushFrames(t, lk, frames...)
				}
				o := outcome{delivered: recvAll(t, sink, len(frames), tx, rx), ledger: map[string]uint64{}}
				// The last counter a delivery touches trails the ring push.
				settle(func() bool { return rx.Delivered.Load() == uint64(len(frames)) })
				o.stats = rx.Stats()
				for _, r := range dropReasons {
					o.ledger[r] = rx.ledger.Count(r)
				}
				o.bytesSent = tx.topo.Load().links["wire"].bytesSent.Load()
				o.bytesRecv = rx.topo.Load().links["back"].bytesRecv.Load()
				if g := offloadGauge(t, tx, "wire"); g != 1 {
					t.Fatalf("plain=%v: vnetp_link_tx_offload = %v, want 1 (the hook holds trains to one datagram; nothing was refused)", plain, g)
				}
				return o, rx.metrics.rxGROTrains.Load()
			}
			t.Run(fmt.Sprintf("tenant%d_%s", tenant, leg), func(t *testing.T) {
				trains, groReads := run(t, false)
				plain, plainReads := run(t, true)
				if groReads == 0 || plainReads != 0 {
					t.Fatalf("reads that were trains: %d with offload, %d without; want some and none", groReads, plainReads)
				}
				if trains.bytesSent == 0 || trains.bytesSent != trains.bytesRecv {
					t.Fatalf("bytes_sent %d, bytes_recv %d", trains.bytesSent, trains.bytesRecv)
				}
				if !reflect.DeepEqual(trains, plain) {
					for i := range trains.stats {
						if trains.stats[i] != plain.stats[i] {
							t.Errorf("LIST STATS: %q as trains, %q as plain messages", trains.stats[i], plain.stats[i])
						}
					}
					t.Fatalf("trains and plain messages left the receiver in different states:\nledger %v vs %v\nbytes sent/recv %d/%d vs %d/%d\ndelivered equal: %v",
						trains.ledger, plain.ledger, trains.bytesSent, trains.bytesRecv, plain.bytesSent, plain.bytesRecv,
						reflect.DeepEqual(trains.delivered, plain.delivered))
				}
			})
		}
	}
}

// TestMaxMTUFrameLeavesAsTrains: the largest frame a sealed link carries
// is 49 fragments and 68 KB — more than one UDP_SEGMENT message may hold —
// so it leaves as at least two, each within the kernel's limits, and
// arrives whole.
func TestMaxMTUFrameLeavesAsTrains(t *testing.T) {
	tx, rx, src, sink := trainPair(t, NodeConfig{}, 7)
	sent := recordSends(tx, nil)
	f := &ethernet.Frame{Dst: sink.MAC(), Src: src.MAC(), Type: ethernet.TypeTest, Payload: bytes.Repeat([]byte{0xc3}, ethernet.MaxMTU)}
	if err := src.Send(f); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, sink, 1, tx, rx); got[0] != string(f.Payload) {
		t.Fatal("the frame arrived changed")
	}
	waitIdle(t, tx.topo.Load().links["wire"]) // the seam records a message once the kernel returns
	msgs, segs := sent(), 0
	for _, m := range msgs {
		if m.segs > maxTrainSegs || m.bytes > maxTrainBytes {
			t.Fatalf("a message of %d datagrams, %d bytes: over the UDP_SEGMENT limits (%d, %d)", m.segs, m.bytes, maxTrainSegs, maxTrainBytes)
		}
		segs += m.segs
	}
	if len(msgs) < 2 || segs != 49 {
		t.Fatalf("%d messages carrying %d datagrams: %v; want at least 2 carrying 49", len(msgs), segs, msgs)
	}
}

// checkOneTrain fails unless msg is one UDP_SEGMENT message of the link's
// budget: every datagram that size but the last, which is no longer.
func checkOneTrain(t *testing.T, what string, msg sentMsg) {
	t.Helper()
	if msg.segs < 2 || msg.gso != maxDatagram {
		t.Fatalf("%s: a message of %d datagrams with UDP_SEGMENT %d, want a train cut at %d", what, msg.segs, msg.gso, maxDatagram)
	}
	for i, d := range msg.dgs {
		if last := i == len(msg.dgs)-1; len(d) != maxDatagram && !(last && len(d) < maxDatagram) {
			t.Fatalf("%s: datagram %d of %d is %d B; every one but the last must be %d", what, i, msg.segs, len(d), maxDatagram)
		}
	}
}

// recvInOrder receives want frames and fails unless each payload starts
// with its index.
func recvInOrder(t *testing.T, sink *Endpoint, want int, tx, rx *Node) {
	t.Helper()
	for i := 0; i < want; i++ {
		f, ok := sink.Recv(5 * time.Second)
		if !ok {
			t.Fatalf("%d of %d frames delivered; drops: sender %v receiver %v", i, want, tx.ledger.Snapshot(), rx.ledger.Snapshot())
		}
		if got := binary.BigEndian.Uint32(f.Payload); got != uint32(i) {
			t.Fatalf("frame %d arrived where %d was due", got, i)
		}
	}
}

// TestRingBatchLeavesAsOneMessage: a batch of thirty IMIX frames on a UDP
// link — plain and sealed — is one record train, handed to the
// kernel as one sendmmsg message with UDP_SEGMENT: its datagrams are all
// the link's budget but the last. The receiver reads it as a train and
// delivers every frame, in order.
func TestRingBatchLeavesAsOneMessage(t *testing.T) {
	for _, tenant := range []uint32{0, 7} {
		t.Run(fmt.Sprintf("tenant%d", tenant), func(t *testing.T) {
			tx, rx, src, sink := trainPair(t, NodeConfig{}, tenant)
			sent := recordSends(tx, nil)
			frames := imixFrames(src.MAC(), sink.MAC(), 30)
			tx.flushFrames(t, tx.topo.Load().links["wire"], frames...)
			recvInOrder(t, sink, len(frames), tx, rx)
			msgs := sent()
			if len(msgs) != 1 {
				t.Fatalf("a 30-frame batch left as %d messages, want one", len(msgs))
			}
			checkOneTrain(t, "the batch", msgs[0])
			if g := rx.metrics.rxGROTrains.Load(); g != 1 {
				t.Fatalf("the receiver read %d trains, want the one", g)
			}
		})
	}
}

// TestTracedFrameSplitsBatch: a traced frame travels alone, so one in the
// middle of a batch splits it into train, lone frame, train — on the
// wire in add order, each train under an id of its own — and every frame
// arrives in order, the traced one with its trace ID.
func TestTracedFrameSplitsBatch(t *testing.T) {
	tx, rx, src, sink := trainPair(t, NodeConfig{}, 0)
	sent := recordSends(tx, nil)
	frames := imixFrames(src.MAC(), sink.MAC(), 11)
	tx.tracer.AddFlow(ethernet.LocalMAC(3))
	frames[5].Src = ethernet.LocalMAC(3)
	for _, f := range frames {
		if err := src.admit(f); err != nil {
			t.Fatal(err)
		}
	}
	if frames[5].Tag == 0 {
		t.Fatal("the traced flow's frame was not selected")
	}
	tx.flushFrames(t, tx.topo.Load().links["wire"], frames...)
	recvInOrder(t, sink, len(frames), tx, rx)
	var shape []string // per datagram: "train <id> <count>" or "traced"
	for _, m := range sent() {
		for _, d := range m.dgs {
			h, _, err := bridge.ParseEncap(d)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case h.Aggregate && !h.HasTrace:
				if s := fmt.Sprintf("train %d %d", h.ID, h.Frames()); len(shape) == 0 || shape[len(shape)-1] != s {
					shape = append(shape, s)
				}
			case h.HasTrace && h.Trace.ID == frames[5].Tag:
				shape = append(shape, "traced")
			default:
				t.Fatalf("unexpected datagram %+v", h)
			}
		}
	}
	if len(shape) != 3 || shape[1] != "traced" || shape[0] == shape[2] ||
		!strings.HasSuffix(shape[0], " 5") || !strings.HasSuffix(shape[2], " 5") {
		t.Fatalf("the batch left as %q, want a train of 5, the traced frame, a train of 5", shape)
	}
}

// testTransmitAccountingTrains (run by TestTransmitAccounting): a train
// is confirmed whole or not at all. Two frames leave in one batch as two
// trains; the kernel takes the first and refuses the second with an error
// that is no offload refusal: bytes_sent is exactly the first frame's
// datagrams — what the peer read — and send_errors exactly the second's.
func testTransmitAccountingTrains(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	tap := newWireTap(t, "udp")
	if err := n.AddLink("wire", tap.addr, "udp"); err != nil {
		t.Fatal(err)
	}
	lk := n.topo.Load().links["wire"]
	calls := 0
	n.tx.sys = func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
		if calls++; calls > 1 {
			return 0, syscall.ENOBUFS
		}
		return sendmmsg(fd, msgs[:1]) // the kernel takes the first train only
	}
	var dgs [][]byte
	var perFrame int
	for i := 0; i < 2; i++ {
		f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(9))
		f.Payload = make([]byte, 4000)
		pkt, err := n.encapFrame(lk, f, maxDatagram)
		if err != nil {
			t.Fatal(err)
		}
		defer pkt.Release()
		perFrame = len(pkt.Datagrams)
		dgs = append(dgs, pkt.Datagrams...)
	}
	confirmed, err := n.transmit(lk, lk.transport.Load(), dgs)
	if confirmed != perFrame || !errors.Is(err, syscall.ENOBUFS) {
		t.Fatalf("transmit confirmed %d datagrams, err %v; want %d (the accepted train, whole) and ENOBUFS", confirmed, err, perFrame)
	}
	var wire uint64
	for i := 0; i < perFrame; i++ {
		select {
		case d := <-tap.ch:
			wire += uint64(len(d))
		case <-time.After(5 * time.Second):
			t.Fatalf("the peer read %d of the accepted train's %d datagrams", i, perFrame)
		}
	}
	if sent, errs := lk.bytesSent.Load(), lk.sendErrors.Load(); sent != wire || sent != sumLens(dgs[:perFrame]) || errs != uint64(perFrame) {
		t.Fatalf("bytes_sent=%d send_errors=%d; the peer read %d bytes, the refused train had %d datagrams", sent, errs, wire, perFrame)
	}
	if offloadGauge(t, n, "wire") != 1 {
		t.Fatal("ENOBUFS is no offload refusal, yet the link fell back")
	}
}

// TestOffloadRefusalFallsBack: the kernel (here: the seam) refuses the
// link's first train the way a device without checksum offload does. The
// refused train and everything behind it leave as plain messages inside
// the same transmit call — nothing lost, nothing charged to send_errors —
// the gauge reads 0 from then on and no later send tries a cmsg, until a
// transport swap publishes a fresh snapshot, which is tried again.
func TestOffloadRefusalFallsBack(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EIO, syscall.EINVAL, syscall.ENOPROTOOPT} {
		t.Run(errno.Error(), func(t *testing.T) {
			tx, rx, src, sink := trainPair(t, NodeConfig{}, 0)
			refuse := true
			sent := recordSends(tx, func(first sentMsg) syscall.Errno {
				if refuse && first.segs > 1 {
					return errno
				}
				return 0
			})
			send := func() {
				t.Helper()
				f := &ethernet.Frame{Dst: sink.MAC(), Src: src.MAC(), Type: ethernet.TypeTest, Payload: bytes.Repeat([]byte{7}, 8900)}
				if err := src.Send(f); err != nil {
					t.Fatalf("Send: %v", err)
				}
				recvAll(t, sink, 1, tx, rx)
				waitIdle(t, tx.topo.Load().links["wire"])
			}
			if offloadGauge(t, tx, "wire") != 1 {
				t.Fatal("a fresh UDP link does not start with offload armed")
			}
			send()
			send()
			for _, m := range sent() {
				if m.segs != 1 {
					t.Fatalf("a %d-datagram message was sent on a link that refuses them: %v", m.segs, sent())
				}
			}
			lk := tx.topo.Load().links["wire"]
			if got := len(sent()); got != 14 || lk.sendErrors.Load() != 0 || rx.ledger.Total() != 0 {
				t.Fatalf("%d plain messages for two 7-fragment frames, send_errors=%d, receiver drops=%d; want 14, 0, 0",
					got, lk.sendErrors.Load(), rx.ledger.Total())
			}
			if offloadGauge(t, tx, "wire") != 0 {
				t.Fatal("vnetp_link_tx_offload still 1 after a refusal")
			}
			// A fault conduit installed and cleared: two transport swaps, the
			// second publishing a plain UDP snapshot nobody has refused yet.
			refuse = false
			tx.SetLinkFault("wire", faultnet.New(faultnet.Config{}))
			if offloadGauge(t, tx, "wire") != 0 {
				t.Fatal("vnetp_link_tx_offload reads 1 through a fault conduit, which takes datagrams one by one")
			}
			tx.SetLinkFault("wire", nil)
			if offloadGauge(t, tx, "wire") != 1 {
				t.Fatal("a fresh transport snapshot did not re-arm offload")
			}
			before := len(sent())
			send()
			if after := sent()[before:]; len(after) != 1 || after[0].segs != 7 {
				t.Fatalf("after the re-arm an 8900 B frame left as %v, want one 7-datagram message", after)
			}
		})
	}
}

// TestTrainProbeTailIsSteered: GRO coalesces a peer's datagrams by flow,
// so a probe can arrive as the short tail of a train of data. The read is
// classified per datagram: the probe is answered by the worker that read it,
// the data datagrams reach the shard, and the frame they start completes
// when its last fragment follows.
func TestTrainProbeTailIsSteered(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 1})
	waitGRO(t, n)
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), ethernet.JumboMTU)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	f := testFrame(ethernet.LocalMAC(1), sink.MAC())
	f.Payload = bytes.Repeat([]byte{0x42}, 3000)
	frags, err := bridge.Encapsulate(f, 5, maxDatagram)
	if err != nil || len(frags) != 3 {
		t.Fatalf("%d fragments, err %v; want 3", len(frags), err)
	}
	// One UDP_SEGMENT send from a bare socket: two full fragments, then a
	// probe as the short tail.
	var tx udpTx
	tx.init(peer)
	m := newTxMsgs(&tx)
	m.build([][]byte{frags[0], frags[1], marshalProbe("lk", 77)}, sockaddrFor(peer, n.conn.LocalAddr().(*net.UDPAddr)), true)
	if m.n != 1 {
		t.Fatalf("two equal datagrams and a shorter one built %d messages, want one train", m.n)
	}
	if err := tx.rc.Write(m.write); err != nil || m.errno != 0 {
		t.Fatalf("UDP_SEGMENT send: %v / %v", err, m.errno)
	}
	reply := make([]byte, 2048)
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	sz, _, err := peer.ReadFromUDP(reply)
	if err != nil {
		t.Fatalf("the probe in the train's tail went unanswered: %v", err)
	}
	if h, _, err := bridge.ParseEncap(reply[:sz]); err != nil || !h.ProbeReply {
		t.Fatalf("reply = %+v, %v; want a probe reply", h, err)
	}
	if _, err := peer.WriteToUDP(frags[2], n.conn.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	got, ok := sink.Recv(5 * time.Second)
	if !ok || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("the frame whose first fragments shared a train with a probe: delivered=%v", ok)
	}
	if d, trains, drops := n.shards[0].Datagrams.Load(), n.metrics.rxGROTrains.Load(), n.ledger.Total(); d != 3 || trains != 1 || drops != 0 {
		t.Fatalf("shard datagrams=%d gro trains=%d drops=%d, want 3 (the probe is not one), 1, 0", d, trains, drops)
	}
	// The read loop takes its batch-size sample once the batch is handed on.
	h := n.metrics.rxBatchSize
	settle(func() bool { return h.Count() >= 2 })
	if h.Sum() != 4 || h.Count() != 2 {
		t.Fatalf("vnetp_rx_batch_size saw %v datagrams in %d wakeups, want 4 in 2: it counts datagrams, not reads", h.Sum(), h.Count())
	}
}

// TestSendSyncTrainAllocs pins the transmit path's steady state: a
// 7-fragment frame encapsulated from the link's template — sealed, on a
// tenant link — encoded by its Send and sent as one train by the link's
// sender allocates nothing: the RawConn, the raw sockaddr, the iovec,
// msghdr and cmsg scratch and the write callback all exist before the
// send, the combiner's batches are reused, the sender's wakeup is a
// buffered channel, and the GCM nonce is read out of the wire header.
func TestSendSyncTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds at random under -race")
	}
	for _, tc := range []struct {
		name   string
		tenant uint32
	}{{"plain", 0}, {"sealed", 7}} {
		t.Run(tc.name, func(t *testing.T) {
			n := dropNode(t, NodeConfig{})
			// Nobody reads the peer socket: the kernel sheds what its buffer
			// cannot hold and the sends still succeed.
			peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			if tc.tenant != 0 {
				if err := n.AddTenant(tc.tenant, bytes.Repeat([]byte{0x5a}, 32)); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.AddLinkTenant("wire", peer.LocalAddr().String(), "udp", tc.tenant); err != nil {
				t.Fatal(err)
			}
			lk := n.topo.Load().links["wire"]
			f := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(9))
			f.Payload = make([]byte, 8900)
			sent := recordSends(n, nil)
			n.sendRing(lk, f, false)
			waitIdle(t, lk)
			if msgs := sent(); len(msgs) != 1 || msgs[0].segs != 7 {
				t.Fatalf("an 8900 B frame left as %v, want one 7-datagram message", msgs)
			}
			n.tx.sys = sendmmsg // the recorder allocates; the path under test must not
			if allocs := testing.AllocsPerRun(200, func() {
				n.sendRing(lk, f, false)
				for !lk.idle() {
					runtime.Gosched()
				}
			}); allocs != 0 {
				t.Fatalf("a 7-fragment frame sent through the link's sender: %.0f allocations per send, want 0", allocs)
			}
			if sent, drops := n.EncapSent.Load(), n.ledger.Total(); sent != 202 || drops != 0 {
				t.Fatalf("encap_sent = %d, drops = %d; want 202 and 0", sent, drops)
			}
		})
	}
}

// BenchmarkTransmitTrain is the wire cost the end-to-end benchmark's
// bare-WriteToUDP probes cannot show: one 9026 B frame's seven datagrams
// sent and read back over a loopback socket pair, as seven plain
// messages in one sendmmsg (seven reads) and as one UDP_SEGMENT message
// (one UDP_GRO read). Same message builder, same reader; only the
// offload differs.
func BenchmarkTransmitTrain(b *testing.B) {
	for _, mode := range []struct {
		name    string
		offload bool
	}{{"sendmmsg", false}, {"gso", true}} {
		b.Run(mode.name, func(b *testing.B) {
			listen := func() *net.UDPConn {
				c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { c.Close() })
				return c
			}
			rconn, sconn := listen(), listen()
			r := newPlatformBatchReader(rconn, rxBatch)
			var tx udpTx
			tx.init(sconn)
			m := newTxMsgs(&tx)
			sa := sockaddrFor(sconn, rconn.LocalAddr().(*net.UDPAddr))
			var dgs [][]byte
			for left := 9026; left > 0; left -= maxDatagram {
				dgs = append(dgs, make([]byte, min(left, maxDatagram)))
			}
			into := make([]rxPacket, rxBatch)
			b.SetBytes(9026)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.build(dgs, sa, mode.offload)
				if err := tx.rc.Write(m.write); err != nil || m.errno != 0 {
					b.Fatalf("send: %v / %v", err, m.errno)
				}
				for got := 0; got < 9026; {
					cnt, err := r.readBatch(into)
					if err != nil {
						b.Fatal(err)
					}
					for _, p := range into[:cnt] {
						got += len(p.pkt)
					}
				}
			}
		})
	}
}

// TestDropSiteDispatcherRing: nothing queues between a worker's socket
// and the guest, so the queue in front of a worker is the socket's
// receive queue and dispatcher_ring counts what the kernel shed there —
// SO_RXQ_OVFL, reported on the next message to arrive behind the loss.
// The kernel counts messages: a shed aggregate is one, whatever it
// carried, and so is a shed train. The worker is held inside its first
// batch while a burst of lone frames, five-frame aggregates and
// three-fragment trains overruns a minimum-size receive buffer; once it
// runs again and a message sent behind all the loss has arrived, the
// ledger and the per-worker family both read messages sent − messages
// that arrived, nothing else was dropped, and the frames that went
// missing are exactly the shed messages' frames.
func TestDropSiteDispatcherRing(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 1})
	waitGRO(t, n)
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), ethernet.JumboMTU)
	if err != nil {
		t.Fatal(err)
	}
	n.conn.SetReadBuffer(1) // the kernel's minimum: a few messages deep
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	var tx udpTx
	tx.init(peer)
	m := newTxMsgs(&tx)
	sa := sockaddrFor(peer, n.conn.LocalAddr().(*net.UDPAddr))
	// Message i carries frames whose payloads start with i.
	frame := func(i, size int) *ethernet.Frame {
		f := testFrame(ethernet.LocalMAC(1), sink.MAC())
		f.Payload = make([]byte, size)
		binary.BigEndian.PutUint32(f.Payload, uint32(i))
		return f
	}
	const burst, aggFrames = 90, 5
	sizes := []int{1, aggFrames, 1} // frames per message, by kind: lone, aggregate, train
	kind := func(i int) int {
		if i >= burst { // what is sent behind the burst is lone frames
			return 0
		}
		return i % 3
	}
	send := func(i int) {
		t.Helper()
		var dgs [][]byte
		switch kind(i) {
		case 0:
			dgs, err = bridge.Encapsulate(frame(i, 64), uint32(i), maxDatagram)
		case 1:
			fs := make([]*ethernet.Frame, aggFrames)
			for k := range fs {
				fs[k] = frame(i, 64)
			}
			dgs = trainDatagrams(t, uint32(i), nil, fs...)
		case 2:
			dgs, err = bridge.Encapsulate(frame(i, 3000), uint32(i), maxDatagram)
		}
		if err != nil {
			t.Fatal(err)
		}
		m.build(dgs, sa, true)
		if m.n != 1 {
			t.Fatalf("message %d left as %d messages, want one", i, m.n)
		}
		if err := tx.rc.Write(m.write); err != nil || m.errno != 0 {
			t.Fatalf("send %d: %v / %v", i, err, m.errno)
		}
	}

	n.Runtime().Worker("dispatcher/0").InjectStall(300 * time.Millisecond) // well inside the watchdog's patience
	for i := 0; i < burst; i++ {
		send(i)
	}
	// The count of what was shed rides on the next message the socket
	// admits: keep sending until the last message sent is one that arrived.
	got := map[uint32]int{}
	last := burst - 1
	for deadline := time.Now().Add(10 * time.Second); got[uint32(last)] == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("no message arrived behind the burst; ledger %v", n.ledger.Snapshot())
		}
		last++
		send(last)
		for wait := time.Now().Add(100 * time.Millisecond); got[uint32(last)] == 0; {
			f, ok := sink.Recv(time.Until(wait))
			if !ok {
				break
			}
			got[binary.BigEndian.Uint32(f.Payload)]++
		}
	}
	var shed, lostFrames, frames uint64
	kinds := map[int]int{}
	for i := 0; i <= last; i++ {
		frames += uint64(sizes[kind(i)])
		switch got[uint32(i)] {
		case 0:
			shed++
			lostFrames += uint64(sizes[kind(i)])
			kinds[kind(i)]++
		case sizes[kind(i)]:
		default:
			t.Fatalf("message %d delivered %d of its %d frames: a message arrives whole or not at all", i, got[uint32(i)], sizes[kind(i)])
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("shed by kind %v of %d messages: the burst was meant to lose some of each", kinds, last+1)
	}
	ledger, legacy := n.ledger.Count(dropDispatcherRing), Metric(t, n, "vnetp_dispatcher_drops_total", "0")
	if ledger != shed || legacy != shed || n.ledger.Total() != shed {
		t.Fatalf("dispatcher_ring ledger=%d vnetp_dispatcher_drops_total{0}=%d drops_total=%d, want %d each: messages sent %d − arrived %d",
			ledger, legacy, n.ledger.Total(), shed, last+1, last+1-int(shed))
	}
	// admitted = delivered + Σ ledger, in frames, once a shed aggregate's
	// other frames — which no one saw — are allowed for.
	unseen := uint64(kinds[1]) * (aggFrames - 1)
	settle(func() bool { return n.Delivered.Load() == frames-lostFrames }) // the counter trails the ring push
	if delivered := n.Delivered.Load(); frames != delivered+n.ledger.Total()+unseen || lostFrames != ledger+unseen {
		t.Fatalf("frames sent %d, delivered %d, ledger %d, inside shed aggregates %d: unexplained %d",
			frames, delivered, n.ledger.Total(), unseen, int64(frames)-int64(delivered+n.ledger.Total()+unseen))
	}
	if rec := n.ledger.Tail(dropDispatcherRing); len(rec) == 0 || rec[0].Stage != "rx_socket" || rec[0].Scope != "0" {
		t.Fatalf("ledger tail = %+v, want worker 0's rx_socket records", rec)
	}
}

// TestReusePortWorkersKeepSenderOrder: four workers, four sockets, one
// port. Eight peers each send 200 sequenced frames — every fourth one in
// three fragments — ten in flight per peer; the kernel keeps a peer on
// one socket, so each peer's frames arrive in order although the workers
// run side by side; more than one worker carried traffic; and a probe
// from any peer is answered whichever socket it reached.
func TestReusePortWorkersKeepSenderOrder(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 4})
	if n.Dispatchers() != 4 {
		t.Fatalf("Dispatchers() = %d, want 4", n.Dispatchers())
	}
	dst := n.conn.LocalAddr().(*net.UDPAddr)
	for i, s := range n.shards {
		if a := s.conn.LocalAddr().(*net.UDPAddr); a.Port != dst.Port || !a.IP.Equal(dst.IP) {
			t.Fatalf("worker %d reads %v, the node's address is %v", i, a, n.Addr())
		}
	}
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), ethernet.JumboMTU)
	if err != nil {
		t.Fatal(err)
	}
	const peers, perPeer, window = 8, 200, 10
	conns := make([]*net.UDPConn, peers)
	for p := range conns {
		if conns[p], err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
			t.Fatal(err)
		}
		defer conns[p].Close()
	}
	next := make([]uint32, peers) // the sequence number each peer's next frame must carry
	for base := 0; base < perPeer; base += window {
		for seq := base; seq < base+window; seq++ {
			for p, c := range conns {
				f := testFrame(ethernet.LocalMAC(uint32(10+p)), sink.MAC())
				f.Payload = make([]byte, 64)
				if seq%4 == 3 {
					f.Payload = make([]byte, 3000)
				}
				binary.BigEndian.PutUint32(f.Payload, uint32(p))
				binary.BigEndian.PutUint32(f.Payload[4:], uint32(seq))
				dgs, err := bridge.Encapsulate(f, uint32(seq), maxDatagram)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range dgs {
					if _, err := c.WriteToUDP(d, dst); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := 0; i < peers*window; i++ {
			f, ok := sink.Recv(5 * time.Second)
			if !ok {
				t.Fatalf("frame lost after %v in order; ledger %v", next, n.ledger.Snapshot())
			}
			p, seq := binary.BigEndian.Uint32(f.Payload), binary.BigEndian.Uint32(f.Payload[4:])
			if seq != next[p] {
				t.Fatalf("peer %d: frame %d arrived where %d was due", p, seq, next[p])
			}
			next[p]++
		}
	}
	busy := 0
	for i := range n.shards {
		if Metric(t, n, "vnetp_dispatcher_frames_total", fmt.Sprint(i)) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("%d of 4 workers carried the eight peers' frames, want at least 2", busy)
	}
	reply := make([]byte, 2048)
	for p, c := range conns {
		if _, err := c.WriteToUDP(marshalProbe("lk", uint64(p)), dst); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		sz, from, err := c.ReadFromUDP(reply)
		if err != nil {
			t.Fatalf("peer %d's probe went unanswered: %v", p, err)
		}
		if h, _, err := bridge.ParseEncap(reply[:sz]); err != nil || !h.ProbeReply || from.Port != dst.Port {
			t.Fatalf("peer %d: reply %+v from %v, err %v; want a probe reply from %v", p, h, from, err, dst)
		}
	}
	if drops := n.ledger.Total(); drops != 0 {
		t.Fatalf("drops = %d: %v", drops, n.ledger.Snapshot())
	}
}
