package overlay

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
)

// histBuckets reads one child of a histogram family from the node's
// registry: its sample count and how many samples each bucket holds.
func histBuckets(t testing.TB, n *Node, family string, labelValues ...string) (count uint64, buckets []uint64) {
	t.Helper()
	for _, f := range n.Telemetry().Gather() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			if !slices.Equal(s.LabelValues, labelValues) {
				continue
			}
			var below uint64
			for _, c := range s.Hist.Cumulative {
				buckets = append(buckets, c-below)
				below = c
			}
			return s.Hist.Count, buckets
		}
	}
	t.Fatalf("no child %v of histogram %s", labelValues, family)
	return 0, nil
}

// wantOneBucket fails unless the histogram child holds exactly want
// samples, all in one bucket: values taken by one clock reading.
func wantOneBucket(t testing.TB, n *Node, want uint64, family string, labelValues ...string) {
	t.Helper()
	count, buckets := histBuckets(t, n, family, labelValues...)
	if count != want || !slices.Contains(buckets, want) {
		t.Fatalf("%s%v: %d samples in buckets %v, want %d in one", family, labelValues, count, buckets, want)
	}
}

// trainOf packs frames frames of payload bytes fill, src → dst, into a
// plaintext train of one datagram.
func trainOf(t testing.TB, frames int, dst ethernet.MAC, fill byte) []byte {
	t.Helper()
	fs := make([]*ethernet.Frame, frames)
	for i := range fs {
		fs[i] = &ethernet.Frame{Dst: dst, Src: ethernet.LocalMAC(1), Type: ethernet.TypeTest,
			Payload: bytes.Repeat([]byte{fill}, 20)}
	}
	dgs := trainDatagrams(t, 1, nil, fs...)
	if len(dgs) != 1 {
		t.Fatalf("%d frames made a train of %d datagrams, want 1", frames, len(dgs))
	}
	return dgs[0]
}

// TestTrainAccountsOnce: a 16-frame train that arrives as one datagram is
// counted, timed and given headers once for all its frames — 16 frames on
// the worker's and the node's counters, 16 samples in one bucket of the
// node's and the tenant's RX latency histograms (one clock reading), and
// two allocations: the train's buffer and its header array.
func TestTrainAccountsOnce(t *testing.T) {
	const frames = 16
	n := dropNode(t, NodeConfig{dispatchers: 1})
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	s, d := n.shards[0], trainOf(t, frames, sink.MAC(), 0xa1)
	deliver := func() {
		n.datagram(s, "10.0.0.5:5", nil, nil, d, n.mono())
		for i := 0; i < frames; i++ {
			if _, ok := sink.TryRecv(); !ok {
				t.Fatalf("frame %d of the train not delivered", i)
			}
		}
	}
	deliver()
	if s.Frames.Load() != frames || n.EncapRecv.Load() != frames || n.ledger.Total() != 0 {
		t.Fatalf("frames=%d encap_recv=%d drops=%d, want %d, %d, 0", s.Frames.Load(), n.EncapRecv.Load(), n.ledger.Total(), frames, frames)
	}
	wantOneBucket(t, n, frames, "vnetp_rx_latency_seconds")
	wantOneBucket(t, n, frames, "vnetp_tenant_rx_latency_seconds", "0")
	if allocs := testing.AllocsPerRun(100, deliver); allocs > 2 {
		t.Fatalf("a %d-frame train allocates %.1f objects, want at most 2 (buffer and header array)", frames, allocs)
	}
}

// TestHeldTrainFrameSurvivesNextTrain: a frame the guest holds from one
// train is still intact after the next train, read into the same buffer,
// has been delivered — the guest, on a goroutine of its own, owns what
// Recv returned, header and payload.
func TestHeldTrainFrameSurvivesNextTrain(t *testing.T) {
	const frames = 16
	n := dropNode(t, NodeConfig{dispatchers: 1})
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	trainA, trainB := trainOf(t, frames, sink.MAC(), 0xaa), trainOf(t, frames, sink.MAC(), 0xbb)
	recv := func(fill byte) ([]*ethernet.Frame, error) {
		var got []*ethernet.Frame
		for i := 0; i < frames; i++ {
			f, ok := sink.Recv(5 * time.Second)
			if !ok || f.Dst != sink.MAC() || !bytes.Equal(f.Payload, bytes.Repeat([]byte{fill}, 20)) {
				return nil, fmt.Errorf("frame %d of train %#x: got %v, %v", i, fill, f, ok)
			}
			got = append(got, f)
		}
		return got, nil
	}
	heldA, doneB := make(chan []*ethernet.Frame, 1), make(chan error, 1)
	go func() {
		held, err := recv(0xaa)
		heldA <- held
		if err == nil {
			_, err = recv(0xbb)
		}
		for i, f := range held {
			if err == nil && (f.Dst != sink.MAC() || !bytes.Equal(f.Payload, bytes.Repeat([]byte{0xaa}, 20))) {
				err = fmt.Errorf("held frame %d of the first train changed: %v", i, f)
			}
		}
		doneB <- err
	}()
	buf := append([]byte(nil), trainA...)
	n.datagram(n.shards[0], "10.0.0.5:5", nil, nil, buf, n.mono())
	if <-heldA == nil {
		t.Fatal(<-doneB)
	}
	copy(buf, trainB) // the reader's buffer, reused for the next read
	n.datagram(n.shards[0], "10.0.0.5:5", nil, nil, buf, n.mono())
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}
}

// TestFlushSamplesLocalFrames: a flush of locally originated frames mixed
// with forwarded ones takes one TX latency sample per local frame sent and
// none for a forwarded one, all from one clock reading.
func TestFlushSamplesLocalFrames(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	tap := newWireTap(t, "udp")
	if err := n.AddLink("wire", tap.addr, "udp"); err != nil {
		t.Fatal(err)
	}
	lk := n.topo.Load().links["wire"]
	var s txScratch
	const frames, local = 10, 4
	for i := 0; i < frames; i++ {
		if err := n.add(lk, &s, testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(9)), i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	n.flush(lk, &s)
	if sent := n.EncapSent.Load(); sent != frames {
		t.Fatalf("encap_sent = %d, want %d", sent, frames)
	}
	wantOneBucket(t, n, local, "vnetp_tx_latency_seconds")
}

// TestLocalDeliveryOwnsItsFrame: every endpoint a frame is delivered to
// on its own node gets a frame nobody else holds. The sender of a local
// unicast or broadcast overwrites its frame once Send returns, and each
// receiver still reads what was sent, through a pointer of its own; a
// broadcast from the wire fanned out to three local endpoints gives each
// a frame of its own.
func TestLocalDeliveryOwnsItsFrame(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	eps := make([]*Endpoint, 3)
	for i := range eps {
		var err error
		if eps[i], err = n.AttachEndpoint(string(rune('a'+i))+"0", ethernet.LocalMAC(uint32(i+1)), 1500); err != nil {
			t.Fatal(err)
		}
		if err := n.AddRoute(core.Route{DstMAC: ethernet.Broadcast, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestInterface, ID: eps[i].Name()}}); err != nil {
			t.Fatal(err)
		}
	}
	a0, rest := eps[0], eps[1:]
	payload := []byte("owned by its receiver")
	sent := func(dst ethernet.MAC) *ethernet.Frame {
		return &ethernet.Frame{Dst: dst, Src: a0.MAC(), Type: ethernet.TypeTest, Payload: append([]byte(nil), payload...)}
	}
	// check receives one frame on each of to: each must be what was sent,
	// and none the sender's own (nil: a frame from the wire) or another's.
	check := func(what string, sender *ethernet.Frame, to []*Endpoint, dst ethernet.MAC) {
		t.Helper()
		seen := map[*ethernet.Frame]bool{sender: sender != nil}
		for _, ep := range to {
			got, ok := ep.Recv(5 * time.Second)
			if !ok {
				t.Fatalf("%s: %s received nothing", what, ep.Name())
			}
			if seen[got] {
				t.Fatalf("%s: %s received a frame someone else holds", what, ep.Name())
			}
			seen[got] = true
			if got.Dst != dst || got.Src != a0.MAC() || !bytes.Equal(got.Payload, payload) {
				t.Fatalf("%s: %s received %v %q, want what was sent", what, ep.Name(), got, got.Payload)
			}
		}
	}
	overwrite := func(f *ethernet.Frame) {
		f.Dst = ethernet.LocalMAC(0xee)
		for i := range f.Payload {
			f.Payload[i] = 0xee
		}
	}

	uni := sent(rest[0].MAC())
	if err := a0.Send(uni); err != nil {
		t.Fatal(err)
	}
	overwrite(uni)
	check("unicast", uni, rest[:1], rest[0].MAC())

	bc := sent(ethernet.Broadcast)
	if err := a0.Send(bc); err != nil {
		t.Fatal(err)
	}
	overwrite(bc)
	check("broadcast", bc, rest, ethernet.Broadcast)

	wire := sent(ethernet.Broadcast)
	if err := n.routeTenantAt(wire, nil, false, core.DefaultTenant); err != nil {
		t.Fatal(err)
	}
	check("wire broadcast", nil, eps, ethernet.Broadcast)
}
