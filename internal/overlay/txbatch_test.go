package overlay_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
	"vnetp/internal/virtio"
)

// batchNodes builds a sender (cfgA) → receiver (cfgB) pair with one
// endpoint each and a unicast route from A to B over one link of the
// given protocol.
func batchNodes(t testing.TB, cfgA, cfgB overlay.NodeConfig, proto string) (*overlay.Node, *overlay.Node, *overlay.Endpoint, *overlay.Endpoint) {
	t.Helper()
	na, err := overlay.NewNodeWithConfig("a", "127.0.0.1:0", cfgA)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNodeWithConfig("b", "127.0.0.1:0", cfgB)
	if err != nil {
		na.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })
	macA, macB := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	epA, err := na.AttachEndpoint("nic0", macA, 9000)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := nb.AttachEndpoint("nic0", macB, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if err := na.AddLink("to-b", nb.Addr(), proto); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	return na, nb, epA, epB
}

// TestBatchedDelivery pins that the batched transmit path delivers every
// frame with intact contents: batching reorders nothing and recycled
// encapsulation buffers never leak one frame's bytes into another's.
func TestBatchedDelivery(t *testing.T) {
	_, _, epA, epB := batchNodes(t,
		overlay.RingConfig(),
		overlay.NodeConfig{}, "udp")
	const frames = 200
	for i := 0; i < frames; i++ {
		f := &ethernet.Frame{
			Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("batched frame %03d", i)),
		}
		if err := epA.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[string]bool, frames)
	for i := 0; i < frames; i++ {
		got, ok := epB.Recv(recvTimeout)
		if !ok {
			t.Fatalf("frame %d of %d not delivered", i, frames)
		}
		p := string(got.Payload)
		if seen[p] {
			t.Fatalf("duplicate payload %q", p)
		}
		seen[p] = true
	}
	for i := 0; i < frames; i++ {
		if !seen[fmt.Sprintf("batched frame %03d", i)] {
			t.Fatalf("payload %d missing", i)
		}
	}
}

// TestBatchedDeliveryTCP runs the same contract over a TCP link, whose
// batched flush path shares one writer lock and one stream flush.
func TestBatchedDeliveryTCP(t *testing.T) {
	nb2, _, epA, epB := batchNodes(t,
		overlay.RingConfig(),
		overlay.NodeConfig{}, "tcp")
	_ = nb2
	const frames = 100
	for i := 0; i < frames; i++ {
		f := &ethernet.Frame{
			Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("tcp batch %03d", i)),
		}
		if err := epA.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		got, ok := epB.Recv(recvTimeout)
		if !ok {
			t.Fatalf("frame %d of %d not delivered", i, frames)
		}
		if want := fmt.Sprintf("tcp batch %03d", i); string(got.Payload) != want {
			t.Fatalf("frame %d: got %q want %q (TCP batch must preserve order)", i, got.Payload, want)
		}
	}
}

// TestSendBatchAndDrainTX exercises the virtio-facing batch entry
// points: a guest TX queue drained with single-exit semantics into
// SendBatch, everything delivered.
func TestSendBatchAndDrainTX(t *testing.T) {
	_, _, epA, epB := batchNodes(t,
		overlay.RingConfig(),
		overlay.NodeConfig{}, "udp")
	q := virtio.NewQueue(64)
	const frames = 48
	pushed := 0
	var scratch []*ethernet.Frame
	for pushed < frames {
		for pushed < frames && q.Push(&ethernet.Frame{
			Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("drained %02d", pushed)),
		}) {
			pushed++
		}
		n, err := epA.DrainTX(q, scratch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("DrainTX drained nothing from a non-empty queue")
		}
	}
	for i := 0; i < frames; i++ {
		if _, ok := epB.Recv(recvTimeout); !ok {
			t.Fatalf("frame %d of %d not delivered", i, frames)
		}
	}
	if n, err := epA.DrainTX(q, scratch, 0); n != 0 || err != nil {
		t.Fatalf("empty drain: n=%d err=%v", n, err)
	}
}

// scrapeMetrics fetches a live /metrics exposition from a node.
func scrapeMetrics(t *testing.T, n *overlay.Node) string {
	t.Helper()
	srv, err := telemetry.Serve("127.0.0.1:0", n.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of the first sample line whose name
// (including any label set) starts with prefix.
func metricValue(t *testing.T, scrape, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no %q series in scrape", prefix)
	return 0
}

// TestTxBatchTelemetryScrape pins the transmit-path series in a live
// /metrics scrape: the batch-size and frames-per-datagram histograms
// account for every frame exactly once, datagrams never outnumber
// frames, and the per-link TX ring depth gauge exists.
func TestTxBatchTelemetryScrape(t *testing.T) {
	na, nb, epA, epB := batchNodes(t,
		overlay.RingConfig(),
		overlay.NodeConfig{}, "udp")
	_ = nb
	const frames = 64
	for i := 0; i < frames; i++ {
		f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte("metrics probe")}
		if err := epA.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		if _, ok := epB.Recv(recvTimeout); !ok {
			t.Fatalf("frame %d not delivered", i)
		}
	}
	// The sender takes its samples once a batch is on the wire, and the
	// receiver may have delivered the batch by then: wait for them.
	var scrape string
	waitUntil(t, 5*time.Second, "the sender's histograms to account for the last batch", func() bool {
		scrape = scrapeMetrics(t, na)
		return metricValue(t, scrape, "vnetp_tx_batch_size_sum") >= frames &&
			metricValue(t, scrape, "vnetp_tx_datagram_frames_sum") >= frames
	})
	if c := metricValue(t, scrape, "vnetp_tx_batch_size_count"); c < 1 {
		t.Fatalf("vnetp_tx_batch_size_count = %v, want >= 1", c)
	}
	if s := metricValue(t, scrape, "vnetp_tx_batch_size_sum"); s != frames {
		t.Fatalf("vnetp_tx_batch_size_sum = %v, want %d (every frame flushed exactly once)", s, frames)
	}
	if !strings.Contains(scrape, `vnetp_link_tx_queue_depth{link="to-b"}`) {
		t.Fatal("per-link TX queue depth gauge missing from scrape")
	}
	if s := metricValue(t, scrape, "vnetp_tx_datagram_frames_sum"); s != frames {
		t.Fatalf("vnetp_tx_datagram_frames_sum = %v, want %d (every frame in exactly one datagram)", s, frames)
	}
	if c := metricValue(t, scrape, "vnetp_tx_datagram_frames_count"); c < 1 || c > frames {
		t.Fatalf("vnetp_tx_datagram_frames_count = %v, want 1..%d datagrams", c, frames)
	}
}

// TestSyncPathKeepsSurfaces pins what a default (synchronous) node shows:
// no TX ring gauge registered, the synchronous latency accounting runs,
// and the batch-size histogram takes one observation per transmit, as on
// the batched leg — a lone Send is one transmit carrying one frame.
func TestSyncPathKeepsSurfaces(t *testing.T) {
	na, _, epA, epB := batchNodes(t, overlay.NodeConfig{}, overlay.NodeConfig{}, "udp")
	f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("sync")}
	if err := epA.Send(f); err != nil {
		t.Fatal(err)
	}
	if _, ok := epB.Recv(recvTimeout); !ok {
		t.Fatal("frame not delivered")
	}
	scrape := scrapeMetrics(t, na)
	if c, s := metricValue(t, scrape, "vnetp_tx_batch_size_count"), metricValue(t, scrape, "vnetp_tx_batch_size_sum"); c != 1 || s != 1 {
		t.Fatalf("sync node observed %v TX batches carrying %v frames, want one of 1", c, s)
	}
	if strings.Contains(scrape, `vnetp_link_tx_queue_depth{`) {
		t.Fatal("sync node registered a TX ring depth gauge")
	}
	if c := metricValue(t, scrape, "vnetp_tx_latency_seconds_count"); c < 1 {
		t.Fatalf("sync TX latency histogram empty (%v)", c)
	}
}

// TestReassemblyEvictionGauge sends an orphan fragment (a dead sender's
// partial) at a node running a fast eviction clock and pins the full
// cleanup story: the pending gauge rises, then returns to zero, and the
// eviction counter records the drop.
func TestReassemblyEvictionGauge(t *testing.T) {
	nb, err := overlay.NewNodeWithConfig("b", "127.0.0.1:0",
		overlay.NodeConfig{}.WithEvictInterval(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nb.Close() })

	big := &ethernet.Frame{
		Dst: ethernet.LocalMAC(9), Src: ethernet.LocalMAC(8), Type: ethernet.TypeTest,
		Payload: make([]byte, 3000),
	}
	dgs, err := bridge.Encapsulate(big, 77, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) < 2 {
		t.Fatalf("want a fragmented packet, got %d datagrams", len(dgs))
	}
	conn, err := net.Dial("udp", nb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(dgs[0]); err != nil { // first fragment only: sender then "dies"
		t.Fatal(err)
	}

	pending := func() float64 {
		var sum float64
		for _, fam := range nb.Telemetry().Gather() {
			if fam.Name == "vnetp_reassembly_pending" {
				for _, s := range fam.Samples {
					sum += s.Value
				}
			}
		}
		return sum
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(recvTimeout)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(func() bool { return pending() >= 1 }, "partial reassembly to register")
	waitFor(func() bool { return pending() == 0 }, "stale partial to be evicted")

	evictions := 0.0
	for _, fam := range nb.Telemetry().Gather() {
		if fam.Name == "vnetp_reassembly_evictions_total" {
			evictions = fam.Samples[0].Value
		}
	}
	if evictions < 1 {
		t.Fatalf("vnetp_reassembly_evictions_total = %v, want >= 1", evictions)
	}
}

// famValue reads the first sample of a registry family straight from a
// node's telemetry (no HTTP round trip), for tight polling loops.
func famValue(n *overlay.Node, name string) float64 {
	for _, fam := range n.Telemetry().Gather() {
		if fam.Name == name && len(fam.Samples) > 0 {
			return fam.Samples[0].Value
		}
	}
	return -1
}

// txBatches reads the node's vnetp_tx_batch_size histogram.
func txBatches(n *overlay.Node) telemetry.HistSnapshot {
	for _, fam := range n.Telemetry().Gather() {
		if fam.Name == "vnetp_tx_batch_size" {
			return *fam.Samples[0].Hist
		}
	}
	return telemetry.HistSnapshot{}
}

// blast starts a goroutine flooding epA with frames for epB until the
// returned stop function is called.
func blast(epA, epB *overlay.Endpoint) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f := &ethernet.Frame{
			Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: make([]byte, 64),
		}
		for {
			select {
			case <-quit:
				return
			default:
				epA.Send(f)
				runtime.Gosched()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// TestAdaptiveBatchFollowsLoad pins the behaviour of the live adaptive
// dispatcher, the self-clocked ring: it switches per batch on what is
// queued. A one-outstanding ping-pong never queues a second frame, so
// every transmit carries exactly one (guest-driven dispatch); a blast
// queues frames behind the transmit in flight, so transmits carry
// several (VMM-driven dispatch), and never more than the ring's batch
// bound.
func TestAdaptiveBatchFollowsLoad(t *testing.T) {
	na, _, pingPong := echoPair(t, overlay.RingConfig())
	pingPong(100 * time.Millisecond)
	if h := txBatches(na); h.Count == 0 || h.Sum != float64(h.Count) {
		t.Fatalf("ping-pong: %v transmits carried %v frames, want a mean of exactly 1", h.Count, h.Sum)
	}

	loaded, _, epA, epB := batchNodes(t, overlay.RingConfig(), overlay.NodeConfig{}, "udp")
	stop := blast(epA, epB)
	waitUntil(t, recvTimeout, "the blast to fill 200 transmits", func() bool { return txBatches(loaded).Count >= 200 })
	stop()
	h := txBatches(loaded)
	if mean := h.Sum / float64(h.Count); mean <= 1 {
		t.Fatalf("blast: %v transmits carried %v frames (mean %.2f), want a mean above 1", h.Count, h.Sum, mean)
	}
	for i, b := range h.Bounds {
		if b >= overlay.TxBatchMax && h.Cumulative[i] != h.Count {
			t.Fatalf("blast: %d of %d transmits carried more than %d frames",
				h.Count-h.Cumulative[i], h.Count, overlay.TxBatchMax)
		}
	}
}

// TestAdaptiveSurvivesLinkChurnAndDrain replaces a loaded ring link
// mid-run (a fresh ring and sender, counters restarted from zero) and
// then drains the node: the replacement carries traffic, and neither
// the churn nor the old link's stopped sender wedges the drain.
func TestAdaptiveSurvivesLinkChurnAndDrain(t *testing.T) {
	na, nb, epA, epB := batchNodes(t, overlay.RingConfig(), overlay.NodeConfig{}, "udp")

	stop := blast(epA, epB)
	waitUntil(t, recvTimeout, "traffic on the first link", func() bool { return na.EncapSent.Load() > 0 })
	stop()

	if err := na.DelLink("to-b"); err != nil {
		t.Fatal(err)
	}
	if err := na.AddLink("to-b", nb.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	// DelLink removed the routes pointing at the link; restore the path.
	na.AddRoute(core.Route{DstMAC: epB.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	stop = blast(epA, epB)
	waitUntil(t, recvTimeout, "the replaced link to carry traffic", func() bool {
		return famValue(na, "vnetp_link_bytes_sent_total") > 0
	})
	stop()

	ctx, cancel := context.WithTimeout(context.Background(), recvTimeout)
	defer cancel()
	if _, err := na.Drain(ctx); err != nil {
		t.Fatalf("drain after link churn: %v", err)
	}
}

// strandFrames wedges a ring node's sender with an injected stall and
// sends frames behind it: the sender ends up holding the first in hand
// (the self-clocked sender never sits on a frame of its own accord) with
// the rest still in the ring.
func strandFrames(t *testing.T, na *overlay.Node, epA, epB *overlay.Endpoint, frames int) {
	t.Helper()
	na.Runtime().Worker("tx/to-b").InjectStall(time.Hour)
	for i := 0; i < frames; i++ {
		f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("stranded %d", i))}
		if err := epA.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, recvTimeout, "stalled sender to take the first frame in hand", func() bool {
		return famValue(na, "vnetp_link_tx_queue_depth") == float64(frames-1)
	})
}

// TestTxLoopTeardownCountsBatchDrops is the bugfix-1 regression: what
// the sender held in hand when the node closed was silently discarded;
// now it lands in tx_ring_drops.
func TestTxLoopTeardownCountsBatchDrops(t *testing.T) {
	na, _, epA, epB := batchNodes(t, overlay.RingConfig(), overlay.NodeConfig{}, "udp")
	strandFrames(t, na, epA, epB, 5)
	if d := famValue(na, "vnetp_link_tx_ring_drops_total"); d != 0 {
		t.Fatalf("tx_ring_drops = %v before close, want 0", d)
	}
	na.Close()
	if d := famValue(na, "vnetp_link_tx_ring_drops_total"); d != 1 {
		t.Fatalf("tx_ring_drops = %v after close, want 1 (the abandoned frame in hand)", d)
	}
	if sent := na.EncapSent.Load(); sent != 0 {
		t.Fatalf("stopped sender transmitted %d frames", sent)
	}
}

// TestDrainCountsSenderBatchDrops is bugfix 1's drain half: DrainStats
// previously computed FramesDropped from ring occupancy alone, so
// frames lost from a sender's in-hand batch went unreported in the
// vnetpd shutdown summary.
func TestDrainCountsSenderBatchDrops(t *testing.T) {
	na, _, epA, epB := batchNodes(t, overlay.RingConfig(), overlay.NodeConfig{}, "udp")
	const frames = 5
	strandFrames(t, na, epA, epB, frames)
	// Four frames sit in the ring behind the wedged sender and one in its
	// hand; the deadline abandons all five, each counted once.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	st, _ := na.Drain(ctx)
	if st.FramesDropped != frames {
		t.Fatalf("DrainStats.FramesDropped = %d, want %d (ring plus the frame in hand)", st.FramesDropped, frames)
	}
}

// TestEncapFailureSkipsWireTxTrace is the bugfix-2 regression: a traced
// frame whose encapsulation fails used to be stamped with a wire_tx hop
// and a TX latency sample anyway. A Pad of -1 passes the endpoint's MTU
// check but fails ethernet.Frame.Marshal inside the batch encap loop. The
// frame lands on the tx_error ledger reason; no datagram existed, so the
// link's datagram counters do not move.
func TestEncapFailureSkipsWireTxTrace(t *testing.T) {
	cfg := overlay.RingConfig()
	cfg.TraceSample = 1
	na, _, epA, epB := batchNodes(t, cfg, overlay.NodeConfig{}, "udp")
	bad := &ethernet.Frame{
		Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
		Payload: []byte("doomed"), Pad: -1,
	}
	if err := epA.Send(bad); err != nil {
		t.Fatalf("Send should accept the frame (encap fails later): %v", err)
	}
	waitUntil(t, recvTimeout, "encap failure to be counted", func() bool { return na.Ledger().Count("tx_error") == 1 })
	if e := famValue(na, "vnetp_link_send_errors_total"); e != 0 {
		t.Fatalf("send_errors = %v for a frame that never became a datagram", e)
	}

	paths := na.Tracer().Traces()
	if len(paths) == 0 {
		t.Fatal("frame was not traced at all")
	}
	enqueued := false
	for _, p := range paths {
		for _, h := range p.Hops {
			switch h.Stage {
			case trace.StageTxEnqueue:
				enqueued = true
			case trace.StageWireTx, trace.StageEncap:
				t.Fatalf("trace %016x has a %s hop for a frame that never encapsulated", p.Tag, h.Stage)
			}
		}
	}
	if !enqueued {
		t.Fatal("trace shows no tx_enqueue hop; the frame never reached the batched path")
	}
	scrape := scrapeMetrics(t, na)
	if c := metricValue(t, scrape, "vnetp_tx_latency_seconds_count"); c != 0 {
		t.Fatalf("tx latency histogram counted %v samples for a frame that never hit the wire", c)
	}
}

// TestTCPDialFailureChargesWholeBatch pins the documented TCP
// accounting rule's failed-dial corner: no datagram was confirmed, so
// every datagram of the batch lands in send_errors and none of it in
// bytes_sent — matching what the UDP path reports when the socket write
// fails outright — and every frame lands on tx_error, none in
// encap_sent or the TX latency histogram.
func TestTCPDialFailureChargesWholeBatch(t *testing.T) {
	na, err := overlay.NewNodeWithConfig("a", "127.0.0.1:0", overlay.RingConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close() })
	epA, err := na.AttachEndpoint("nic0", ethernet.LocalMAC(1), 9000)
	if err != nil {
		t.Fatal(err)
	}
	// 127.0.0.1:1 refuses immediately: the dial fails before anything is
	// written.
	if err := na.AddLink("to-void", "127.0.0.1:1", "tcp"); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.LocalMAC(2)
	na.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-void"}})
	const frames = 4
	for i := 0; i < frames; i++ {
		f := &ethernet.Frame{Dst: dst, Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte("unreachable")}
		if err := epA.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, recvTimeout, "sender to work through the frames", func() bool { return na.Ledger().Count("tx_error") == frames })
	if sent, total := na.EncapSent.Load(), na.Ledger().Total(); sent != 0 || total != frames {
		t.Fatalf("encap_sent = %d, ledger total = %d, want 0 and %d", sent, total, frames)
	}
	if c := metricValue(t, scrapeMetrics(t, na), "vnetp_tx_latency_seconds_count"); c != 0 {
		t.Fatalf("tx latency histogram counted %v samples for frames the transport refused", c)
	}
	// send_errors counts datagrams; how many the four frames shared
	// depends on how the sender's wakeups fell.
	var datagrams float64
	for _, fam := range na.Telemetry().Gather() {
		if fam.Name == "vnetp_tx_datagram_frames" {
			datagrams = float64(fam.Samples[0].Hist.Count)
		}
	}
	if e := famValue(na, "vnetp_link_send_errors_total"); datagrams < 1 || e != datagrams {
		t.Fatalf("send_errors = %v for %v datagrams, want one each", e, datagrams)
	}
	if b := famValue(na, "vnetp_link_bytes_sent_total"); b != 0 {
		t.Fatalf("bytes_sent = %v after a failed dial, want 0 (nothing confirmed)", b)
	}
}

// echoPair builds two nodes of one config with a route each way and an
// echo server on B that reflects every frame to its sender. pingPong
// then runs one-outstanding echoes from A for at least the given time
// and reports their round-trip times in order.
func echoPair(t *testing.T, cfg overlay.NodeConfig) (na, nb *overlay.Node, pingPong func(time.Duration) []time.Duration) {
	na, nb, epA, epB := batchNodes(t, cfg, cfg, "udp")
	if err := nb.AddLink("to-a", na.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	nb.AddRoute(core.Route{DstMAC: epA.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-a"}})
	done := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			f, ok := epB.Recv(20 * time.Millisecond)
			select {
			case <-done:
				return
			default:
			}
			if ok {
				epB.Send(&ethernet.Frame{Dst: f.Src, Src: f.Dst, Type: f.Type, Payload: f.Payload})
			}
		}
	}()
	t.Cleanup(func() { close(done); <-served })
	return na, nb, func(d time.Duration) []time.Duration {
		var rtts []time.Duration
		for start := time.Now(); time.Since(start) < d; {
			t0 := time.Now()
			f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: make([]byte, 64)}
			if err := epA.Send(f); err != nil {
				t.Fatal(err)
			}
			if _, ok := epA.Recv(recvTimeout); !ok {
				t.Fatalf("echo %d lost", len(rtts))
			}
			rtts = append(rtts, time.Since(t0))
		}
		return rtts
	}
}

// TestIdleEchoBatchedNearSync: with one frame outstanding there is never
// a second frame to batch, and the self-clocked sender does not wait for
// one — an echo through two ring nodes costs about what it costs
// through two synchronous ones (two goroutine handoffs more). With a
// flush timer it cost the timer, twice: ≈2.3 ms against ≈13 µs.
func TestIdleEchoBatchedNearSync(t *testing.T) {
	p50 := func(cfg overlay.NodeConfig) time.Duration {
		_, _, pingPong := echoPair(t, cfg)
		rtts := pingPong(200 * time.Millisecond)
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		return rtts[len(rtts)/2]
	}
	sync, batched := p50(overlay.NodeConfig{}), p50(overlay.RingConfig())
	if batched > 2*sync {
		t.Fatalf("idle echo RTT p50: %v through ring nodes, %v through synchronous ones; want within 2x", batched, sync)
	}
}

// BenchmarkOverlayTxBatching is the Fig. 5-style comparison of the two
// transmit legs: 64-byte frames through one UDP link on the synchronous
// leg and on the TX ring. Throughput is measured at the sender's wire
// boundary (frames encapsulated and pushed to the socket), with window
// pacing against the encapsulation counter so the TX ring never
// overflows.
func BenchmarkOverlayTxBatching(b *testing.B) {
	for _, leg := range []struct {
		name string
		cfg  overlay.NodeConfig
	}{{"sync", overlay.NodeConfig{}}, {"ring", overlay.RingConfig()}} {
		b.Run(leg.name, func(b *testing.B) {
			const window = 1024 // the ring's depth
			na, _, epA, epB := batchNodes(b, leg.cfg, overlay.NodeConfig{}, "udp")
			f := &ethernet.Frame{
				Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
				Payload: make([]byte, 64),
			}
			b.SetBytes(64)
			b.ReportAllocs()
			b.ResetTimer()
			var sent uint64
			for i := 0; i < b.N; i++ {
				for sent-na.EncapSent.Load() >= window {
					runtime.Gosched()
				}
				if err := epA.Send(f); err != nil {
					b.Fatal(err)
				}
				sent++
			}
			deadline := time.Now().Add(10 * time.Second)
			for na.EncapSent.Load() < sent {
				if time.Now().After(deadline) {
					b.Fatalf("stalled: %d of %d frames encapsulated", na.EncapSent.Load(), sent)
				}
				runtime.Gosched()
			}
			b.StopTimer()
		})
	}
}
