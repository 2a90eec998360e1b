package overlay_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/telemetry"
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
		overlay.NodeConfig{TxBatch: 8},
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
		overlay.NodeConfig{TxBatch: 16},
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
		overlay.NodeConfig{TxBatch: 32},
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
		overlay.NodeConfig{TxBatch: 8},
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

// TestSyncPathKeepsSurfaces pins what a default (TxBatch=1) node shows:
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
		overlay.NodeConfig{EvictInterval: 20 * time.Millisecond})
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

// BenchmarkOverlayTxBatching is the Fig. 5-style sweep for the transmit
// path: 64-byte frames through one UDP link at TxBatch 1 (the
// synchronous path) versus batched settings. Throughput is measured at
// the sender's wire boundary (frames encapsulated and pushed to the
// socket), with window pacing against the encapsulation counter so the
// TX ring never overflows.
func BenchmarkOverlayTxBatching(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			const ring = 4096
			const window = 1024
			na, _, epA, epB := batchNodes(b,
				overlay.NodeConfig{TxBatch: batch, TxRing: ring},
				overlay.NodeConfig{}, "udp")
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
