package overlay_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"vnetp/internal/adapt/rate"
	"vnetp/internal/control"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/trace"
)

// adaptiveCfg is a sender config with the controller tuned for test
// speed: thresholds low enough that a blast loop crosses α_u and an
// idle link falls under α_l within a few milliseconds.
func adaptiveCfg() overlay.NodeConfig {
	return overlay.NodeConfig{
		TxBatch: 8, TxRing: 4096,
		Adaptive: overlay.AdaptiveConfig{
			Enabled: true,
			AlphaL:  500, AlphaU: 2000,
			Omega: 2 * time.Millisecond, HoldDown: 6 * time.Millisecond,
		},
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

// waitForValue polls until cond holds or the deadline passes.
func waitForValue(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(recvTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
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

// TestAdaptiveModeSwitchesUnderLoad is the live acceptance path: a link
// on an adaptive node starts in latency mode, a blast drives it into
// throughput mode, quiescence brings it back, and the switch counter in
// a real /metrics scrape shows both transitions.
func TestAdaptiveModeSwitchesUnderLoad(t *testing.T) {
	na, _, epA, epB := batchNodes(t, adaptiveCfg(),
		overlay.NodeConfig{}, "udp")

	if m := famValue(na, "vnetp_dispatch_mode"); m != 0 {
		t.Fatalf("initial dispatch mode = %v, want 0 (latency)", m)
	}
	stop := blast(epA, epB)
	waitForValue(t, func() bool { return famValue(na, "vnetp_dispatch_mode") == 1 },
		"upswitch to throughput mode under load")
	stop()
	waitForValue(t, func() bool { return famValue(na, "vnetp_dispatch_mode") == 0 },
		"downswitch to latency mode after quiescence")

	scrape := scrapeMetrics(t, na)
	if !strings.Contains(scrape, `vnetp_dispatch_mode{link="to-b"}`) {
		t.Fatal("per-link dispatch mode gauge missing from scrape")
	}
	if sw := metricValue(t, scrape, `vnetp_dispatch_mode_switches_total{link="to-b"}`); sw < 2 {
		t.Fatalf("vnetp_dispatch_mode_switches_total = %v, want >= 2 (up and back down)", sw)
	}
	if fr := metricValue(t, scrape, `vnetp_link_tx_frames_total{link="to-b"}`); fr < 1 {
		t.Fatalf("vnetp_link_tx_frames_total = %v, want >= 1", fr)
	}
}

// TestAdaptiveSurvivesControllerRestart panics the supervised controller
// mid-flight and pins that (a) the link's mode is preserved across the
// restart — controller state lives on the link, not the goroutine — and
// (b) the relaunched instance keeps driving rate-based switches.
func TestAdaptiveSurvivesControllerRestart(t *testing.T) {
	na, _, epA, epB := batchNodes(t, adaptiveCfg(),
		overlay.NodeConfig{}, "udp")

	stop := blast(epA, epB)
	waitForValue(t, func() bool { return famValue(na, "vnetp_dispatch_mode") == 1 },
		"upswitch under load")

	w := na.Runtime().Worker("adaptive")
	if w == nil {
		t.Fatal("no supervised worker named \"adaptive\"")
	}
	w.InjectPanic()
	time.Sleep(20 * time.Millisecond) // let the panic land and the relaunch settle
	// Mode state lives on the link, so the restart itself never resets it;
	// a starved blast goroutine can still downswitch legitimately, so wait
	// for the relaunched controller to (re)assert throughput mode rather
	// than asserting an instant.
	waitForValue(t, func() bool { return famValue(na, "vnetp_dispatch_mode") == 1 },
		"restarted controller to hold throughput mode under load")
	stop()
	waitForValue(t, func() bool { return famValue(na, "vnetp_dispatch_mode") == 0 },
		"restarted controller to downswitch after quiescence")

	scrape := scrapeMetrics(t, na)
	if r := metricValue(t, scrape, `vnetp_component_restarts_total{component="adaptive"}`); r < 1 {
		t.Fatalf("adaptive component restarts = %v, want >= 1", r)
	}
}

// TestAdaptiveSurvivesLinkChurnAndDrain replaces the controlled link
// mid-run (fresh controller, counters restarted from zero — the resync
// path in adaptLoop) and then drains the node, pinning that the
// controller neither wedges the drain nor trips over the churn.
func TestAdaptiveSurvivesLinkChurnAndDrain(t *testing.T) {
	na, nb, epA, epB := batchNodes(t, adaptiveCfg(),
		overlay.NodeConfig{}, "udp")

	stop := blast(epA, epB)
	waitForValue(t, func() bool { return famValue(na, "vnetp_dispatch_mode") == 1 },
		"upswitch under load")
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
	// The replacement starts a fresh controller in latency mode.
	if m := famValue(na, "vnetp_dispatch_mode"); m != 0 {
		t.Fatalf("replaced link's dispatch mode = %v, want 0 (latency)", m)
	}
	stop = blast(epA, epB)
	waitForValue(t, func() bool { return famValue(na, "vnetp_dispatch_mode") == 1 },
		"controller to pick the replaced link up and upswitch it")
	stop()

	ctx, cancel := context.WithTimeout(context.Background(), recvTimeout)
	defer cancel()
	if _, err := na.Drain(ctx); err != nil {
		t.Fatalf("drain with adaptive controller running: %v", err)
	}
}

// TestLinkTuneControlVerbs drives the full LINK TUNE / LIST TUNING
// surface through control.Parse + control.Apply against a live adaptive
// node: pinning, release to auto, and the rendered summary.
func TestLinkTuneControlVerbs(t *testing.T) {
	na, _, _, _ := batchNodes(t, adaptiveCfg(), overlay.NodeConfig{}, "udp")

	apply := func(line string) ([]string, error) {
		t.Helper()
		cmd, err := control.Parse(line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", line, err)
		}
		return control.Apply(na, cmd)
	}

	if _, err := apply("LINK TUNE to-b THROUGHPUT"); err != nil {
		t.Fatalf("LINK TUNE THROUGHPUT: %v", err)
	}
	if m := famValue(na, "vnetp_dispatch_mode"); m != 1 {
		t.Fatalf("mode after pin = %v, want 1 (throughput)", m)
	}
	out, err := apply("LIST TUNING")
	if err != nil {
		t.Fatalf("LIST TUNING: %v", err)
	}
	if len(out) != 1 || !strings.Contains(out[0], "to-b mode=throughput source=pinned") {
		t.Fatalf("LIST TUNING = %q, want pinned throughput line for to-b", out)
	}

	if _, err := apply("LINK TUNE to-b AUTO"); err != nil {
		t.Fatalf("LINK TUNE AUTO: %v", err)
	}
	out, _ = apply("LIST TUNING")
	if len(out) != 1 || !strings.Contains(out[0], "source=auto") {
		t.Fatalf("LIST TUNING after AUTO = %q, want source=auto", out)
	}
	// An idle released link falls back to latency mode by rate.
	waitForValue(t, func() bool { return famValue(na, "vnetp_dispatch_mode") == 0 },
		"released link to downswitch by rate")

	if _, err := apply("LINK TUNE no-such-link LATENCY"); err == nil {
		t.Fatal("LINK TUNE on a missing link succeeded")
	}
}

// TestLinkTuneStaticAndSyncLinks pins the non-adaptive corners: a
// batched link without a controller accepts direct latency/throughput
// retunes but rejects AUTO, and a synchronous (TxBatch=1) link rejects
// tuning entirely while LIST TUNING reports it as synchronous.
func TestLinkTuneStaticAndSyncLinks(t *testing.T) {
	// Static batched link: TxBatch > 1, adaptive off.
	na, _, _, _ := batchNodes(t,
		overlay.NodeConfig{TxBatch: 8},
		overlay.NodeConfig{}, "udp")
	if err := na.SetLinkTune("to-b", "latency"); err != nil {
		t.Fatalf("static link tune to latency: %v", err)
	}
	if m := famValue(na, "vnetp_dispatch_mode"); m != 0 {
		t.Fatalf("static link mode = %v after latency tune, want 0", m)
	}
	if err := na.SetLinkTune("to-b", "throughput"); err != nil {
		t.Fatalf("static link tune to throughput: %v", err)
	}
	if err := na.SetLinkTune("to-b", "auto"); err == nil {
		t.Fatal("AUTO on a static link succeeded; want an error (no controller)")
	}
	sum := na.TuningSummary()
	if len(sum) != 1 || !strings.Contains(sum[0], "source=static") {
		t.Fatalf("static TuningSummary = %q, want source=static", sum)
	}

	// Synchronous link: no TX ring at all.
	ns, _, _, _ := batchNodes(t, overlay.NodeConfig{}, overlay.NodeConfig{}, "udp")
	if err := ns.SetLinkTune("to-b", "latency"); err == nil ||
		!strings.Contains(err.Error(), "synchronous") {
		t.Fatalf("sync link tune error = %v, want synchronous-path rejection", err)
	}
	sum = ns.TuningSummary()
	if len(sum) != 1 || sum[0] != "to-b mode=synchronous" {
		t.Fatalf("sync TuningSummary = %q, want \"to-b mode=synchronous\"", sum)
	}
}

// strandFrames wedges a batched node's sender with an injected stall and
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
	waitForValue(t, func() bool { return famValue(na, "vnetp_link_tx_queue_depth") == float64(frames-1) },
		"stalled sender to take the first frame in hand")
}

// TestTxLoopTeardownCountsBatchDrops is the bugfix-1 regression: what
// the sender held in hand when the node closed was silently discarded;
// now it lands in tx_ring_drops.
func TestTxLoopTeardownCountsBatchDrops(t *testing.T) {
	na, _, epA, epB := batchNodes(t,
		overlay.NodeConfig{TxBatch: 64},
		overlay.NodeConfig{}, "udp")
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
	na, _, epA, epB := batchNodes(t,
		overlay.NodeConfig{TxBatch: 64},
		overlay.NodeConfig{}, "udp")
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
	na, _, epA, epB := batchNodes(t,
		overlay.NodeConfig{TxBatch: 4, TraceSample: 1},
		overlay.NodeConfig{}, "udp")
	bad := &ethernet.Frame{
		Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
		Payload: []byte("doomed"), Pad: -1,
	}
	if err := epA.Send(bad); err != nil {
		t.Fatalf("Send should accept the frame (encap fails later): %v", err)
	}
	waitForValue(t, func() bool { return na.Ledger().Count("tx_error") == 1 },
		"encap failure to be counted")
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
	na, err := overlay.NewNodeWithConfig("a", "127.0.0.1:0",
		overlay.NodeConfig{TxBatch: 4})
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
	waitForValue(t, func() bool { return na.Ledger().Count("tx_error") == frames },
		"sender to work through the frames")
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

// echo is one completed ping-pong round: when the reply arrived and how
// long the round took.
type echo struct {
	at  time.Time
	rtt time.Duration
}

// echoPair builds two nodes of one config with a route each way and an
// echo server on B that reflects every frame to its sender. pingPong
// then runs one-outstanding echoes from A for at least the given time
// and reports them in order.
func echoPair(t *testing.T, cfg overlay.NodeConfig) (na, nb *overlay.Node, pingPong func(time.Duration) []echo) {
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
	return na, nb, func(d time.Duration) []echo {
		var echoes []echo
		for start := time.Now(); time.Since(start) < d; {
			t0 := time.Now()
			f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: make([]byte, 64)}
			if err := epA.Send(f); err != nil {
				t.Fatal(err)
			}
			if _, ok := epA.Recv(recvTimeout); !ok {
				t.Fatalf("echo %d lost", len(echoes))
			}
			now := time.Now()
			echoes = append(echoes, echo{at: now, rtt: now.Sub(t0)})
		}
		return echoes
	}
}

// TestIdleEchoBatchedNearSync: with one frame outstanding there is never
// a second frame to batch, and the self-clocked sender does not wait for
// one — an echo through two statically batched nodes costs about what it
// costs through two synchronous ones (two goroutine handoffs more). With
// a flush timer it cost the timer, twice: ≈2.3 ms against ≈13 µs.
func TestIdleEchoBatchedNearSync(t *testing.T) {
	p50 := func(cfg overlay.NodeConfig) time.Duration {
		_, _, pingPong := echoPair(t, cfg)
		echoes := pingPong(200 * time.Millisecond)
		sort.Slice(echoes, func(i, j int) bool { return echoes[i].rtt < echoes[j].rtt })
		return echoes[len(echoes)/2].rtt
	}
	sync, batched := p50(overlay.NodeConfig{}), p50(overlay.NodeConfig{TxBatch: 32})
	if batched > 2*sync {
		t.Fatalf("idle echo RTT p50: %v through batched nodes, %v through synchronous ones; want within 2x", batched, sync)
	}
}

// TestAdaptivePingPongHoldsMode: a ping-pong fast enough to cross α_u
// switches its links to throughput mode, and the mode costs an idle link
// nothing, so the echo rate does not collapse under it and push the
// controller back down. When throughput mode meant a flush timer it did:
// each upswitch starved the echo below α_l for the whole hold-down, the
// links flipped ≈80 times a second, and 40–65 % of the run's ω-windows
// held fewer than α_l·ω echoes (reproduced with a 1 ms sleep in front of
// sendTxBatch; a healthy run shows 0–2 such windows in 200).
//
// The echo stream is what the test can observe, so that is what it
// bounds. The switch count is not: the controller divides the frames it
// counts when a tick is handled by the tick's nominal spacing, so a tick
// handled late and the next one handled at once read as a full window and
// an empty one, and a busy link downswitches (rate_per_s 0–999 in the
// log) and comes back a hold-down later with no gap anywhere in the echo
// timestamps — up to 13 switches a second on one node under -race on two
// vCPUs. A machine that really starves the ping-pong for a second looks
// like the collapse this test exists for (2 spinning processes beside
// -race: 42 windows of 199 once in 12 runs), so the verdict is the best
// of three runs: a mode that costs something costs it every time.
func TestAdaptivePingPongHoldsMode(t *testing.T) {
	na, nb, pingPong := echoPair(t, overlay.NodeConfig{Adaptive: overlay.AdaptiveConfig{Enabled: true}})
	const omega = 5 * time.Millisecond                 // AdaptiveConfig's default tick
	lowAt := int(rate.DefaultAlphaL * omega.Seconds()) // fewer echoes in one ω-window read as a rate under α_l
	for attempt := 1; ; attempt++ {
		echoes := pingPong(time.Second)
		first := echoes[0].at
		counts := make([]int, echoes[len(echoes)-1].at.Sub(first)/omega) // whole windows only
		for _, e := range echoes {
			if w := int(e.at.Sub(first) / omega); w < len(counts) {
				counts[w]++
			}
		}
		starved := 0
		for _, c := range counts {
			if c < lowAt {
				starved++
			}
		}
		if 4*starved <= len(counts) {
			return
		}
		switches := famValue(na, "vnetp_dispatch_mode_switches_total") + famValue(nb, "vnetp_dispatch_mode_switches_total")
		msg := fmt.Sprintf("run %d: the echo rate fell under α_l in %d of %d ω-windows (%d echoes, %v mode switches so far)",
			attempt, starved, len(counts), len(echoes), switches)
		if attempt == 3 {
			t.Fatal(msg + ": throughput mode is starving the ping-pong")
		}
		t.Log(msg)
	}
}

// BenchmarkOverlayAdaptiveDispatch is the acceptance benchmark: the
// adaptive configuration must track the better static mode on both ends
// of the load spectrum — idle one-way latency near the synchronous
// batch=1 path, loaded throughput near the static batch=32 path. The
// loaded sub-benchmarks report wire throughput (window-paced like
// BenchmarkOverlayTxBatching); the idle ones pace sends well under α_l
// and report the measured one-way latency as latency-ns/op.
func BenchmarkOverlayAdaptiveDispatch(b *testing.B) {
	batched := func(batch int, adaptive bool) overlay.NodeConfig {
		return overlay.NodeConfig{
			TxBatch: batch, TxRing: 4096,
			Adaptive: overlay.AdaptiveConfig{Enabled: adaptive},
		}
	}
	cfgs := []struct {
		name string
		cfg  overlay.NodeConfig
	}{
		{"batch=1", overlay.NodeConfig{TxBatch: 1}},
		{"adaptive", batched(32, true)},
		{"batch=32", batched(32, false)},
	}
	for _, c := range cfgs {
		b.Run("loaded/"+c.name, func(b *testing.B) {
			const window = 1024
			na, _, epA, epB := batchNodes(b, c.cfg, overlay.NodeConfig{}, "udp")
			f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
				Payload: make([]byte, 64)}
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
	for _, c := range cfgs {
		b.Run("idle/"+c.name, func(b *testing.B) {
			_, _, epA, epB := batchNodes(b, c.cfg, overlay.NodeConfig{}, "udp")
			f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
				Payload: make([]byte, 64)}
			var lat time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := epA.Send(f); err != nil {
					b.Fatal(err)
				}
				if _, ok := epB.Recv(recvTimeout); !ok {
					b.Fatal("frame not delivered")
				}
				lat += time.Since(t0)
				// Idle pacing: ~500 frames/s, under the default α_l, so an
				// adaptive link stays in (or returns to) latency mode.
				time.Sleep(2 * time.Millisecond)
			}
			b.StopTimer()
			b.ReportMetric(float64(lat.Nanoseconds())/float64(b.N), "latency-ns/op")
		})
	}
}
