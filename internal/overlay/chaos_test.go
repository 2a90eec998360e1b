package overlay_test

// Crash-injection chaos tests: the acceptance gate for the self-healing
// runtime. A two-node overlay carries live traffic while chosen
// components are made to panic or stall; the node must keep delivering,
// the supervisor's counters must show the recoveries on the telemetry
// scrape, and a graceful Drain afterwards must leave zero goroutines
// behind. Run via `make chaos` (always under -race).

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/supervise"
	"vnetp/internal/telemetry"
)

// chaosSupervise is a supervisor tuning aggressive enough that panics
// and watchdog supersessions resolve within test time.
func chaosSupervise() supervise.Config {
	return supervise.Config{
		BackoffMin:       time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		StallTimeout:     80 * time.Millisecond,
		WatchdogInterval: 10 * time.Millisecond,
	}
}

// scrapeSum totals one counter family across all its children on a
// registry's scrape — the same numbers Prometheus would see.
func scrapeSum(reg *telemetry.Registry, family string) float64 {
	var sum float64
	for _, f := range reg.Gather() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Samples {
			sum += s.Value
		}
	}
	return sum
}

// waitUntil polls cond at 5ms until true, failing the test after the
// deadline.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosContinuedDeliveryUnderCrashes is the issue's acceptance
// scenario: under live traffic, panic the receiver's only dispatcher
// and stall the sender's TX sender past the watchdog timeout. Delivery
// must continue, the scrape must show panics_recovered >= 1 and
// component_restarts >= 2 (the panic relaunch plus the watchdog
// supersession), and a graceful drain afterwards must leak nothing.
func TestChaosContinuedDeliveryUnderCrashes(t *testing.T) {
	baseline := runtime.NumGoroutine()

	na, err := overlay.NewNodeWithConfig("chaos-a", "127.0.0.1:0", overlay.NodeConfig{}.WithSupervise(chaosSupervise()))
	if err != nil {
		t.Fatal(err)
	}
	// WithDispatchers(1) makes "dispatcher/0" the one worker every datagram
	// crosses, so the injected panic is guaranteed to fire in-path.
	nb, err := overlay.NewNodeWithConfig("chaos-b", "127.0.0.1:0", overlay.NodeConfig{}.WithDispatchers(1).WithSupervise(chaosSupervise()))
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
	if _, err := nb.AttachEndpoint("nic0", macB, 9000); err != nil {
		t.Fatal(err)
	}
	if err := na.AddLink("to-b", nb.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // live traffic for the whole scenario
		defer close(done)
		f := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest,
			Payload: []byte("chaos traffic")}
		for {
			select {
			case <-stop:
				return
			default:
				epA.Send(f)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	waitUntil(t, 5*time.Second, "pre-chaos delivery", func() bool {
		return nb.Delivered.Load() >= 20
	})

	// Crash injection: panic the receive path, stall the transmit path.
	dw := nb.Runtime().Worker("dispatcher/0")
	tw := na.Runtime().Worker("tx/to-b")
	if dw == nil || tw == nil {
		t.Fatalf("missing chaos targets: dispatcher=%v tx=%v (components a=%v b=%v)",
			dw, tw, na.Runtime().Components(), nb.Runtime().Components())
	}
	dw.InjectPanic()
	tw.InjectStall(300 * time.Millisecond) // >> StallTimeout: watchdog must supersede

	waitUntil(t, 5*time.Second, "panic recovery on the scrape", func() bool {
		return scrapeSum(nb.Telemetry(), "vnetp_panics_recovered_total") >= 1
	})
	waitUntil(t, 5*time.Second, "watchdog supersession on the scrape", func() bool {
		return scrapeSum(na.Telemetry(), "vnetp_watchdog_stalls_total") >= 1
	})
	restarts := scrapeSum(na.Telemetry(), "vnetp_component_restarts_total") +
		scrapeSum(nb.Telemetry(), "vnetp_component_restarts_total")
	if restarts < 2 {
		t.Fatalf("component restarts on the scrape = %v, want >= 2", restarts)
	}

	// The whole point: traffic keeps flowing after both recoveries.
	mark := nb.Delivered.Load()
	waitUntil(t, 10*time.Second, "post-chaos delivery", func() bool {
		return nb.Delivered.Load() >= mark+50
	})

	close(stop)
	<-done

	// Graceful teardown leaks nothing — not the restarted dispatcher,
	// not the superseded TX instance still sleeping in its stall.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := na.Drain(ctx); err != nil {
		t.Fatalf("drain a: %v", err)
	}
	if _, err := nb.Drain(ctx); err != nil {
		t.Fatalf("drain b: %v", err)
	}
	waitGoroutines(t, baseline, "after chaos drain")
}

// TestDrainStopsAdmissionAndFlushes pins Drain's contract: once a drain
// begins, Send reports ErrDraining; queued traffic still flushes; the
// node ends closed and a second Drain refuses.
func TestDrainStopsAdmissionAndFlushes(t *testing.T) {
	na, err := overlay.NewNodeWithConfig("drain-a", "127.0.0.1:0", overlay.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("drain-b", "127.0.0.1:0")
	if err != nil {
		na.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })

	macA, macB := ethernet.LocalMAC(3), ethernet.LocalMAC(4)
	epA, err := na.AttachEndpoint("nic0", macA, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AttachEndpoint("nic0", macB, 9000); err != nil {
		t.Fatal(err)
	}
	if err := na.AddLink("to-b", nb.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})

	f := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest,
		Payload: []byte("drain me")}
	for i := 0; i < 100; i++ {
		if err := epA.Send(f); err != nil {
			t.Fatalf("pre-drain send %d: %v", i, err)
		}
	}

	// A sender races the drain: it must observe ErrDraining (admission
	// stops at the start of the grace period, not at Close).
	var sawDraining atomic.Bool
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		for i := 0; i < 100000; i++ {
			if err := epA.Send(f); errors.Is(err, overlay.ErrDraining) {
				sawDraining.Store(true)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stats, err := na.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v (stats %+v)", err, stats)
	}
	<-senderDone
	if !sawDraining.Load() {
		t.Fatal("concurrent sender never observed ErrDraining")
	}
	if stats.FramesDropped != 0 {
		t.Fatalf("clean drain dropped %d frames (stats %+v)", stats.FramesDropped, stats)
	}
	// Drain returns once the frames have left na; nb is still taking them
	// off its socket, so wait for its count to settle rather than read it
	// the instant they are on the wire.
	if overlay.QuietDelivered(nb) == 0 {
		t.Fatal("nothing delivered before drain completed")
	}
	if _, err := na.Drain(ctx); err == nil {
		t.Fatal("second drain on a closed node succeeded")
	}
	if err := epA.Send(f); err == nil {
		t.Fatal("send on drained node succeeded")
	}
}

// TestDrainDeadlineGivesUp pins the other half of the contract: a drain
// that cannot finish (a stalled TX sender holds frames in the ring)
// respects its deadline, reports the loss, and still closes the node.
func TestDrainDeadlineGivesUp(t *testing.T) {
	na, err := overlay.NewNodeWithConfig("drain-stuck", "127.0.0.1:0",
		// Watchdog off: the injected stall must persist through the
		// whole drain window for the deadline path to trigger.
		overlay.NodeConfig{}.WithSupervise(supervise.Config{StallTimeout: -1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close() })
	macA, macB := ethernet.LocalMAC(5), ethernet.LocalMAC(6)
	epA, err := na.AttachEndpoint("nic0", macA, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if err := na.AddLink("to-nowhere", "127.0.0.1:9", "udp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-nowhere"}})

	// Wedge the sender, then queue traffic behind it.
	na.Runtime().Worker("tx/to-nowhere").InjectStall(10 * time.Second)
	f := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest,
		Payload: []byte("stuck")}
	for i := 0; i < 200; i++ {
		epA.Send(f)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	stats, err := na.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline drain took %v", elapsed)
	}
	if stats.FramesDropped == 0 {
		t.Fatalf("stuck drain reported no drops (stats %+v)", stats)
	}
	// Node must still end up closed despite the abandoned flush.
	if err := epA.Send(f); err == nil {
		t.Fatal("send after deadline-expired drain succeeded")
	}
}
