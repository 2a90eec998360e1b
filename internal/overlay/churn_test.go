package overlay_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
	"vnetp/internal/overlay"
)

// waitGoroutines polls until the live goroutine count drops to at most
// want, failing after the timeout. Goroutine exits are asynchronous
// (txLoop sees txQuit on its next select), so a one-shot read races.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finalizer/timer goroutines to settle
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines alive, want <= %d\n%s",
				what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLinkChurnUnderTraffic hammers AddLink/DelLink/SetLinkFault
// concurrently with a live route() fan-out on a batched-transmit node
// (each churned link spawns and must reap a TX sender goroutine), then
// pins the two leak-shaped invariants: goroutine count returns to its
// pre-churn baseline, and a deleted link carries no further frames.
// Designed to run under -race: the churn goroutines, the sender, the
// txLoops, and the dispatcher pool all overlap.
func TestLinkChurnUnderTraffic(t *testing.T) {
	na, err := overlay.NewNodeWithConfig("a", "127.0.0.1:0",
		overlay.NodeConfig{}.WithTxRing(64))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("b", "127.0.0.1:0")
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
	// The route fan-out hits one stable link plus every churned link
	// that happens to exist at lookup time.
	const churners = 4
	if err := na.AddLink("stable", nb.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "stable"}})
	for g := 0; g < churners; g++ {
		na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: fmt.Sprintf("churn-%d", g)}})
	}

	baseline := runtime.NumGoroutine() // steady state: nodes up, no churn links

	stop := make(chan struct{})
	var senders sync.WaitGroup
	senders.Add(1)
	go func() { // traffic source: keeps route() fanning out during churn
		defer senders.Done()
		f := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest,
			Payload: []byte("churn traffic")}
		for {
			select {
			case <-stop:
				return
			default:
				epA.Send(f)
			}
		}
	}()

	var churn sync.WaitGroup
	for g := 0; g < churners; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			id := fmt.Sprintf("churn-%d", g)
			for i := 0; i < 200; i++ {
				if err := na.AddLink(id, nb.Addr(), "udp"); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					na.SetLinkFault(id, faultnet.New(faultnet.Config{DropProb: 0.5, Seed: int64(i)}))
				}
				if i%2 == 0 { // half the time, replace instead of delete+add
					if err := na.DelLink(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
			na.DelLink(id) // idempotent-ish: may or may not still exist
		}(g)
	}
	churn.Wait()
	close(stop)
	senders.Wait()

	if got := na.Links(); len(got) != 1 || got[0] != "stable" {
		t.Fatalf("links after churn: %v, want [stable]", got)
	}
	// Every churned link's TX sender goroutine must have been reaped.
	waitGoroutines(t, baseline, "after churn")

	// A deleted link must carry nothing: drop the last link, let
	// in-flight batches settle, and pin that the receiver's delivery
	// counter stays frozen while we keep routing frames at it.
	if err := na.DelLink("stable"); err != nil {
		t.Fatal(err)
	}
	frozen := overlay.QuietDelivered(nb) // drain anything already on the wire
	f := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest,
		Payload: []byte("post-delete")}
	for i := 0; i < 100; i++ {
		epA.Send(f) // routes still exist; links are gone
	}
	time.Sleep(100 * time.Millisecond)
	if got := nb.Delivered.Load(); got != frozen {
		t.Fatalf("deleted link delivered %d frames", got-frozen)
	}
}

// TestCloseUnderTraffic slams a node shut while multiple senders are
// mid-Send and traffic is on the wire, then pins the teardown
// invariants: no panic (no send on a closed channel anywhere in the
// datapath), no frame delivered after Close returns has a live
// consumer, and the goroutine count falls back to the pre-node
// baseline — supervisor, watchdog, TX senders, dispatchers and all.
func TestCloseUnderTraffic(t *testing.T) {
	baseline := runtime.NumGoroutine()

	na, err := overlay.NewNodeWithConfig("close-a", "127.0.0.1:0",
		overlay.NodeConfig{}.WithTxRing(256))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("close-b", "127.0.0.1:0")
	if err != nil {
		na.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })

	macA, macB := ethernet.LocalMAC(7), ethernet.LocalMAC(8)
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
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			f := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest,
				Payload: []byte("closing time")}
			for {
				select {
				case <-stop:
					return
				default:
					epA.Send(f) // must keep failing cleanly once the node closes
				}
			}
		}()
	}

	// Let traffic establish, then yank the node out from under the
	// senders and let them hammer the closed node for a while.
	time.Sleep(20 * time.Millisecond)
	if err := na.Close(); err != nil {
		t.Fatalf("close under traffic: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	senders.Wait()

	// Whatever was on the wire at Close lands shortly; after that the
	// receiver's delivery counter must freeze.
	frozen := overlay.QuietDelivered(nb)
	time.Sleep(100 * time.Millisecond)
	if got := nb.Delivered.Load(); got != frozen {
		t.Fatalf("%d frames delivered after close settled", got-frozen)
	}

	if err := nb.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline, "after close under traffic")
}
