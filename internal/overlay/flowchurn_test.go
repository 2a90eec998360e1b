package overlay

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
)

// flowWaitGoroutines polls until the live goroutine count drops to at
// most want (goroutine exits are asynchronous, so a one-shot read
// races).
func flowWaitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
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

// TestFlowCacheChurnUnderTraffic is the fast path's -race stress
// acceptance: live traffic in two sealed tenants whose endpoints share
// the SAME MAC addresses (so only the tenant field of the flow key and
// the tenancy guards separate them) while concurrent goroutines churn
// every invalidation source the cache has — link add/delete, route
// add/delete, FailDest/RestoreDest flapping, and tenant installs.
// Invariants: no frame ever crosses tenants (payload check on both
// receivers plus a zero cross_tenant_drops counter — the guards must
// never even be the last line of defense), a deleted link's warm cache
// entries deliver nothing, and the churned links' goroutines are
// reaped. In the batched variant the senders send back to back, so each
// tenant link's frames leave in shared record trains: a train is built
// per link, so it can no more carry two tenants than a single frame can.
// In the sync variant each Send waits out its link's flush, so every
// frame leaves alone.
func TestFlowCacheChurnUnderTraffic(t *testing.T) {
	t.Run("sync", func(t *testing.T) { flowCacheChurn(t, true) })
	t.Run("batched", func(t *testing.T) { flowCacheChurn(t, false) })
}

// QuietDelivered returns n's delivered count once its receive workers
// have finished no datagram for 50 ms: after a flood the receiver may
// still be working through what is left in its socket buffers — seconds'
// worth under -race, and stretches of it frames for an endpoint whose
// ring is already full, which move no delivery counter — and a "delivers
// nothing from here on" baseline taken before that is noise.
// Exported for the overlay_test churn suite.
func QuietDelivered(n *Node) uint64 {
	finished := func() (d uint64) {
		for _, s := range n.shards {
			d += s.Datagrams.Load()
		}
		return d
	}
	last := finished()
	for quietSince := time.Now(); time.Since(quietSince) < 50*time.Millisecond; time.Sleep(5 * time.Millisecond) {
		if got := finished(); got != last {
			last, quietSince = got, time.Now()
		}
	}
	return n.Delivered.Load()
}

func flowCacheChurn(t *testing.T, paced bool) {
	na, err := NewNodeWithConfig("churn-a", "127.0.0.1:0", NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := NewNodeWithConfig("churn-b", "127.0.0.1:0", NodeConfig{})
	if err != nil {
		na.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })

	macS, macD := ethernet.LocalMAC(100), ethernet.LocalMAC(200)
	type side struct {
		send *Endpoint
		recv *Endpoint
	}
	tenants := []uint32{1, 2}
	sides := map[uint32]*side{}
	for _, id := range tenants {
		key := bytes.Repeat([]byte{byte(id)}, 32)
		if err := na.AddTenant(id, key); err != nil {
			t.Fatal(err)
		}
		if err := nb.AddTenant(id, key); err != nil {
			t.Fatal(err)
		}
		s := &side{}
		if s.send, err = na.AttachEndpointTenant(fmt.Sprintf("tx-t%d", id), macS, 9000, id); err != nil {
			t.Fatal(err)
		}
		if s.recv, err = nb.AttachEndpointTenant(fmt.Sprintf("rx-t%d", id), macD, 9000, id); err != nil {
			t.Fatal(err)
		}
		link := fmt.Sprintf("link-t%d", id)
		if err := na.AddLinkTenant(link, nb.Addr(), "udp", id); err != nil {
			t.Fatal(err)
		}
		na.AddRoute(core.Route{Tenant: id, DstMAC: macD, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: link}})
		nb.AddRoute(core.Route{Tenant: id, DstMAC: macD, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestInterface, ID: fmt.Sprintf("rx-t%d", id)}})
		sides[id] = s
	}

	baseline := runtime.NumGoroutine()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Receivers: every delivered frame must carry its own tenant's
	// payload marker.
	for _, id := range tenants {
		wg.Add(1)
		go func(id uint32, ep *Endpoint) {
			defer wg.Done()
			want := fmt.Sprintf("tenant-%d", id)
			for {
				f, ok := ep.Recv(20 * time.Millisecond)
				if !ok {
					select {
					case <-stop:
						return
					default:
						continue
					}
				}
				if string(f.Payload) != want {
					t.Errorf("tenant %d received %q", id, f.Payload)
					return
				}
			}
		}(id, sides[id].recv)
	}
	// Senders: continuous unicast in both tenants (errors expected while
	// churn has a dest failed or a link mid-replace).
	var senders sync.WaitGroup
	for _, id := range tenants {
		senders.Add(1)
		go func(id uint32, ep *Endpoint, lk *link) {
			defer senders.Done()
			f := &ethernet.Frame{Dst: macD, Src: macS, Type: ethernet.TypeTest,
				Payload: []byte(fmt.Sprintf("tenant-%d", id))}
			for {
				select {
				case <-stop:
					return
				default:
					ep.Send(f)
				}
				for paced && !lk.idle() {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}(id, sides[id].send, na.topo.Load().links[fmt.Sprintf("link-t%d", id)])
	}

	// Churners, one per invalidation source.
	var churn sync.WaitGroup
	churn.Add(4)
	go func() { // link churn: add/delete plaintext links with routes aimed at them
		defer churn.Done()
		na.AddRoute(core.Route{DstMAC: macD, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: "churn-link"}})
		for i := 0; i < 150; i++ {
			if err := na.AddLink("churn-link", nb.Addr(), "udp"); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				na.DelLink("churn-link")
			}
		}
		na.DelLink("churn-link")
	}()
	go func() { // route churn inside tenant 1's table
		defer churn.Done()
		decoy := core.Route{Tenant: 1, DstMAC: ethernet.LocalMAC(77), DstQual: core.QualExact,
			SrcQual: core.QualAny, Dest: core.Destination{Type: core.DestInterface, ID: "ghost"}}
		for i := 0; i < 300; i++ {
			na.AddRoute(decoy)
			na.DelRoute(decoy)
		}
	}()
	go func() { // FailDest/RestoreDest flapping on tenant 2's link dest
		defer churn.Done()
		dest := core.Destination{Type: core.DestLink, ID: "link-t2"}
		tbl := na.tenants.Table(2)
		for i := 0; i < 300; i++ {
			tbl.FailDest(dest)
			tbl.RestoreDest(dest)
		}
	}()
	go func() { // tenant installs (key replacement is a valid control-plane op)
		defer churn.Done()
		key := bytes.Repeat([]byte{0x33}, 32)
		for i := 0; i < 100; i++ {
			if err := na.AddTenant(3, key); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	churn.Wait()
	close(stop)
	senders.Wait()
	wg.Wait()

	if got := Metric(t, na, "vnetp_cross_tenant_drops_total"); got != 0 {
		t.Fatalf("cross_tenant_drops = %v on the sender node", got)
	}
	if got := Metric(t, nb, "vnetp_cross_tenant_drops_total"); got != 0 {
		t.Fatalf("cross_tenant_drops = %v on the receiver node", got)
	}
	switch h := na.metrics.txDatagramFrames; {
	case !paced && h.Sum() <= float64(h.Count()):
		t.Fatalf("batched senders never shared a datagram: %v frames in %d datagrams", h.Sum(), h.Count())
	case paced && h.Sum() != float64(h.Count()):
		t.Fatalf("paced senders shared datagrams: %v frames in %d datagrams", h.Sum(), h.Count())
	}

	// Deleted-link invariant on a warm cache: the tenant links are hot in
	// the flow cache right now; delete them, let the wire drain, and pin
	// that continued routing delivers nothing.
	for _, id := range tenants {
		if err := na.DelLink(fmt.Sprintf("link-t%d", id)); err != nil {
			t.Fatal(err)
		}
	}
	frozen := QuietDelivered(nb)
	for i := 0; i < 100; i++ {
		for _, id := range tenants {
			sides[id].send.Send(&ethernet.Frame{Dst: macD, Src: macS, Type: ethernet.TypeTest,
				Payload: []byte(fmt.Sprintf("tenant-%d", id))})
		}
	}
	time.Sleep(100 * time.Millisecond)
	if got := nb.Delivered.Load(); got != frozen {
		t.Fatalf("deleted links delivered %d frames from the flow cache", got-frozen)
	}

	flowWaitGoroutines(t, baseline, "after flow churn")
}
