package overlay

import (
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
	"vnetp/internal/seal"
)

// TestFlowCacheUnit pins the cache's mechanical contract: store/lookup
// round-trips at the fill epoch, a stale epoch misses, refills at the
// new epoch hit again, a hit is counted in its entry and survives the
// entry's displacement in the total, and a slot holds one key: a store
// of another key on the same slot displaces (and counts an eviction)
// rather than growing the cache, and the displaced key then misses.
func TestFlowCacheUnit(t *testing.T) {
	const size = 16
	c := newFlowCache(size)
	k := core.FlowKey{Tenant: 7, Src: ethernet.LocalMAC(1), Dst: ethernet.LocalMAC(2)}
	if e := c.lookup(k, 0); e != nil {
		t.Fatal("hit on empty cache")
	}
	c.store(k, &flowEntry{epoch: 0, tenant: 7})
	if e := c.lookup(k, 0); e == nil || e.tenant != 7 || e.key != k {
		t.Fatalf("lookup after store = %+v", e)
	}
	if e := c.lookup(k, 1); e != nil {
		t.Fatal("stale entry served after epoch bump")
	}
	c.store(k, &flowEntry{epoch: 1, tenant: 7})
	if e := c.lookup(k, 1); e == nil {
		t.Fatal("refill at new epoch missed")
	}
	hits, entries := c.stats()
	if misses := c.misses.Load(); hits != 2 || misses != 2 || entries != 1 {
		t.Fatalf("hits=%d misses=%d entries=%d, want 2/2/1", hits, misses, entries)
	}
	if got := c.evictions.Load(); got != 0 {
		t.Fatalf("a refill of the same key counted %d evictions", got)
	}
	// Keys that share k's slot: every store displaces the resident entry
	// and counts an eviction, and the displaced key misses.
	slot := k.Shard(size)
	prev := k
	inserted := 0
	for i := uint32(0); i < 4096 && inserted < 8; i++ {
		k2 := core.FlowKey{Tenant: i, Src: ethernet.LocalMAC(3), Dst: ethernet.LocalMAC(4)}
		if k2.Shard(size) != slot || k2 == k {
			continue
		}
		c.store(k2, &flowEntry{epoch: 1, tenant: i})
		inserted++
		if e := c.lookup(prev, 1); e != nil {
			t.Fatalf("displaced key %v still hits: %+v", prev, e)
		}
		if e := c.lookup(k2, 1); e == nil || e.tenant != i {
			t.Fatalf("stored key %v missed: %+v", k2, e)
		}
		prev = k2
	}
	if inserted == 0 {
		t.Fatal("no colliding keys found")
	}
	if got := c.evictions.Load(); got != uint64(inserted) {
		t.Fatalf("evictions = %d, want %d", got, inserted)
	}
	hits, entries = c.stats()
	if want := uint64(2 + inserted); hits != want {
		t.Fatalf("hits = %d, want %d: a displaced entry's hits were lost", hits, want)
	}
	if entries != 1 {
		t.Fatalf("entries = %d, want the slot's one resident", entries)
	}
	for i := uint32(0); i < 4*size; i++ {
		c.store(core.FlowKey{Tenant: i, Dst: ethernet.LocalMAC(5)}, &flowEntry{epoch: 1, tenant: i})
	}
	if _, entries := c.stats(); entries > size {
		t.Fatalf("entries = %d, exceeds capacity %d", entries, size)
	}
}

// TestTopFlowsFollowReadmittedFlow: LIST FLOWS counts a flow through the
// entry FlowStats counts it in. Here FlowStats drops the flow (Reset) and
// admits it again when the refilled cache entry acquires it; the
// heavy-hitter candidate must follow the new entry, not keep reading the
// old one, which no frame counts into any more.
func TestTopFlowsFollowReadmittedFlow(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	tx, err := n.AttachEndpoint("tx", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	f := testFrame(tx.MAC(), sink.MAC())
	send := func(frames int) {
		t.Helper()
		for i := 0; i < frames; i++ {
			if err := tx.Send(f); err != nil {
				t.Fatal(err)
			}
			sink.TryRecv()
		}
	}
	send(5)
	n.flows.Reset()
	n.bumpFlowEpoch()
	send(7)
	if top := n.flows.Top(0); len(top) != 1 || top[0].Packets != 7 {
		t.Fatalf("FlowStats = %v, want one flow of 7 packets", top)
	}
	hh := n.TopFlowEntries()[core.DefaultTenant]
	if len(hh) != 1 || hh[0].Packets != 7 || hh[0].Bytes != uint64(7*f.Len()) {
		t.Fatalf("heavy hitters = %+v, want the flow's 7 packets since its re-admission", hh)
	}
}

// TestChurnSendAllocs bounds what a frame from a source FlowStats has
// never seen allocates once the table is full. Sample-and-hold admits
// one such flow in 16 (core's admitEvery), so a churning source costs at
// most 0.15 allocations per Send through a cached destination, where
// allocating a Flow for every frame read about 1. On the no_route drop
// path a flood of random destinations allocates no more per frame than
// a repeat of one resident flow: both pay the same drop, and neither a
// Flow.
func TestChurnSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool sheds what the link's sender returns")
	}
	const perRun, runs = 100, 20 // 2 000 measured sources per case
	n := dropNode(t, NodeConfig{})
	tx, err := n.AttachEndpoint("tx", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}) // never read: the kernel sheds
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	if err := n.AddLink("wire", peer.LocalAddr().String(), "udp"); err != nil {
		t.Fatal(err)
	}
	dst, unrouted := ethernet.LocalMAC(2), ethernet.LocalMAC(3)
	if err := n.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
		t.Fatal(err)
	}
	if n.flows.Acquire(tx.MAC(), unrouted) == nil {
		t.Fatal("an empty FlowStats refused a flow")
	}
	for i := 0; n.flows.Len() < 4096; i++ {
		n.flows.Acquire(ethernet.LocalMAC(uint32(1<<24+i)), dst)
	}
	lk := n.topo.Load().links["wire"]
	frames := func(next func(i int) (src, dst ethernet.MAC)) []*ethernet.Frame {
		fs := make([]*ethernet.Frame, (runs+2)*perRun) // +1 warm-up chunk, +1 for AllocsPerRun's own
		for i := range fs {
			fs[i] = testFrame(next(i))
		}
		return fs
	}
	perSend := func(fs []*ethernet.Frame, settle func()) float64 {
		next := 0
		chunk := func() {
			for j := 0; j < perRun; j++ {
				tx.Send(fs[next%len(fs)])
				next++
			}
			settle()
		}
		chunk() // the first frame fills the cache entry
		return testing.AllocsPerRun(runs, chunk) / perRun
	}

	t.Run("cached_destination", func(t *testing.T) {
		churn := frames(func(i int) (ethernet.MAC, ethernet.MAC) { return ethernet.LocalMAC(uint32(2<<24 + i)), dst })
		if got := perSend(churn, func() { waitIdle(t, lk) }); got > 0.15 {
			t.Fatalf("%.3f allocations per Send from never-seen sources, want at most 0.15", got)
		}
	})
	t.Run("no_route", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(43, 1))
		flood := frames(func(int) (ethernet.MAC, ethernet.MAC) { return tx.MAC(), ethernet.LocalMAC(1<<30 | rng.Uint32()>>2) })
		repeat := frames(func(int) (ethernet.MAC, ethernet.MAC) { return tx.MAC(), unrouted })
		base := perSend(repeat, func() {})
		if got := perSend(flood, func() {}); got > base+0.15 {
			t.Fatalf("a no_route flood of random destinations allocates %.3f per Send, a resident flow's %.3f: want at most 0.15 more", got, base)
		}
	})
}

// TestFlowEpochBumpEvents pins the full set of node events that must
// retire cached flow decisions: link add/replace/delete, endpoint
// detach, tenant installs, and — via the routing table's invalidation
// hook — route churn and FailDest/RestoreDest on any tenant table,
// including tables created after the node. A change to how a link
// reaches its peer is not one of them: a decision holds the link, not
// its transport, so a fault conduit installed or cleared mid-stream
// reaches the very next frame of an already-cached flow without a bump.
func TestFlowEpochBumpEvents(t *testing.T) {
	n, err := NewNode("epochs", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	expectBump := func(what string, fn func()) {
		t.Helper()
		before := n.FlowEpoch()
		fn()
		if after := n.FlowEpoch(); after <= before {
			t.Fatalf("%s did not bump the flow epoch (%d -> %d)", what, before, after)
		}
	}
	peer, err := NewNode("peer", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	expectBump("AddLink", func() { n.AddLink("l0", peer.Addr(), "udp") })
	expectBump("AddLink replace", func() { n.AddLink("l0", peer.Addr(), "udp") })
	expectBump("DelLink", func() { n.DelLink("l0") })
	mac := ethernet.LocalMAC(1)
	if _, err := n.AttachEndpoint("nic0", mac, 1500); err != nil {
		t.Fatal(err)
	}
	expectBump("AddRoute", func() {
		n.AddRoute(core.Route{DstMAC: mac, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestInterface, ID: "nic0"}})
	})
	dest := core.Destination{Type: core.DestInterface, ID: "nic0"}
	expectBump("FailDest", func() { n.tenants.Table(0).FailDest(dest) })
	expectBump("RestoreDest", func() { n.tenants.Table(0).RestoreDest(dest) })
	expectBump("DelRoute", func() {
		n.DelRoute(core.Route{DstMAC: mac, DstQual: core.QualExact, SrcQual: core.QualAny, Dest: dest})
	})
	expectBump("DetachEndpoint", func() { n.DetachEndpoint("nic0") })
	key := make([]byte, 32)
	expectBump("AddTenant", func() {
		if err := n.AddTenant(9, key); err != nil {
			t.Fatal(err)
		}
	})
	// A table created by the tenant install must have inherited the
	// invalidation hook.
	expectBump("tenant-table AddRoute", func() {
		n.AddRoute(core.Route{Tenant: 9, DstMAC: mac, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestInterface, ID: "ghost"}})
	})

	// "sync": each Send waits out the link's flush; "batched": it does not.
	for _, pace := range []string{"sync", "batched"} {
		t.Run("fault_mid_stream_"+pace, func(t *testing.T) {
			n, tap := dropNode(t, NodeConfig{}), newWireTap(t, "udp")
			src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.AddLink("wire", tap.addr, "udp"); err != nil {
				t.Fatal(err)
			}
			dst := ethernet.LocalMAC(2)
			n.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
				Dest: core.Destination{Type: core.DestLink, ID: "wire"}})
			send := func() {
				t.Helper()
				if err := src.Send(testFrame(src.MAC(), dst)); err != nil {
					t.Fatal(err)
				}
				if pace == "sync" {
					waitIdle(t, n.topo.Load().links["wire"])
				}
			}
			send() // the miss that caches the flow
			tap.frame(t, 1, nil)
			epoch := n.FlowEpoch()

			cut := faultnet.New(faultnet.Config{})
			cut.Partition(true)
			n.SetLinkFault("wire", cut)
			send()
			for deadline := time.Now().Add(5 * time.Second); cut.Dropped.Load() != 1; {
				if time.Now().After(deadline) {
					t.Fatal("the frame after the install did not meet the conduit")
				}
				time.Sleep(time.Millisecond)
			}
			n.SetLinkFault("wire", nil)
			send()
			tap.frame(t, 1, nil) // exactly one: the partitioned frame never shows

			if got := n.FlowEpoch(); got != epoch {
				t.Fatalf("fault install/clear moved the flow epoch %d -> %d", epoch, got)
			}
			if hits, misses, _, _ := n.FlowCacheStats(); hits != 2 || misses != 1 {
				t.Fatalf("hits=%d misses=%d, want the two later frames served from the cached flow", hits, misses)
			}
		})
	}
}

// TestFlowCacheHitPath drives repeated unicast traffic between two local
// endpoints and pins that the steady state is served from the flow
// cache: one miss to fill, hits from then on, and broadcast stays
// uncached.
func TestFlowCacheHitPath(t *testing.T) {
	n, err := NewNode("hits", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	a, err := n.AttachEndpoint("a", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AttachEndpoint("b", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	n.AddRoute(core.Route{DstMAC: b.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "b"}})

	const frames = 32
	for i := 0; i < frames; i++ {
		if err := a.Send(&ethernet.Frame{Dst: b.MAC(), Src: a.MAC(), Type: ethernet.TypeTest,
			Payload: []byte("cached")}); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Recv(2 * time.Second); !ok {
			t.Fatalf("frame %d lost", i)
		}
	}
	hits, misses, _, entries := n.FlowCacheStats()
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (the fill)", misses)
	}
	if hits != frames-1 {
		t.Fatalf("hits = %d, want %d", hits, frames-1)
	}
	if entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	// Broadcast must bypass the cache entirely (the send itself may
	// report no-route — only the exact unicast route exists).
	a.Send(&ethernet.Frame{Dst: ethernet.Broadcast, Src: a.MAC(), Type: ethernet.TypeTest,
		Payload: []byte("bcast")})
	h2, m2, _, _ := n.FlowCacheStats()
	if h2 != hits || m2 != misses {
		t.Fatalf("broadcast touched the flow cache (hits %d->%d, misses %d->%d)", hits, h2, misses, m2)
	}
}

// TestLiveLookupsAreUncachedAndCounted: the flow cache is the one cache
// on the live resolve path. K source MACs to one destination in tenant 0
// and K in a sealed tenant, sent twice (fill, then hits), a route edit,
// and a third pass (refill): each flow-cache miss is one rule scan in its
// tenant's table, none is answered by a routing cache, and LIST STATS
// counts the scans of every tenant — not only tenant 0's. How many misses
// a pass costs is the keying's: while no route has a source qualifier the
// K sources of a lane share one entry; one source-qualified route
// anywhere on the node (here for a MAC no frame carries, in the other
// tenant's table for tenant 0) and every (src, dst) pair is an entry of
// its own, exactly as before the key followed the rules.
func TestLiveLookupsAreUncachedAndCounted(t *testing.T) {
	const flows, sealed = 5, 7
	for _, tc := range []struct {
		name     string
		srcKeyed bool
		perPass  uint64 // misses of one filling pass over both lanes
	}{
		{"dst_keyed", false, 2},
		{"source_keyed", true, 2 * flows},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := NewNode("one-cache", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			key, err := seal.NewKey()
			if err != nil {
				t.Fatal(err)
			}
			if err := n.AddTenant(sealed, key); err != nil {
				t.Fatal(err)
			}
			type lane struct{ src, dst *Endpoint }
			var lanes []lane
			for _, tenant := range []uint32{core.DefaultTenant, sealed} {
				src, err := n.AttachEndpointTenant(fmt.Sprintf("src%d", tenant), ethernet.LocalMAC(1), 1500, tenant)
				if err != nil {
					t.Fatal(err)
				}
				dst, err := n.AttachEndpointTenant(fmt.Sprintf("dst%d", tenant), ethernet.LocalMAC(2), 1500, tenant)
				if err != nil {
					t.Fatal(err)
				}
				lanes = append(lanes, lane{src, dst})
			}
			if tc.srcKeyed {
				if err := n.AddRoute(core.Route{DstMAC: ethernet.LocalMAC(2), DstQual: core.QualExact,
					SrcMAC: ethernet.LocalMAC(999), SrcQual: core.QualExact,
					Dest: core.Destination{Type: core.DestInterface, ID: "src7"}, Tenant: sealed}); err != nil {
					t.Fatal(err)
				}
			}
			if got := Metric(t, n, "vnetp_flow_cache_source_keyed") == 1; got != tc.srcKeyed {
				t.Fatalf("vnetp_flow_cache_source_keyed = %v, want %v", got, tc.srcKeyed)
			}
			pass := func() {
				t.Helper()
				for _, l := range lanes {
					for i := 0; i < flows; i++ {
						if err := l.src.Send(testFrame(ethernet.LocalMAC(uint32(100+i)), l.dst.MAC())); err != nil {
							t.Fatal(err)
						}
						if _, ok := l.dst.Recv(2 * time.Second); !ok {
							t.Fatalf("flow %d to %s lost", i, l.dst.name)
						}
					}
				}
			}
			stat := func(key string) (v uint64) {
				for _, line := range n.Stats() {
					fmt.Sscanf(line, key+" %d", &v)
				}
				return v
			}
			check := func(when string, wantMisses uint64) {
				t.Helper()
				_, fcMisses, _, entries := n.FlowCacheStats()
				if fcMisses != wantMisses || entries != int(tc.perPass) {
					t.Fatalf("%s: flow-cache misses = %d entries = %d, want %d and %d", when, fcMisses, entries, wantMisses, tc.perPass)
				}
				if hits := stat("route_cache_hits"); hits != 0 {
					t.Fatalf("%s: route_cache_hits = %d: a routing cache answered under the flow cache", when, hits)
				}
				if scans := stat("route_cache_misses"); scans != fcMisses {
					t.Fatalf("%s: route_cache_misses = %d, want the %d flow-cache misses of both tenants", when, scans, fcMisses)
				}
				if scrape := Metric(t, n, "vnetp_route_cache_misses_total"); scrape != fcMisses {
					t.Fatalf("%s: vnetp_route_cache_misses_total = %d, want %d", when, scrape, fcMisses)
				}
			}
			pass()
			pass()
			check("two passes", tc.perPass)
			if err := n.AddRoute(core.Route{DstMAC: ethernet.LocalMAC(3), DstQual: core.QualExact, SrcQual: core.QualAny,
				Dest: core.Destination{Type: core.DestInterface, ID: "dst7"}, Tenant: sealed}); err != nil {
				t.Fatal(err)
			}
			pass()
			check("after a route edit", 2*tc.perPass)
			if n.flows.Len() != flows {
				t.Fatalf("FlowStats tracks %d flows, want the %d (src, dst) pairs whatever the keying", n.flows.Len(), flows)
			}
		})
	}
}

// TestFlowCacheDisabled pins the ablation/escape hatch: with
// FlowCacheDisabled traffic still flows and the stats surface reads
// zero.
func TestFlowCacheDisabled(t *testing.T) {
	n, err := NewNodeWithConfig("nocache", "127.0.0.1:0", NodeConfig{FlowCacheDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	a, err := n.AttachEndpoint("a", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AttachEndpoint("b", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	n.AddRoute(core.Route{DstMAC: b.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "b"}})
	for i := 0; i < 4; i++ {
		if err := a.Send(&ethernet.Frame{Dst: b.MAC(), Src: a.MAC(), Type: ethernet.TypeTest,
			Payload: []byte("plain")}); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Recv(2 * time.Second); !ok {
			t.Fatalf("frame %d lost", i)
		}
	}
	if h, m, e, entries := n.FlowCacheStats(); h+m+e != 0 || entries != 0 {
		t.Fatalf("disabled cache has stats %d/%d/%d/%d", h, m, e, entries)
	}
}

// TestFlowCacheObservesFailover is the failover acceptance extension
// for the fast path: traffic warmed into the flow cache must observe a
// FailDest within one epoch bump — the very next frame routes to the
// backup, and the failed primary receives nothing after FailDest
// returns.
func TestFlowCacheObservesFailover(t *testing.T) {
	n, err := NewNode("failover", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	prim, err := n.AttachEndpoint("prim", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	back, err := n.AttachEndpoint("back", ethernet.LocalMAC(3), 1500)
	if err != nil {
		t.Fatal(err)
	}
	dst := ethernet.LocalMAC(9)
	n.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest:   core.Destination{Type: core.DestInterface, ID: "prim"},
		Backup: core.Destination{Type: core.DestInterface, ID: "back"}, HasBackup: true})

	// Warm the cache onto the primary.
	for i := 0; i < 8; i++ {
		if err := src.Send(&ethernet.Frame{Dst: dst, Src: src.MAC(), Type: ethernet.TypeTest,
			Payload: []byte("warm")}); err != nil {
			t.Fatal(err)
		}
		if _, ok := prim.Recv(2 * time.Second); !ok {
			t.Fatalf("warm frame %d lost", i)
		}
	}
	if hits, _, _, _ := n.FlowCacheStats(); hits == 0 {
		t.Fatal("cache never warmed")
	}

	epoch := n.FlowEpoch()
	n.tenants.Table(0).FailDest(core.Destination{Type: core.DestInterface, ID: "prim"})
	if got := n.FlowEpoch(); got != epoch+1 {
		t.Fatalf("FailDest bumped epoch %d -> %d, want exactly one bump", epoch, got)
	}
	// Every post-FailDest frame lands on the backup; the dead primary
	// stays silent.
	for i := 0; i < 8; i++ {
		if err := src.Send(&ethernet.Frame{Dst: dst, Src: src.MAC(), Type: ethernet.TypeTest,
			Payload: []byte("failed-over")}); err != nil {
			t.Fatal(err)
		}
		if _, ok := back.Recv(2 * time.Second); !ok {
			t.Fatalf("failover frame %d lost", i)
		}
	}
	if f, ok := prim.Recv(50 * time.Millisecond); ok {
		t.Fatalf("dead primary received %q after FailDest", f.Payload)
	}
}

// FuzzFlowCache is an op-machine over the cache: arbitrary interleavings
// of store / epoch-bump / lookup / miss-then-fill / keying-toggle,
// checked against a shadow model. Every op keys the cache as
// forwardUnicast does — the source zeroed while the machine is not
// source-keyed — and a toggle bumps the epoch, as the route edit behind
// it would. The load-bearing invariant is that a lookup NEVER returns an
// entry from an earlier epoch — a stale hit in production is a silent
// dead-link or cross-tenant delivery, and here also the only thing that
// keeps an entry of one keying from answering under the other — plus the
// capacity bound, tenant-key integrity, and the counters: every store
// that displaces another key is one eviction, and every hit is counted.
func FuzzFlowCache(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 1, 1, 2}, uint8(16))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 0, 3, 2, 3}, uint8(1))
	f.Add([]byte{2, 9, 0, 9, 2, 9, 1, 9, 2, 9, 0, 9, 2, 9}, uint8(255))
	f.Add([]byte{3, 4, 3, 4, 1, 4, 3, 4, 2, 4, 3, 8, 0, 4, 3, 4}, uint8(3))
	f.Add([]byte{0, 7, 2, 7, 4, 0, 2, 7, 3, 7, 2, 7, 4, 0, 2, 7, 3, 9, 2, 9, 4, 0, 2, 9}, uint8(32))
	f.Fuzz(func(t *testing.T, ops []byte, sizeSeed uint8) {
		size := int(sizeSeed)%64 + 1
		c := newFlowCache(size)
		capacity := 1 // one entry a slot, size rounded up to a power of two
		for capacity < size {
			capacity <<= 1
		}
		resident := map[int]core.FlowKey{} // slot -> key of its last store
		var evictions, hits uint64
		put := func(k core.FlowKey, e *flowEntry) {
			if was, ok := resident[k.Shard(capacity)]; ok && was != k {
				evictions++
			}
			resident[k.Shard(capacity)] = k
			c.store(k, e)
		}
		var epoch uint64
		srcKeyed := true
		type stored struct {
			epoch    uint64
			srcKeyed bool
		}
		model := map[core.FlowKey]stored{} // key -> epoch and keying at last store
		for i := 0; i+1 < len(ops); i += 2 {
			sel := ops[i+1]
			k := core.FlowKey{
				Tenant: uint32(sel % 5),
				Src:    ethernet.LocalMAC(uint32(sel % 7)),
				Dst:    ethernet.LocalMAC(uint32(sel % 11)),
			}
			if !srcKeyed || sel%7 == 0 { // the zero source is a source too: both keyings can spell it
				k.Src = ethernet.MAC{}
			}
			switch ops[i] % 5 {
			case 0:
				put(k, &flowEntry{epoch: epoch, tenant: k.Tenant})
				model[k] = stored{epoch, srcKeyed}
			case 1:
				epoch++
			case 2:
				e := c.lookup(k, epoch)
				if e == nil {
					continue
				}
				hits++
				if e.epoch != epoch {
					t.Fatalf("stale entry served: entry epoch %d, current %d", e.epoch, epoch)
				}
				was, ok := model[k]
				if !ok || was.epoch != epoch {
					t.Fatalf("hit for key stored at epoch %d (present=%v), current %d", was.epoch, ok, epoch)
				}
				if was.srcKeyed != srcKeyed {
					t.Fatalf("hit on an entry stored source-keyed=%v while source-keyed=%v", was.srcKeyed, srcKeyed)
				}
				if e.tenant != k.Tenant {
					t.Fatalf("entry tenant %d under key tenant %d", e.tenant, k.Tenant)
				}
			case 3:
				// The forward path's miss leg: a miss fills, and the very
				// next lookup is a hit returning that same decision.
				if c.lookup(k, epoch) != nil {
					hits++
					continue
				}
				filled := &flowEntry{epoch: epoch, tenant: k.Tenant}
				put(k, filled)
				model[k] = stored{epoch, srcKeyed}
				if got := c.lookup(k, epoch); got != filled {
					t.Fatalf("hit after fill returned %+v, want the filled entry %+v", got, filled)
				}
				hits++
			case 4:
				// A source-qualified route appears or vanishes: the other
				// keying from here on, and the edit's epoch bump.
				srcKeyed = !srcKeyed
				epoch++
			}
		}
		gotHits, got := c.stats()
		if got > capacity {
			t.Fatalf("entries = %d, capacity bound %d (size %d)", got, capacity, size)
		}
		if gotHits != hits {
			t.Fatalf("hits = %d, want %d", gotHits, hits)
		}
		if got := c.evictions.Load(); got != evictions {
			t.Fatalf("evictions = %d, want one per displaced key: %d", got, evictions)
		}
	})
}

// BenchmarkFlowCacheLookup is the hit path's cost under parallel
// senders: one key per goroutine, and every goroutine on one shared key
// (one destination's entry read from every core).
func BenchmarkFlowCacheLookup(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "own_key"
		if shared {
			name = "shared_key"
		}
		b.Run(name, func(b *testing.B) {
			c := newFlowCache(flowCacheSize)
			var lanes atomic.Uint32
			b.RunParallel(func(pb *testing.PB) {
				k := core.FlowKey{Dst: ethernet.LocalMAC(1)}
				if !shared {
					k.Dst = ethernet.LocalMAC(100 + lanes.Add(1))
				}
				for pb.Next() {
					if c.lookup(k, 0) == nil {
						c.store(k, &flowEntry{})
					}
				}
			})
		})
	}
}
