// The flow cache's key follows the installed rules (ISSUE 24): the
// source MAC is part of it only while some route carries a source
// qualifier. These tests hold the keyed cache to the uncached resolve
// frame by frame over random rule sets, flip the keying under traffic,
// bound what a source scan can occupy, and pin the per-(src, dst)
// accounting that many sources sharing one entry must not blur.
package overlay

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
)

// keyingNode is one side of the differential: a node with two tenants,
// each with two local endpoints and two links to a discard port.
type keyingNode struct {
	n     *Node
	eps   []*Endpoint // tenant-major: t0-e0, t0-e1, t7-e0, t7-e1
	got   []uint64    // frames drained from eps[i]
	links []string
}

var keyingTenants = []uint32{core.DefaultTenant, 7}

func newKeyingNode(t *testing.T, cfg NodeConfig) *keyingNode {
	t.Helper()
	k := &keyingNode{n: dropNode(t, cfg)}
	if err := k.n.AddTenant(7, bytes.Repeat([]byte{0x24}, 32)); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range keyingTenants {
		for i := 0; i < 2; i++ {
			// Endpoint MACs sit outside the frame pool: the attach routes
			// (dst exact, src any) are part of every rule set all the same.
			ep, err := k.n.AttachEndpointTenant(fmt.Sprintf("t%d-e%d", tenant, i), ethernet.LocalMAC(uint32(50+i)), 1500, tenant)
			if err != nil {
				t.Fatal(err)
			}
			k.eps = append(k.eps, ep)
			id := fmt.Sprintf("t%d-l%d", tenant, i)
			if err := k.n.AddLinkTenant(id, "127.0.0.1:9", "udp", tenant); err != nil {
				t.Fatal(err)
			}
			k.links = append(k.links, id)
		}
	}
	k.got = make([]uint64, len(k.eps))
	return k
}

// state is everything a frame may move, cumulative, once every link has
// flushed it: what each endpoint received, what each link sent, the
// ledger by reason, both tenants' indicators and the frame's own flow.
func (k *keyingNode) state(t *testing.T, src, dst ethernet.MAC) []uint64 {
	for i, ep := range k.eps {
		for {
			if _, ok := ep.TryRecv(); !ok {
				break
			}
			k.got[i]++
		}
	}
	v := append([]uint64(nil), k.got...)
	topo := k.n.topo.Load()
	for _, id := range k.links {
		waitIdle(t, topo.links[id])
		v = append(v, topo.links[id].bytesSent.Load())
	}
	for _, r := range dropReasons {
		v = append(v, k.n.ledger.Count(r))
	}
	for _, tenant := range keyingTenants {
		sli := k.n.slis.get(tenant)
		v = append(v, sli.framesOut.Load(), sli.bytesOut.Load(), sli.framesIn.Load(), sli.drops.Load())
	}
	fl := k.n.flows.Acquire(src, dst)
	return append(v, k.n.EncapSent.Load(), k.n.Delivered.Load(), atomic.LoadUint64(&fl.Packets), atomic.LoadUint64(&fl.Bytes))
}

// TestKeyedCacheEqualsUncached is the equivalence differential: a node
// with the flow cache on and a FlowCacheDisabled node are given the same
// random rule sets (any / exact / not- source qualifiers × exact / not- /
// any destinations × backups × two tenants × foreign and absent targets)
// and the same random frames, local and from the wire, with rules added,
// removed, failed over and — every so often — every source-qualified
// rule withdrawn, so the keying flips both ways mid-stream. After every
// frame both nodes must have delivered, forwarded, refused and accounted
// exactly the same.
func TestKeyedCacheEqualsUncached(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { keyedEqualsUncached(t, seed) })
	}
}

func keyedEqualsUncached(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cached, plain := newKeyingNode(t, NodeConfig{}), newKeyingNode(t, NodeConfig{FlowCacheDisabled: true})
	both := []*keyingNode{cached, plain}
	// The zero MAC is a legal source, and the spelling of "any source" in
	// a source-less cache key: it must not be served another's decision.
	srcs := []ethernet.MAC{{}, ethernet.LocalMAC(1), ethernet.LocalMAC(2), ethernet.LocalMAC(3), ethernet.LocalMAC(4)}
	dsts := []ethernet.MAC{ethernet.LocalMAC(11), ethernet.LocalMAC(12), ethernet.LocalMAC(13), ethernet.LocalMAC(50), ethernet.LocalMAC(51)}
	qual := func(anyPct, exactPct int) core.Qualifier {
		switch p := rng.Intn(100); {
		case p < anyPct:
			return core.QualAny
		case p < anyPct+exactPct:
			return core.QualExact
		}
		return core.QualNot
	}
	target := func(tenant uint32) core.Destination {
		if p := rng.Intn(100); p < 6 {
			return core.Destination{Type: core.DestLink, ID: "ghost"}
		} else if p < 16 {
			tenant = 7 - tenant // another tenant's endpoint or link
		}
		if rng.Intn(2) == 0 {
			return core.Destination{Type: core.DestInterface, ID: fmt.Sprintf("t%d-e%d", tenant, rng.Intn(2))}
		}
		return core.Destination{Type: core.DestLink, ID: fmt.Sprintf("t%d-l%d", tenant, rng.Intn(2))}
	}
	var rules []core.Route
	addRule := func(srcAnyPct int) {
		tenant := keyingTenants[rng.Intn(2)]
		r := core.Route{Tenant: tenant,
			SrcMAC: srcs[rng.Intn(len(srcs))], SrcQual: qual(srcAnyPct, (100-srcAnyPct)/2),
			DstMAC: dsts[rng.Intn(len(dsts))], DstQual: qual(20, 60),
			Dest: target(tenant)}
		if rng.Intn(3) == 0 {
			r.Backup, r.HasBackup = target(tenant), true
		}
		rules = append(rules, r)
		for _, k := range both {
			if err := k.n.AddRoute(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	delRule := func(i int) {
		for _, k := range both {
			if err := k.n.DelRoute(rules[i]); err != nil {
				t.Fatal(err)
			}
		}
		rules = append(rules[:i], rules[i+1:]...)
	}
	ruleList := func() (out []string) {
		for i := range rules {
			out = append(out, rules[i].String())
		}
		return out
	}
	for i := 0; i < 6; i++ {
		addRule(100)
	}
	var frames, keyed, unkeyed, flips int
	was := false
	for step := 0; step < 8000; step++ {
		switch p := rng.Intn(1000); {
		case p < 20:
			addRule(55)
		case p < 34 && len(rules) > 0:
			delRule(rng.Intn(len(rules)))
		case p < 42: // withdraw every source-qualified rule: back to one entry per destination
			for i := len(rules) - 1; i >= 0; i-- {
				if rules[i].SrcQual != core.QualAny {
					delRule(i)
				}
			}
		case p < 52: // fail a destination over, or back
			tenant := keyingTenants[rng.Intn(2)]
			d, fail := target(tenant), rng.Intn(2) == 0
			for _, k := range both {
				if tbl := k.n.tenants.Table(tenant); fail {
					tbl.FailDest(d)
				} else {
					tbl.RestoreDest(d)
				}
			}
		default:
			src, dst := srcs[rng.Intn(len(srcs))], dsts[rng.Intn(len(dsts))]
			from, wire := rng.Intn(len(cached.eps)), rng.Intn(4) == 0
			var errs [2]bool
			var states [2][]uint64
			for i, k := range both {
				f := testFrame(src, dst)
				if wire {
					errs[i] = k.n.routeTenantAt(f, nil, false, k.eps[from].tenant) != nil
				} else {
					errs[i] = k.eps[from].Send(f) != nil
				}
				states[i] = k.state(t, src, dst)
			}
			if errs[0] != errs[1] || !reflect.DeepEqual(states[0], states[1]) {
				t.Fatalf("step %d: frame %s->%s (tenant %d, wire=%v, source-keyed=%v) diverged:\ncached   err=%v %v\nuncached err=%v %v\nrules:\n%s",
					step, src, dst, cached.eps[from].tenant, wire, cached.n.tenants.SourceQualified(),
					errs[0], states[0], errs[1], states[1], strings.Join(ruleList(), "\n"))
			}
			frames++
			if cached.n.tenants.SourceQualified() {
				keyed++
			} else {
				unkeyed++
			}
		}
		if now := cached.n.tenants.SourceQualified(); now != was {
			was = now
			flips++
		}
	}
	// Details carry the frame's real source under either keying: both
	// ledgers' tails and both heavy-hitter sets name the same flows.
	tails := func(k *keyingNode) (out []string) {
		for _, r := range dropReasons {
			for _, rec := range k.n.ledger.Snapshot()[r] {
				out = append(out, fmt.Sprint(rec.Reason, rec.Tenant, rec.Scope, rec.Flow, rec.Stage))
			}
		}
		return out
	}
	if a, b := tails(cached), tails(plain); !reflect.DeepEqual(a, b) {
		t.Fatalf("ledger tails differ:\ncached   %v\nuncached %v", a, b)
	}
	if a, b := cached.n.flows.Top(0), plain.n.flows.Top(0); !reflect.DeepEqual(a, b) {
		t.Fatalf("FlowStats differ:\ncached   %v\nuncached %v", a, b)
	}
	if a, b := cached.n.TopFlowEntries(), plain.n.TopFlowEntries(); !reflect.DeepEqual(a, b) {
		t.Fatalf("heavy hitters differ:\ncached   %v\nuncached %v", a, b)
	}
	hits, misses, _, _ := cached.n.FlowCacheStats()
	led := cached.n.ledger
	if keyed < frames/10 || unkeyed < frames/10 || flips < 6 || hits < uint64(frames)/4 || misses == 0 ||
		cached.n.Delivered.Load() == 0 || cached.n.EncapSent.Load() == 0 ||
		led.Count(dropNoRoute) == 0 || led.Count(dropCrossTenant) == 0 {
		t.Fatalf("the stream did not cover both keyings and every verdict: %d frames (%d source-keyed, %d not, %d flips), hits=%d misses=%d delivered=%d sent=%d no_route=%d cross_tenant=%d",
			frames, keyed, unkeyed, flips, hits, misses, cached.n.Delivered.Load(), cached.n.EncapSent.Load(),
			led.Count(dropNoRoute), led.Count(dropCrossTenant))
	}
}

// TestKeyingFlipUnderTraffic: four senders cycle 64 sources to one
// destination while a source-qualified route for one of them is added
// and deleted in a loop. After each add returns, that source's next frame
// takes the qualified route and no other source's does; after each
// delete returns, none does. Frames in flight across an edit may see
// either rule set — but only ever their own source's answer, so no other
// source's frame reaches the qualified target at any time. Nothing
// crosses tenants, and every admitted frame is delivered or on the
// ledger.
func TestKeyingFlipUnderTraffic(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	const sources, workers = 64, 4
	dst, chosen := ethernet.LocalMAC(9000), ethernet.LocalMAC(17)
	tx, err := n.AttachEndpoint("tx", ethernet.LocalMAC(8000), 1500)
	if err != nil {
		t.Fatal(err)
	}
	all, err := n.AttachEndpoint("all", ethernet.LocalMAC(8001), 1500)
	if err != nil {
		t.Fatal(err)
	}
	one, err := n.AttachEndpoint("one", ethernet.LocalMAC(8002), 1500)
	if err != nil {
		t.Fatal(err)
	}
	n.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "all"}})
	qualified := core.Route{DstMAC: dst, DstQual: core.QualExact, SrcMAC: chosen, SrcQual: core.QualExact,
		Dest: core.Destination{Type: core.DestInterface, ID: "one"}}

	type arrival struct {
		at  *Endpoint
		src ethernet.MAC
	}
	probes := make(chan arrival, 8) // frames the editor sent itself (payload 'p')
	var admitted, drained atomic.Uint64
	var stray atomic.Value // first foreign source seen at the qualified target
	stop := make(chan struct{})
	var senders, drains sync.WaitGroup
	for _, ep := range []*Endpoint{all, one} {
		drains.Add(1)
		go func(ep *Endpoint) {
			defer drains.Done()
			for {
				f, ok := ep.Recv(10 * time.Millisecond)
				if !ok {
					select {
					case <-stop:
						return
					default:
						continue
					}
				}
				drained.Add(1)
				if ep == one && f.Src != chosen {
					stray.CompareAndSwap(nil, f.Src.String())
				}
				if f.Payload[0] == 'p' {
					probes <- arrival{ep, f.Src}
				}
			}
		}(ep)
	}
	send := func(src ethernet.MAC, mark byte) {
		admitted.Add(1)
		if err := tx.Send(&ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeTest, Payload: []byte{mark}}); err != nil {
			t.Error(err)
		}
	}
	for w := 0; w < workers; w++ {
		senders.Add(1)
		go func(w int) {
			defer senders.Done()
			for i := w; ; i += workers {
				select {
				case <-stop:
					return
				default:
				}
				// Windowed well inside the endpoint ring: nothing is shed, so
				// where a frame arrived is always observable.
				for admitted.Load()-drained.Load() > epRingDepth/4 {
					time.Sleep(20 * time.Microsecond)
				}
				send(ethernet.LocalMAC(uint32(1+i%sources)), 'b')
			}
		}(w)
	}
	probe := func(when string, present bool) {
		t.Helper()
		for _, src := range []ethernet.MAC{chosen, ethernet.LocalMAC(16), ethernet.LocalMAC(18)} {
			send(src, 'p')
			select {
			case got := <-probes:
				want := all
				if present && src == chosen {
					want = one
				}
				if got.src != src || got.at != want {
					t.Fatalf("%s: frame of %s arrived at %q as %s, want %q", when, src, got.at.name, got.src, want.name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: frame of %s never arrived", when, src)
			}
		}
	}
	for round := 0; round < 200; round++ {
		if err := n.AddRoute(qualified); err != nil {
			t.Fatal(err)
		}
		probe(fmt.Sprintf("round %d, after the add", round), true)
		if err := n.DelRoute(qualified); err != nil {
			t.Fatal(err)
		}
		probe(fmt.Sprintf("round %d, after the delete", round), false)
	}
	close(stop)
	senders.Wait()
	drains.Wait()
	if src := stray.Load(); src != nil {
		t.Fatalf("a frame of %v reached the route qualified for %s", src, chosen)
	}
	if got := n.ledger.Count(dropCrossTenant); got != 0 {
		t.Fatalf("cross_tenant = %d", got)
	}
	if d, l, a := n.Delivered.Load(), n.ledger.Total(), admitted.Load(); d+l != a || l != 0 {
		t.Fatalf("conservation: delivered %d + ledger %d, admitted %d (and nothing should have been shed)", d, l, a)
	}
	if hits, misses, _, _ := n.FlowCacheStats(); hits < misses {
		t.Fatalf("hits=%d misses=%d: the cache never settled between edits", hits, misses)
	}
}

// TestSourceScanOccupiesOneEntry: 100 000 distinct sources to one
// destination are one forwarding decision — one cache entry, no
// evictions, one miss — and the per-flow accounting they do fan out into
// stays inside its own bound.
func TestSourceScanOccupiesOneEntry(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	tx, err := n.AttachEndpoint("tx", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	const scan = 100000
	for i := 0; i < scan; i++ {
		if err := tx.Send(testFrame(ethernet.LocalMAC(uint32(1000+i)), sink.MAC())); err != nil {
			t.Fatal(err)
		}
		sink.TryRecv()
	}
	hits, misses, evictions, entries := n.FlowCacheStats()
	if entries != 1 || evictions != 0 || misses != 1 || hits != scan-1 {
		t.Fatalf("hits=%d misses=%d evictions=%d entries=%d, want %d/1/0/1", hits, misses, evictions, entries, scan-1)
	}
	if got := Metric(t, n, "vnetp_flow_cache_entries"); got != 1 {
		t.Fatalf("vnetp_flow_cache_entries = %d, want 1", got)
	}
	if got := n.flows.Len(); got > 4096 {
		t.Fatalf("FlowStats tracks %d flows, bound is 4096", got)
	}
	if got := n.Delivered.Load(); got != scan {
		t.Fatalf("delivered %d of %d", got, scan)
	}
}

// TestSharedEntryAccountsPerSource: three local sources interleaved
// through one cache entry — the memo changes hands on every frame — end
// with exact per-(src, dst) packet and byte counts, in FlowStats and in
// the tenant's heavy-hitter set.
func TestSharedEntryAccountsPerSource(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	tx, err := n.AttachEndpoint("tx", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	want := map[ethernet.MAC][2]uint64{} // src → packets, bytes
	for i := 0; i < 999; i++ {
		src := ethernet.LocalMAC(uint32(100 + i%3))
		if i%7 == 0 {
			src = ethernet.LocalMAC(100) // runs of one source too: memo hits
		}
		f := testFrame(src, sink.MAC())
		f.Payload = make([]byte, 10+i%50)
		if err := tx.Send(f); err != nil {
			t.Fatal(err)
		}
		sink.TryRecv()
		w := want[src]
		want[src] = [2]uint64{w[0] + 1, w[1] + uint64(f.Len())}
	}
	if _, misses, _, entries := n.FlowCacheStats(); misses != 1 || entries != 1 {
		t.Fatalf("misses=%d entries=%d: the three sources did not share one entry", misses, entries)
	}
	top := n.flows.Top(0)
	if len(top) != 3 {
		t.Fatalf("FlowStats tracks %d flows, want 3: %v", len(top), top)
	}
	for _, fl := range top {
		if w := want[fl.Src]; fl.Dst != sink.MAC() || fl.Packets != w[0] || fl.Bytes != w[1] {
			t.Fatalf("flow %s->%s: %d packets %d bytes, want %d and %d", fl.Src, fl.Dst, fl.Packets, fl.Bytes, w[0], w[1])
		}
	}
	hh := n.TopFlowEntries()[0]
	if len(hh) != 3 {
		t.Fatalf("heavy hitters = %v, want the three flows", hh)
	}
	for _, e := range hh {
		if w := want[e.Key.Src]; e.Packets != w[0] || e.Bytes != w[1] {
			t.Fatalf("heavy hitter %v: want %d packets %d bytes", e, w[0], w[1])
		}
	}
}

// TestWireFilledEntryMemoisesLocalFlow: an entry filled by a forwarded
// frame has no flow memo; the first local frame through it acquires one
// and every later frame of that source accounts into it without going
// back to FlowStats. The table is reset under the memo to show it: a
// thousand more frames leave it empty (an Acquire would have re-inserted
// the flow) while the memoised flow keeps counting.
func TestWireFilledEntryMemoisesLocalFlow(t *testing.T) {
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
	if err := n.routeTenantAt(f, nil, false, core.DefaultTenant); err != nil { // the fill, from the wire
		t.Fatal(err)
	}
	if n.flows.Len() != 0 {
		t.Fatal("a forwarded frame was flow-accounted")
	}
	send := func(frames int) {
		t.Helper()
		for i := 0; i < frames; i++ {
			if err := tx.Send(f); err != nil {
				t.Fatal(err)
			}
			sink.TryRecv()
		}
	}
	send(1000)
	if _, misses, _, entries := n.FlowCacheStats(); misses != 1 || entries != 1 {
		t.Fatalf("misses=%d entries=%d: local frames did not hit the wire-filled entry", misses, entries)
	}
	top := n.flows.Top(0)
	if len(top) != 1 || top[0].Packets != 1000 || top[0].Bytes != uint64(1000*f.Len()) {
		t.Fatalf("FlowStats = %v, want one flow of 1000 packets", top)
	}
	e := n.fcache.lookup(core.FlowKey{Dst: sink.MAC()}, n.FlowEpoch())
	if e == nil || e.fl.Load() == nil {
		t.Fatalf("entry %+v carries no memo after local traffic", e)
	}
	n.flows.Reset()
	send(1000)
	if got := n.flows.Len(); got != 0 {
		t.Fatalf("FlowStats re-acquired %d flows: hits did not use the memo", got)
	}
	if got := atomic.LoadUint64(&e.fl.Load().Packets); got != 2000 {
		t.Fatalf("memoised flow counted %d packets, want 2000", got)
	}
}

// TestRxShardMemoisesTenantSLI: the per-tenant latency sample of a
// delivered frame comes from the shard's one-slot memo of the last
// tenant, not from a map probe per frame — and a memo must never charge
// the wrong tenant: two tenants interleaved through one shard each end
// with exactly their own samples. The path allocates nothing.
func TestRxShardMemoisesTenantSLI(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 1})
	tenants := []uint32{3000, 3001}
	var sinks [2]*Endpoint
	for i, tenant := range tenants {
		if err := n.AddTenant(tenant, bytes.Repeat([]byte{byte(1 + i)}, 32)); err != nil {
			t.Fatal(err)
		}
		var err error
		if sinks[i], err = n.AttachEndpointTenant(fmt.Sprint("sink", i), ethernet.LocalMAC(2), 1500, tenant); err != nil {
			t.Fatal(err)
		}
	}
	f, s, at := testFrame(ethernet.LocalMAC(1), ethernet.LocalMAC(2)), n.shards[0], n.mono()
	deliver := func(i int) {
		n.routeTenantAt(f, nil, false, tenants[i])
		n.sampleRx(s, tenants[i], 1, at)
		if _, ok := sinks[i].TryRecv(); !ok {
			t.Fatalf("tenant %d: frame not delivered", tenants[i])
		}
	}
	for i := 0; i < 300; i++ { // 0 0 1 0 0 1 …: memo hits and hand-overs
		deliver(i % 3 / 2)
	}
	for i, want := range []uint64{200, 100} {
		if got := n.slis.get(tenants[i]).rxLatency.Count(); got != want {
			t.Fatalf("tenant %d has %d latency samples, want %d", tenants[i], got, want)
		}
	}
	if s.sli.Load() != n.slis.get(tenants[1]) {
		t.Fatal("the shard's memo is not the last tenant's handle set")
	}
	if allocs := testing.AllocsPerRun(200, func() { deliver(0) }); allocs != 0 {
		t.Fatalf("a delivered frame allocates %.1f objects", allocs)
	}
}
