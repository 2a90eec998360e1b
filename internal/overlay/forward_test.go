// Miss ≡ hit differential (ISSUE 13): a unicast frame is forwarded by
// one function whether its decision came from the flow cache, was just
// resolved, or is never stored — so the first frame of a flow (a miss)
// and the second (a hit) must put the same bytes on the wire and move
// every counter by the same amount, on every kind of target. The
// verdict half pins the other side of the same invariant: a frame that
// cannot be forwarded lands on exactly one ledger reason and its legacy
// counter, every time, and its decision is never cached.
package overlay

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
	"vnetp/internal/seal"
)

// wireTap is a bare socket standing in for the remote node: it hands
// the test every encapsulation datagram a link put on the wire.
type wireTap struct {
	addr string
	ch   chan []byte
}

func newWireTap(t *testing.T, proto string) *wireTap {
	t.Helper()
	tap := &wireTap{ch: make(chan []byte, 64)}
	if proto == "tcp" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		tap.addr = ln.Addr().String()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					return
				}
				d := make([]byte, binary.BigEndian.Uint32(hdr[:]))
				if _, err := io.ReadFull(conn, d); err != nil {
					return
				}
				tap.ch <- d
			}
		}()
		return tap
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	tap.addr = conn.LocalAddr().String()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			tap.ch <- append([]byte(nil), buf[:n]...)
		}
	}()
	return tap
}

// wireDatagram is one captured datagram with everything that
// legitimately differs between two sends of the same frame masked out:
// the encap ID, the trace ID, and — on a sealed link — the nonce and
// the ciphertext it keys (the opened plaintext is compared instead).
type wireDatagram struct {
	Header  bridge.EncapHeader
	Payload []byte
}

func (tap *wireTap) frame(t *testing.T, count int, kr *seal.Keyring) []wireDatagram {
	t.Helper()
	out := make([]wireDatagram, 0, count)
	for len(out) < count {
		select {
		case raw := <-tap.ch:
			h, payload, err := bridge.ParseEncap(raw)
			if err != nil {
				t.Fatalf("datagram %d does not parse: %v", len(out), err)
			}
			if h.HasSeal {
				pt, err := kr.Open(h.Seal.Tenant, h.Seal.Nonce, raw[:len(raw)-len(payload)], payload)
				if err != nil {
					t.Fatalf("datagram %d does not open: %v", len(out), err)
				}
				payload = pt
				h.Seal.Nonce = 0
			}
			h.ID, h.Trace.ID = 0, 0
			out = append(out, wireDatagram{Header: *h, Payload: append([]byte(nil), payload...)})
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d datagrams reached the wire", len(out), count)
		}
	}
	select {
	case <-tap.ch:
		t.Fatalf("more than %d datagrams for one frame", count)
	case <-time.After(20 * time.Millisecond):
	}
	return out
}

// forwardCounters is every counter a forwarded frame may move.
type forwardCounters struct {
	EncapSent, Delivered, LinkBytes, SealedSent uint64
	OutFrames, OutBytes, InFrames, InBytes      uint64
	FlowBytes, FlowPackets                      uint64
	TxSamples, Drops                            uint64
}

func (c forwardCounters) minus(o forwardCounters) forwardCounters {
	a, b := reflect.ValueOf(&c).Elem(), reflect.ValueOf(o)
	for i := 0; i < a.NumField(); i++ {
		a.Field(i).SetUint(a.Field(i).Uint() - b.Field(i).Uint())
	}
	return c
}

func readForwardCounters(n *Node, tenant uint32, linkID string, src, dst ethernet.MAC) forwardCounters {
	sli := n.slis.get(tenant)
	fl := n.flows.Acquire(src, dst)
	c := forwardCounters{
		EncapSent: n.EncapSent.Load(), Delivered: n.Delivered.Load(),
		SealedSent: n.metrics.sealSealed.Load(),
		OutFrames:  sli.framesOut.Load(), OutBytes: sli.bytesOut.Load(),
		InFrames: sli.framesIn.Load(), InBytes: sli.bytesIn.Load(),
		FlowBytes: fl.Bytes, FlowPackets: fl.Packets,
		TxSamples: n.metrics.txLatency.Count(), Drops: n.ledger.Total(),
	}
	n.mu.Lock()
	if lk := n.topo.Load().links[linkID]; lk != nil {
		c.LinkBytes = lk.bytesSent.Load()
	}
	n.mu.Unlock()
	return c
}

func TestForwardMissEqualsHit(t *testing.T) {
	const tenant = 7
	key := bytes.Repeat([]byte{0x5a}, 32)
	cases := []struct {
		name    string
		cfg     NodeConfig
		proto   string // "" = deliver to a local endpoint
		tenant  uint32
		fault   bool
		traced  bool
		bySrc   bool // a source-qualified route is installed: the cache keys on the source too
		datagrs int  // datagrams per 3000-byte frame
	}{
		{name: "plain_udp", proto: "udp", datagrs: 3},
		{name: "sealed_tenant_link", proto: "udp", tenant: tenant, datagrs: 3},
		{name: "tcp_link", proto: "tcp", datagrs: 1},
		{name: "fault_conduit", proto: "udp", fault: true, datagrs: 3},
		{name: "traced", proto: "udp", traced: true, datagrs: 3},
		{name: "batched_link", cfg: RingConfig(), proto: "udp", datagrs: 3},
		{name: "local_endpoint"},
		{name: "cache_disabled_link", cfg: NodeConfig{FlowCacheDisabled: true}, proto: "udp", datagrs: 3},
		{name: "cache_disabled_local", cfg: NodeConfig{FlowCacheDisabled: true}},
		{name: "source_keyed_link", proto: "udp", tenant: tenant, bySrc: true, datagrs: 3},
		{name: "source_keyed_local", bySrc: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := dropNode(t, tc.cfg)
			kr := seal.NewKeyring(1)
			if tc.tenant != 0 {
				if err := n.AddTenant(tc.tenant, key); err != nil {
					t.Fatal(err)
				}
				kr.AddTenant(tc.tenant, key)
			}
			src, err := n.AttachEndpointTenant("src", ethernet.LocalMAC(1), 9000, tc.tenant)
			if err != nil {
				t.Fatal(err)
			}
			dst := ethernet.LocalMAC(2)
			var tap *wireTap
			var sink *Endpoint
			if tc.proto == "" {
				if sink, err = n.AttachEndpointTenant("sink", dst, 9000, tc.tenant); err != nil {
					t.Fatal(err)
				}
			} else {
				tap = newWireTap(t, tc.proto)
				if err := n.AddLinkTenant("wire", tap.addr, tc.proto, tc.tenant); err != nil {
					t.Fatal(err)
				}
				if tc.fault {
					n.SetLinkFault("wire", faultnet.New(faultnet.Config{}))
				}
				if err := n.AddRoute(core.Route{Tenant: tc.tenant, DstMAC: dst, DstQual: core.QualExact,
					SrcQual: core.QualAny, Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.bySrc { // a rule no frame here matches: it changes the keying, not an answer
				if err := n.AddRoute(core.Route{Tenant: tc.tenant, DstMAC: ethernet.LocalMAC(77), DstQual: core.QualExact,
					SrcMAC: ethernet.LocalMAC(99), SrcQual: core.QualNot,
					Dest: core.Destination{Type: core.DestInterface, ID: "ghost"}}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.traced {
				n.tracer.Start(1)
			}
			payload := make([]byte, 3000)
			for i := range payload {
				payload[i] = byte(i * 7)
			}
			// send forwards one copy of the frame and reports what it put
			// on the wire (or delivered) and which counters it moved.
			send := func(from ethernet.MAC) ([]wireDatagram, forwardCounters) {
				t.Helper()
				before := readForwardCounters(n, tc.tenant, "wire", from, dst)
				f := &ethernet.Frame{Dst: dst, Src: from, Type: ethernet.TypeTest, Payload: payload}
				if err := src.Send(f); err != nil {
					t.Fatal(err)
				}
				var wire []wireDatagram
				if tap != nil {
					wire = tap.frame(t, tc.datagrs, kr)
					// The batched sender counts after its flush returns.
					deadline := time.Now().Add(5 * time.Second)
					for n.EncapSent.Load() == before.EncapSent && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
				} else {
					got, ok := sink.Recv(5 * time.Second)
					if !ok || got != f {
						t.Fatalf("local delivery: got %v, %v", got, ok)
					}
				}
				return wire, readForwardCounters(n, tc.tenant, "wire", from, dst).minus(before)
			}
			missWire, miss := send(src.MAC())
			hitWire, hit := send(src.MAC())

			hits, misses, _, entries := n.FlowCacheStats()
			if tc.cfg.FlowCacheDisabled {
				if hits+misses != 0 || entries != 0 {
					t.Fatalf("disabled cache saw hits=%d misses=%d entries=%d", hits, misses, entries)
				}
			} else if misses != 1 || hits != 1 || entries != 1 {
				t.Fatalf("hits=%d misses=%d entries=%d: want the first frame to miss and fill, the second to hit",
					hits, misses, entries)
			}
			if !reflect.DeepEqual(missWire, hitWire) {
				t.Fatalf("wire bytes differ between miss and hit:\nmiss %+v\nhit  %+v", missWire, hitWire)
			}
			if miss != hit {
				t.Fatalf("counters moved differently:\nmiss %+v\nhit  %+v", miss, hit)
			}
			// And the amounts are the right ones, not merely equal.
			flen := uint64(ethernet.HeaderLen + len(payload))
			want := forwardCounters{OutFrames: 1, OutBytes: flen, FlowBytes: flen, FlowPackets: 1}
			if tap != nil {
				want.EncapSent = 1
				for _, d := range missWire {
					want.LinkBytes += uint64(d.Header.WireLen() + len(d.Payload))
				}
				if tc.tenant != 0 {
					want.SealedSent = uint64(tc.datagrs)
					want.LinkBytes += uint64(tc.datagrs * seal.Overhead)
				}
				if !tc.cfg.Adaptive.Enabled {
					want.TxSamples = 1
				} else {
					want.TxSamples = hit.TxSamples // sampled by the batched sender
				}
			} else {
				want.Delivered, want.InFrames, want.InBytes = 1, 1, flen
			}
			if hit != want {
				t.Fatalf("counters per frame:\ngot  %+v\nwant %+v", hit, want)
			}
			// A second source to the same destination is the same decision,
			// charged to its own flow: through the first source's entry (a
			// hit) while no route has a source qualifier, through one of its
			// own (a miss) once any route on the node has.
			otherWire, other := send(ethernet.LocalMAC(3))
			if tc.cfg.Adaptive.Enabled {
				want.TxSamples = other.TxSamples
			}
			if other != want || len(otherWire) != len(hitWire) {
				t.Fatalf("second source:\ngot  %+v in %d datagrams\nwant %+v in %d", other, len(otherWire), want, len(hitWire))
			}
			wantHits, wantMisses := uint64(2), uint64(1)
			if tc.bySrc {
				wantHits, wantMisses = 1, 2
			}
			if tc.cfg.FlowCacheDisabled {
				wantHits, wantMisses = 0, 0
			}
			if hits, misses, _, entries := n.FlowCacheStats(); hits != wantHits || misses != wantMisses || entries != int(wantMisses) {
				t.Fatalf("after a second source: hits=%d misses=%d entries=%d, want %d/%d/%d", hits, misses, entries, wantHits, wantMisses, wantMisses)
			}
		})
	}
}

// TestForwardVerdicts: a unicast frame that cannot be forwarded lands on
// exactly one ledger reason and that reason's legacy counter — the
// first time and every time after, cache on or off — is still charged
// to its tenant and flow, and leaves nothing in the flow cache.
func TestForwardVerdicts(t *testing.T) {
	const other = 7
	key := bytes.Repeat([]byte{0x33}, 32)
	dst := ethernet.LocalMAC(2)
	route := func(d core.Destination) *core.Route {
		return &core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny, Dest: d}
	}
	cases := []struct {
		name    string
		route   *core.Route
		tenant  uint32 // forwarded in this tenant instead of sent by the endpoint
		reason  string
		wantErr bool
	}{
		{name: "no_route", reason: dropNoRoute, wantErr: true},
		{name: "unknown_tenant", tenant: 99, reason: dropNoRoute, wantErr: true},
		{name: "absent_link", route: route(core.Destination{Type: core.DestLink, ID: "ghost"}), reason: dropNoRoute},
		{name: "absent_interface", route: route(core.Destination{Type: core.DestInterface, ID: "ghost"}), reason: dropNoRoute},
		{name: "cross_tenant_endpoint", route: route(core.Destination{Type: core.DestInterface, ID: "theirs"}), reason: dropCrossTenant},
		{name: "cross_tenant_link", route: route(core.Destination{Type: core.DestLink, ID: "theirs"}), reason: dropCrossTenant},
	}
	for _, disabled := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if disabled {
				name += "/cache_disabled"
			}
			t.Run(name, func(t *testing.T) {
				n := dropNode(t, NodeConfig{FlowCacheDisabled: disabled})
				if err := n.AddTenant(other, key); err != nil {
					t.Fatal(err)
				}
				if _, err := n.AttachEndpointTenant("theirs", ethernet.LocalMAC(9), 1500, other); err != nil {
					t.Fatal(err)
				}
				if err := n.AddLinkTenant("theirs", "127.0.0.1:9", "udp", other); err != nil {
					t.Fatal(err)
				}
				src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
				if err != nil {
					t.Fatal(err)
				}
				if tc.route != nil {
					if err := n.AddRoute(*tc.route); err != nil {
						t.Fatal(err)
					}
				}
				family := "vnetp_no_route_drops_total"
				if tc.reason == dropCrossTenant {
					family = "vnetp_cross_tenant_drops_total"
				}
				for i := uint64(1); i <= 3; i++ {
					f := testFrame(src.MAC(), dst)
					var err error
					if tc.tenant != 0 {
						err = n.routeTenantAt(f, nil, time.Time{}, tc.tenant)
					} else {
						err = src.Send(f)
					}
					if (err != nil) != tc.wantErr {
						t.Fatalf("frame %d: err = %v, want error %v", i, err, tc.wantErr)
					}
					if got, total, view := n.ledger.Count(tc.reason), n.ledger.Total(), Metric(t, n, family); got != i || total != i || view != i {
						t.Fatalf("frame %d: ledger %s=%d total=%d %s=%d, want %d each",
							i, tc.reason, got, total, family, view, i)
					}
					if tc.tenant == 0 {
						if out := n.slis.get(0).framesOut.Load(); out != i {
							t.Fatalf("frame %d: tenant frames out = %d", i, out)
						}
						if fl := n.flows.Acquire(src.MAC(), dst); fl.Packets != i {
							t.Fatalf("frame %d: flow packets = %d", i, fl.Packets)
						}
					}
				}
				if hits, _, _, entries := n.FlowCacheStats(); hits != 0 || entries != 0 {
					t.Fatalf("a drop verdict was cached: hits=%d entries=%d", hits, entries)
				}
				if n.Delivered.Load() != 0 || n.EncapSent.Load() != 0 {
					t.Fatalf("delivered=%d encap_sent=%d, want nothing forwarded",
						n.Delivered.Load(), n.EncapSent.Load())
				}
			})
		}
	}
}

// TestResolveFlowKeepsFillEpoch: the epoch an entry is stored under is
// the one read before the resolve began, so an invalidation that lands
// while the resolve runs leaves the entry stale instead of current.
func TestResolveFlowKeepsFillEpoch(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := n.AttachEndpoint("sink", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	key := core.FlowKey{Src: src.MAC(), Dst: sink.MAC()}
	epoch := n.FlowEpoch()
	n.bumpFlowEpoch() // lands between the epoch read and the backing lookup
	e := &flowEntry{epoch: epoch, tenant: key.Tenant}
	_, bySrc, err := n.resolveFlow(e, key)
	if err != nil || bySrc || e.ep != sink || e.epoch != epoch {
		t.Fatalf("resolve = %+v bySrc=%v err=%v, want sink at fill epoch %d, for any source", e, bySrc, err, epoch)
	}
	n.fcache.store(key, e)
	if got := n.fcache.lookup(key, n.FlowEpoch()); got != nil {
		t.Fatalf("entry resolved across an epoch bump served as current: %+v", got)
	}
}

// TestFillRacingRemovalIsStranded: DelLink and DetachEndpoint publish the
// topology without their target BEFORE they bump the flow epoch, so a
// fill that read the bumped epoch can only have resolved against the
// topology without it — and a fill that did resolve to the removed
// target read the epoch from before the bump, which strands its entry
// stale. Fills race removals here, and every one is held to that rule.
func TestFillRacingRemovalIsStranded(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	linkKey := core.FlowKey{Src: ethernet.LocalMAC(1), Dst: ethernet.LocalMAC(8)}
	epKey := core.FlowKey{Src: ethernet.LocalMAC(1), Dst: ethernet.LocalMAC(9)}
	type fill struct {
		epoch  uint64
		target any // the *link or *Endpoint the fill resolved to
	}
	stop := make(chan struct{})
	seen := make(chan []fill)
	var passes atomic.Uint64 // resolves of both keys the filler has completed
	go func() {
		var fills []fill
		record := func(f fill) {
			if len(fills) == 0 || fills[len(fills)-1] != f {
				fills = append(fills, f)
			}
		}
		for {
			select {
			case <-stop:
				seen <- fills
				return
			default:
			}
			epoch := n.FlowEpoch() // as forwardUnicast: the epoch first, then the resolve
			var le, ee flowEntry
			if n.resolveFlow(&le, linkKey); le.lk != nil {
				record(fill{epoch, le.lk})
			}
			epoch = n.FlowEpoch()
			if n.resolveFlow(&ee, epKey); ee.ep != nil {
				record(fill{epoch, ee.ep})
			}
			passes.Add(1)
		}
	}()
	removedAt := map[any]uint64{} // target → the flow epoch just before its removal began
	for round := 0; round < 200; round++ {
		if err := n.AddLink("wire", "127.0.0.1:9", "udp"); err != nil {
			t.Fatal(err)
		}
		n.AddRoute(core.Route{DstMAC: linkKey.Dst, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: "wire"}})
		ep, err := n.AttachEndpoint("vm", epKey.Dst, 1500)
		if err != nil {
			t.Fatal(err)
		}
		lk := n.topo.Load().links["wire"]
		for was := passes.Load(); passes.Load() < was+2; { // let fills find both, however loaded the machine
			runtime.Gosched()
		}
		removedAt[lk] = n.FlowEpoch()
		if err := n.DelLink("wire"); err != nil {
			t.Fatal(err)
		}
		removedAt[ep] = n.FlowEpoch()
		n.DetachEndpoint("vm")
	}
	close(stop)
	fills := <-seen
	for _, f := range fills {
		if at, removed := removedAt[f.target]; removed && f.epoch > at {
			t.Fatalf("a fill at epoch %d resolved to a target whose removal began at epoch %d: its entry would be current", f.epoch, at)
		}
	}
	if len(fills) == 0 {
		t.Fatal("no fill ever resolved to a link or endpoint: nothing raced")
	}
}

// TestRecvArmsNoTimerWhenReady: a frame already in the ring comes back
// without a timer (or anything else) being allocated; an empty ring
// still times out.
func TestRecvArmsNoTimerWhenReady(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	ep, err := n.AttachEndpoint("nic", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	f := testFrame(ethernet.LocalMAC(2), ep.MAC())
	allocs := testing.AllocsPerRun(200, func() {
		ep.rx <- f
		if got, ok := ep.Recv(time.Hour); !ok || got != f {
			t.Fatalf("Recv = %v, %v", got, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Recv with a ready frame allocates %.1f objects per call", allocs)
	}
	start := time.Now()
	if got, ok := ep.Recv(30 * time.Millisecond); ok {
		t.Fatalf("Recv on an empty ring returned %v", got)
	}
	if el := time.Since(start); el < 30*time.Millisecond || el > 2*time.Second {
		t.Fatalf("empty-ring Recv returned after %v, want ≈30ms", el)
	}
	// A frame arriving during the wait ends it early.
	go func() { time.Sleep(10 * time.Millisecond); ep.rx <- f }()
	if got, ok := ep.Recv(5 * time.Second); !ok || got != f {
		t.Fatalf("Recv during wait = %v, %v", got, ok)
	}
}

// TestSealedStreamsStayApart: the per-shard memo of the last sealed
// stream's reassembly key must change with the tenant — two tenants'
// fragmented frames arriving interleaved from one sender, under the
// same encap ID, reassemble separately and reach their own endpoints.
func TestSealedStreamsStayApart(t *testing.T) {
	n := dropNode(t, NodeConfig{Dispatchers: 1})
	peer := seal.NewKeyring(42)
	dst := ethernet.LocalMAC(2)
	var streams [2][][]byte
	var sinks [2]*Endpoint
	var want [2][]byte
	for i, tenant := range []uint32{7, 8} {
		key := bytes.Repeat([]byte{byte(tenant)}, 32)
		if err := n.AddTenant(tenant, key); err != nil {
			t.Fatal(err)
		}
		peer.AddTenant(tenant, key)
		var err error
		if sinks[i], err = n.AttachEndpointTenant("sink"+string(rune('a'+i)), dst, 9000, tenant); err != nil {
			t.Fatal(err)
		}
		sl, err := peer.Sealer(tenant)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bytes.Repeat([]byte{0xa0 + byte(i)}, 3000)
		f := &ethernet.Frame{Dst: dst, Src: ethernet.LocalMAC(1), Type: ethernet.TypeTest, Payload: want[i]}
		var enc bridge.Encapsulator
		pkt, err := enc.EncapsulateSealed(f, 1, maxDatagram, nil, sl)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range pkt.Datagrams {
			streams[i] = append(streams[i], append([]byte(nil), d...))
		}
		pkt.Release()
	}
	for j := range streams[0] {
		n.rxDatagram(n.shards[0], "10.0.0.9:7000", streams[0][j], time.Now())
		n.rxDatagram(n.shards[0], "10.0.0.9:7000", streams[1][j], time.Now())
	}
	for i, sink := range sinks {
		got, ok := sink.Recv(5 * time.Second)
		if !ok || !bytes.Equal(got.Payload, want[i]) {
			t.Fatalf("tenant stream %d: frame lost or corrupted (ok=%v)", i, ok)
		}
	}
	if bad := Metric(t, n, "vnetp_bad_packets_total"); bad != 0 {
		t.Fatalf("bad_packets = %d, want 0", bad)
	}
}

// TestLateHeavyFlowIsDiscovered: a flow that starts after its tenant's
// heavy-hitter set has filled is refused while it is lighter than every
// candidate, and gets in once it has outgrown the lightest one — with no
// epoch bump or cache eviction in between: every source here shares the
// sink's one cache entry, so every frame after the very first is a hit,
// and the hit path re-offers a flow each time its packet count doubles.
func TestLateHeavyFlowIsDiscovered(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	sinkMAC := ethernet.LocalMAC(9000)
	if _, err := n.AttachEndpoint("sink", sinkMAC, 1500); err != nil {
		t.Fatal(err)
	}
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	send := func(from ethernet.MAC, frames int) {
		t.Helper()
		for i := 0; i < frames; i++ {
			if err := src.Send(testFrame(from, sinkMAC)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < core.TopFlowCapacity; i++ {
		send(ethernet.LocalMAC(uint32(100+i)), 2)
	}
	epoch := n.FlowEpoch()
	late := ethernet.LocalMAC(7)
	send(late, 1)
	for _, e := range n.TopFlowEntries()[0] {
		if e.Key.Src == late {
			t.Fatalf("a one-frame flow displaced a two-frame candidate: %+v", e)
		}
	}
	send(late, 499)
	if got := n.FlowEpoch(); got != epoch {
		t.Fatalf("flow epoch moved %d -> %d: the test must not rely on a re-miss", epoch, got)
	}
	top := n.TopFlowEntries()[0]
	if len(top) != core.TopFlowCapacity {
		t.Fatalf("candidates = %d, want %d", len(top), core.TopFlowCapacity)
	}
	want := uint64(500 * testFrame(late, sinkMAC).Len())
	if top[0].Key.Src != late || top[0].Packets != 500 || top[0].Bytes != want {
		t.Fatalf("top flow = %+v, want the late 500-frame flow (%d bytes)", top[0], want)
	}
}

// TestBroadcastTakesOneTxSample: the TX-stage latency histogram counts
// frames, not link legs — a broadcast fanned out to three links is one
// sample, like a unicast frame.
func TestBroadcastTakesOneTxSample(t *testing.T) {
	n := dropNode(t, NodeConfig{})
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"l1", "l2", "l3"} {
		tap := newWireTap(t, "udp")
		if err := n.AddLink(id, tap.addr, "udp"); err != nil {
			t.Fatal(err)
		}
		if err := n.AddRoute(core.Route{DstMAC: ethernet.Broadcast, DstQual: core.QualExact,
			SrcQual: core.QualAny, Dest: core.Destination{Type: core.DestLink, ID: id}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Send(testFrame(src.MAC(), ethernet.Broadcast)); err != nil {
		t.Fatal(err)
	}
	if got := n.EncapSent.Load(); got != 3 {
		t.Fatalf("encap_sent = %d, want one per link leg", got)
	}
	if got := n.metrics.txLatency.Count(); got != 1 {
		t.Fatalf("tx latency samples = %d for one broadcast frame, want 1", got)
	}
}

// TestBatchedEqualsSync is the batched ≡ sync differential: one stream of
// frames — three flows, small and mid-size frames, a traced frame and a
// must-fragment frame in the middle — delivers the same frames in the
// same per-flow order whether the sender writes each frame inline, runs
// the self-clocked batched sender, is handed the whole stream as one
// batch, or has each flow's frames sent by a goroutine of its own many
// times over, the synchronous Sends combining on the link as they find it
// busy. Every run ends with admitted = delivered + Σ ledger and an empty
// ledger on both nodes. The one-batch run also pins the encoder choices
// on the wire: neighbours share aggregates, the traced frame and the
// fragmenting frame close the open aggregate and travel in datagrams of
// their own, in ring order, and the traced frame keeps one trace ID end
// to end.
func TestBatchedEqualsSync(t *testing.T) {
	const tenant = 7
	key := bytes.Repeat([]byte{0x6b}, 32)
	cases := []struct {
		name   string
		proto  string
		tenant uint32
		fault  bool
		big    int // payload that must fragment under the link's budget
		// datagrams the one-batch run puts on the wire: aggregate of
		// frames 0-3, the traced frame, aggregate of frame 5, the big
		// frame's fragments, aggregate of frames 7-9.
		datagrams uint64
	}{
		{name: "plain_udp", proto: "udp", big: 3000, datagrams: 1 + 1 + 1 + 3 + 1},
		{name: "sealed", proto: "udp", tenant: tenant, big: 3000, datagrams: 1 + 1 + 1 + 3 + 1},
		{name: "tcp", proto: "tcp", big: 40000, datagrams: 1 + 1 + 1 + 2 + 1},
		{name: "fault_conduit", proto: "udp", fault: true, big: 3000, datagrams: 1 + 1 + 1 + 3 + 1},
	}
	macA, macB := ethernet.LocalMAC(0xa), ethernet.LocalMAC(0xb)
	mac1, mac2, macT := ethernet.LocalMAC(1), ethernet.LocalMAC(2), ethernet.LocalMAC(3)
	for _, tc := range cases {
		// run sends the stream — once, or reps times with a goroutine per
		// source — and reports, per source MAC, the payloads its sink
		// received, in order.
		run := func(t *testing.T, cfg NodeConfig, oneBatch bool, reps int) map[ethernet.MAC][]string {
			rx, tx := dropNode(t, NodeConfig{}), dropNode(t, cfg)
			if tc.tenant != 0 {
				for _, n := range []*Node{rx, tx} {
					if err := n.AddTenant(tc.tenant, key); err != nil {
						t.Fatal(err)
					}
				}
			}
			attach := func(n *Node, name string, mac ethernet.MAC) *Endpoint {
				ep, err := n.AttachEndpointTenant(name, mac, ethernet.MaxMTU, tc.tenant)
				if err != nil {
					t.Fatal(err)
				}
				return ep
			}
			sinks := []*Endpoint{attach(rx, "a", macA), attach(rx, "b", macB)}
			srcs := map[ethernet.MAC]*Endpoint{mac1: attach(tx, "s1", mac1), mac2: attach(tx, "s2", mac2), macT: attach(tx, "st", macT)}
			if err := tx.AddLinkTenant("wire", rx.Addr(), tc.proto, tc.tenant); err != nil {
				t.Fatal(err)
			}
			if tc.fault {
				tx.SetLinkFault("wire", faultnet.New(faultnet.Config{}))
			}
			for _, dst := range []ethernet.MAC{macA, macB} {
				if err := tx.AddRoute(core.Route{Tenant: tc.tenant, DstMAC: dst, DstQual: core.QualExact,
					SrcQual: core.QualAny, Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
					t.Fatal(err)
				}
			}
			tx.tracer.AddFlow(macT) // every frame from macT is traced, no other

			stream := []struct {
				src, dst ethernet.MAC
				size     int
			}{
				{mac1, macA, 64}, {mac2, macB, 64}, {mac1, macA, 576}, {mac2, macB, 64},
				{macT, macA, 64}, // traced, mid-batch
				{mac1, macA, 64},
				{mac2, macB, tc.big}, // must fragment, mid-batch
				{mac1, macA, 64}, {mac2, macB, 576}, {mac1, macA, 64},
			}
			frames := make([]*ethernet.Frame, len(stream))
			for i, s := range stream {
				p := bytes.Repeat([]byte{byte(i)}, s.size)
				frames[i] = &ethernet.Frame{Dst: s.dst, Src: s.src, Type: ethernet.TypeTest, Payload: p}
			}
			if oneBatch {
				tx.mu.Lock()
				lk := tx.topo.Load().links["wire"]
				tx.mu.Unlock()
				batch := make([]txFrame, len(frames))
				for i, f := range frames {
					if err := srcs[f.Src].admit(f); err != nil {
						t.Fatal(err)
					}
					batch[i] = txFrame{f: f, at: time.Now()}
				}
				tx.sendTxBatch(lk, batch, &txScratch{})
			} else if reps == 1 {
				for _, f := range frames {
					if err := srcs[f.Src].Send(f); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				var wg sync.WaitGroup
				for mac, src := range srcs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for r := 0; r < reps; r++ {
							for _, f := range frames {
								if f.Src != mac {
									continue
								}
								if err := src.Send(&ethernet.Frame{Dst: f.Dst, Src: f.Src, Type: f.Type, Payload: f.Payload}); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}()
				}
				wg.Wait()
			}

			got := map[ethernet.MAC][]string{}
			traced := frames[4].Tag
			if traced == 0 && reps == 1 {
				t.Fatal("the traced flow's frame was not selected for tracing")
			}
			total := len(frames) * reps
			deadline := time.Now().Add(5 * time.Second)
			for count := 0; count < total; {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d frames delivered; drops: sender %v receiver %v",
						count, total, tx.ledger.Snapshot(), rx.ledger.Snapshot())
				}
				for _, sink := range sinks {
					f, ok := sink.Recv(10 * time.Millisecond)
					if !ok {
						continue
					}
					count++
					got[f.Src] = append(got[f.Src], string(f.Payload))
					if want := traced; f.Src != macT {
						if f.Tag != 0 {
							t.Fatalf("untraced frame from %v arrived with trace ID %016x", f.Src, f.Tag)
						}
					} else if f.Tag == 0 || (reps == 1 && f.Tag != want) {
						t.Fatalf("traced frame arrived with trace ID %016x, want %016x", f.Tag, want)
					}
				}
			}
			if recv, bad := rx.EncapRecv.Load(), Metric(t, rx, "vnetp_bad_packets_total"); recv != uint64(total) || bad != 0 {
				t.Fatalf("receiver: encap_recv=%d bad_packets=%d, want %d and 0", recv, bad, total)
			}
			// Delivered moves just after a frame enters its sink's ring.
			for deadline := time.Now().Add(time.Second); rx.Delivered.Load() < uint64(total) && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if d, lt, lr := rx.Delivered.Load(), tx.ledger.Total(), rx.ledger.Total(); d != uint64(total) || lt+lr != 0 {
				t.Fatalf("admitted %d = delivered %d + ledger %d+%d does not hold with an empty ledger", total, d, lt, lr)
			}
			if oneBatch {
				var datagrams uint64
				for _, s := range rx.shards {
					datagrams += s.Datagrams.Load()
				}
				h := tx.metrics.txDatagramFrames
				if datagrams != tc.datagrams || h.Count() != tc.datagrams || h.Sum() != float64(len(frames)) {
					t.Fatalf("one batch: receiver saw %d datagrams, sender recorded %d carrying %v frames; want %d carrying %d",
						datagrams, h.Count(), h.Sum(), tc.datagrams, len(frames))
				}
			}
			return got
		}
		t.Run(tc.name, func(t *testing.T) {
			sync := run(t, NodeConfig{}, false, 1)
			if len(sync[mac1]) != 5 || len(sync[mac2]) != 4 || len(sync[macT]) != 1 {
				t.Fatalf("sync run delivered %d/%d/%d frames per flow, want 5/4/1", len(sync[mac1]), len(sync[mac2]), len(sync[macT]))
			}
			if batched := run(t, RingConfig(), false, 1); !reflect.DeepEqual(batched, sync) {
				t.Fatalf("batched sender delivered differently from sync:\nbatched %q\nsync    %q", batched, sync)
			}
			if one := run(t, RingConfig(), true, 1); !reflect.DeepEqual(one, sync) {
				t.Fatalf("one batch delivered differently from sync:\none  %q\nsync %q", one, sync)
			}
			const reps = 30 // per sink: at most 6 × 30 frames, inside its ring
			combined := run(t, NodeConfig{}, false, reps)
			for mac, once := range sync {
				var want []string
				for r := 0; r < reps; r++ {
					want = append(want, once...)
				}
				if got := combined[mac]; !reflect.DeepEqual(got, want) {
					t.Fatalf("concurrent senders: flow %v delivered %d frames, not its %d in order ×%d", mac, len(got), len(once), reps)
				}
			}
		})
	}
}
