package overlay

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
)

// pickSenderKeys brute-forces synthetic sender keys that spread evenly
// over the node's shards.
func pickSenderKeys(n *Node, count int) []string {
	workers := len(n.shards)
	perShard := make(map[int]int)
	want := (count + workers - 1) / workers
	keys := make([]string, 0, count)
	for i := 0; len(keys) < count; i++ {
		key := fmt.Sprintf("10.7.%d.%d:7777", i/256, i%256)
		idx := n.shardFor(key).idx
		if perShard[idx] >= want {
			continue
		}
		perShard[idx]++
		keys = append(keys, key)
	}
	return keys
}

// BenchmarkOverlayDispatcherScaling measures loopback receive-path
// throughput as the worker count grows: pre-encapsulated datagrams from
// 8 distinct senders are split over as many goroutines as the node has
// receive workers, each finishing its share on its own shard (the exact
// path a worker runs after its socket read) and taking the delivered
// frame off the endpoint, as a guest would. This is the real-socket twin
// of the paper's Fig. 5 dispatcher-count sweep; with GOMAXPROCS=1 the
// workers time-slice one core and the sweep instead measures their
// overhead.
func BenchmarkOverlayDispatcherScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("dispatchers=%d", workers), func(b *testing.B) {
			benchDispatcherScaling(b, workers)
		})
	}
}

func benchDispatcherScaling(b *testing.B, workers int) {
	n, err := NewNodeWithConfig("bench", "127.0.0.1:0", NodeConfig{dispatchers: workers})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()

	const senders = 8
	const payloadLen = 1300
	eps := make([]*Endpoint, senders)
	keys := pickSenderKeys(n, senders)
	pkts := make([][]byte, senders)
	for i := 0; i < senders; i++ {
		ep, err := n.AttachEndpoint(fmt.Sprintf("nic%d", i), ethernet.LocalMAC(uint32(i+1)), ethernet.JumboMTU)
		if err != nil {
			b.Fatal(err)
		}
		f := &ethernet.Frame{
			Dst: ep.MAC(), Src: ethernet.LocalMAC(uint32(100 + i)), Type: ethernet.TypeTest,
			Payload: make([]byte, payloadLen),
		}
		ds, err := bridge.Encapsulate(f, uint32(i), maxDatagram)
		if err != nil {
			b.Fatal(err)
		}
		if len(ds) != 1 {
			b.Fatalf("expected single-datagram frame, got %d", len(ds))
		}
		eps[i], pkts[i] = ep, ds[0]
	}

	per := (b.N + senders - 1) / senders
	b.SetBytes(payloadLen)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w, shard := range n.shards {
		wg.Add(1)
		go func(w int, shard *rxShard) {
			defer wg.Done()
			at := n.mono()
			for k := 0; k < per; k++ {
				for s := w; s < senders; s += len(n.shards) {
					n.datagram(shard, keys[s], nil, nil, pkts[s], at)
					if _, ok := eps[s].TryRecv(); !ok {
						b.Errorf("sender %d frame %d not delivered", s, k)
						return
					}
				}
			}
		}(w, shard)
	}
	wg.Wait()
	b.StopTimer()
}

// TestDispatcherShardingIsStable pins the property a TCP connection's
// reassembly rests on: a sender key always maps to the same shard, and
// with enough senders more than one shard carries traffic.
func TestDispatcherShardingIsStable(t *testing.T) {
	n, err := NewNodeWithConfig("shards", "127.0.0.1:0", NodeConfig{dispatchers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Dispatchers() == 1 {
		t.Skip("one receive socket, so one shard, on this platform")
	}
	if n.Dispatchers() != 4 {
		t.Fatalf("Dispatchers() = %d, want 4", n.Dispatchers())
	}
	used := make(map[int]bool)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("192.168.1.%d:9000", i)
		first := n.shardFor(key).idx
		for rep := 0; rep < 3; rep++ {
			if got := n.shardFor(key).idx; got != first {
				t.Fatalf("sender %q hashed to shard %d then %d", key, first, got)
			}
		}
		used[first] = true
	}
	if len(used) < 2 {
		t.Fatalf("64 senders all hashed to %d shard(s)", len(used))
	}
}

// TestDispatcherPoolDeliversFragmented pushes fragmented frames from many
// synthetic senders through the receive workers' datagram path and
// checks complete, uncorrupted delivery — reassembly must never
// interleave two senders' fragments.
func TestDispatcherPoolDeliversFragmented(t *testing.T) {
	n, err := NewNodeWithConfig("pool", "127.0.0.1:0", NodeConfig{dispatchers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ep, err := n.AttachEndpoint("nic0", ethernet.LocalMAC(1), ethernet.MaxMTU)
	if err != nil {
		t.Fatal(err)
	}
	const senders = 8
	keys := pickSenderKeys(n, senders)
	const payloadLen = 9000 // fragments into several datagrams
	for s := 0; s < senders; s++ {
		payload := make([]byte, payloadLen)
		for i := range payload {
			payload[i] = byte(s)
		}
		f := &ethernet.Frame{Dst: ep.MAC(), Src: ethernet.LocalMAC(uint32(10 + s)), Type: ethernet.TypeTest, Payload: payload}
		ds, err := bridge.Encapsulate(f, 1234, maxDatagram) // same ID on purpose: sender key isolates
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			n.datagram(n.shardFor(keys[s]), keys[s], nil, nil, d, n.mono())
		}
	}
	seen := make(map[byte]bool)
	for s := 0; s < senders; s++ {
		f, ok := ep.Recv(2 * time.Second)
		if !ok {
			t.Fatalf("frame %d missing", s)
		}
		if len(f.Payload) != payloadLen {
			t.Fatalf("frame %d truncated: %d bytes", s, len(f.Payload))
		}
		marker := f.Payload[0]
		for i, b := range f.Payload {
			if b != marker {
				t.Fatalf("frame from sender %d corrupted at byte %d", marker, i)
			}
		}
		seen[marker] = true
	}
	if len(seen) != senders {
		t.Fatalf("saw %d distinct senders, want %d", len(seen), senders)
	}
}

// TestPerDispatcherStats checks LIST STATS exposes the pool size and
// per-worker counters, and that traffic is attributed to a worker.
func TestPerDispatcherStats(t *testing.T) {
	n, err := NewNodeWithConfig("stats", "127.0.0.1:0", NodeConfig{dispatchers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ep, err := n.AttachEndpoint("nic0", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	f := &ethernet.Frame{Dst: ep.MAC(), Src: ethernet.LocalMAC(2), Type: ethernet.TypeTest, Payload: []byte("counted")}
	ds, err := bridge.Encapsulate(f, 9, maxDatagram)
	if err != nil {
		t.Fatal(err)
	}
	n.datagram(n.shards[len(n.shards)-1], "1.2.3.4:5", nil, nil, ds[0], n.mono())
	if _, ok := ep.Recv(2 * time.Second); !ok {
		t.Fatal("frame not delivered")
	}
	stats := n.Stats()
	want := map[string]bool{
		fmt.Sprintf("dispatchers %d", n.Dispatchers()): false, // 2 wherever each worker can have a socket
	}
	var frames uint64
	for _, line := range stats {
		if _, ok := want[line]; ok {
			want[line] = true
		}
		var idx int
		var v uint64
		if c, _ := fmt.Sscanf(line, "dispatcher_%d_frames %d", &idx, &v); c == 2 {
			frames += v
		}
	}
	for line, ok := range want {
		if !ok {
			t.Fatalf("stats missing %q: %v", line, stats)
		}
	}
	if frames != 1 {
		t.Fatalf("per-dispatcher frame counters sum to %d, want 1 (%v)", frames, stats)
	}
}

// TestRouteFanOutContinuesPastDeadLink is the fan-out bugfix regression:
// a multicast/broadcast hitting a dead link must still reach every other
// destination. The dead link's failure is the link's, not the caller's:
// Send returns nil, and the leg lands on tx_error and send_errors.
func TestRouteFanOutContinuesPastDeadLink(t *testing.T) {
	n, err := NewNode("fanout", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	// A TCP link to a port nobody listens on: sends fail fast with
	// connection-refused.
	if err := n.AddLink("dead", deadTCPAddr(t), "tcp"); err != nil {
		t.Fatal(err)
	}
	// Dead link first, so the old first-error-wins bug would starve the
	// local endpoint that follows it in the fan-out.
	n.AddRoute(core.Route{DstQual: core.QualAny, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "dead"}})
	local, err := n.AttachEndpoint("local", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	n.AddRoute(core.Route{DstQual: core.QualAny, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "local"}})

	err = src.Send(&ethernet.Frame{Dst: ethernet.Broadcast, Src: src.MAC(), Type: ethernet.TypeTest, Payload: []byte("bcast")})
	if err != nil {
		t.Fatalf("Send returned %v: a link's transport failure lands on the ledger", err)
	}
	if f, ok := local.Recv(2 * time.Second); !ok || string(f.Payload) != "bcast" {
		t.Fatal("local endpoint starved by dead link earlier in the fan-out")
	}
	waitIdle(t, n.topo.Load().links["dead"])
	if got := n.ledger.Count(dropTxError); got != 1 {
		t.Fatalf("tx_error = %d, want the dead link's leg", got)
	}
	// The transport failure is attributed to the link.
	lines, err := n.LinkStatus("dead")
	if err != nil {
		t.Fatal(err)
	}
	if !containsCounter(lines, "send_errors", 1) {
		t.Fatalf("send_errors not counted: %v", lines)
	}
}

// deadTCPAddr returns a loopback address that was listening a moment ago
// and now refuses connections.
func deadTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// containsCounter reports whether lines contains "<name> <v>" with v >=
// min.
func containsCounter(lines []string, name string, min uint64) bool {
	for _, l := range lines {
		var v uint64
		if c, _ := fmt.Sscanf(l, name+" %d", &v); c == 1 {
			return v >= min
		}
	}
	return false
}
