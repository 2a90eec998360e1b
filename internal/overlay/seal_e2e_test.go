package overlay_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
	"vnetp/internal/overlay"
	"vnetp/internal/seal"
)

// tenantKey returns a deterministic test key for a tenant.
func tenantKey(t *testing.T, b byte) []byte {
	t.Helper()
	key := bytes.Repeat([]byte{b}, seal.KeyLen)
	return key
}

// statValue digs one counter out of a node's LIST STATS lines.
func sealStat(t *testing.T, n *overlay.Node, key string) uint64 {
	t.Helper()
	for _, line := range n.Stats() {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == key {
			v, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				t.Fatalf("bad stat line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("stat %q missing", key)
	return 0
}

// sealedPair builds two nodes sharing tenant 7's key, with tenant-bound
// endpoints, sealed links of the given protocol both ways, and tenant
// routes.
func sealedPair(t *testing.T, cfg overlay.NodeConfig, proto string) (*overlay.Node, *overlay.Node, *overlay.Endpoint, *overlay.Endpoint) {
	t.Helper()
	na, err := overlay.NewNodeWithConfig("seal-a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNodeWithConfig("seal-b", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })

	key := tenantKey(t, 0x42)
	for _, n := range []*overlay.Node{na, nb} {
		if err := n.AddTenant(7, key); err != nil {
			t.Fatal(err)
		}
	}
	macA, macB := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	epA, err := na.AttachEndpointTenant("nic0", macA, 9000, 7)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := nb.AttachEndpointTenant("nic0", macB, 9000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := na.AddLinkTenant("to-b", nb.Addr(), proto, 7); err != nil {
		t.Fatal(err)
	}
	if err := nb.AddLinkTenant("to-a", na.Addr(), proto, 7); err != nil {
		t.Fatal(err)
	}
	if err := na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}, Tenant: 7}); err != nil {
		t.Fatal(err)
	}
	if err := nb.AddRoute(core.Route{DstMAC: macA, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-a"}, Tenant: 7}); err != nil {
		t.Fatal(err)
	}
	return na, nb, epA, epB
}

func TestSealedLinkEndToEnd(t *testing.T) {
	na, nb, epA, epB := sealedPair(t, overlay.NodeConfig{}, "udp")
	epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("sealed ping")})
	got, ok := epB.Recv(recvTimeout)
	if !ok || string(got.Payload) != "sealed ping" {
		t.Fatal("sealed frame lost")
	}
	epB.Send(&ethernet.Frame{Dst: epA.MAC(), Src: epB.MAC(), Type: ethernet.TypeTest, Payload: []byte("sealed pong")})
	if got, ok := epA.Recv(recvTimeout); !ok || string(got.Payload) != "sealed pong" {
		t.Fatal("sealed reply lost")
	}
	// A jumbo frame fragments; every fragment is sealed independently.
	big := bytes.Repeat([]byte{0x7e}, 8000)
	epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: big})
	if got, ok := epB.Recv(recvTimeout); !ok || !bytes.Equal(got.Payload, big) {
		t.Fatal("sealed jumbo frame corrupted or lost")
	}
	if v := sealStat(t, na, "sealed_sent"); v < 7 { // ping + >=6 jumbo fragments
		t.Fatalf("sealed_sent = %d", v)
	}
	if v := sealStat(t, nb, "sealed_opened"); v < 7 {
		t.Fatalf("sealed_opened = %d", v)
	}
	if v := sealStat(t, nb, "seal_rejects"); v != 0 {
		t.Fatalf("seal_rejects = %d on a clean path", v)
	}
	if v := sealStat(t, na, "tenants"); v != 1 {
		t.Fatalf("tenants = %d", v)
	}
}

func TestSealedLinkBatchedTX(t *testing.T) {
	na, nb, epA, epB := sealedPair(t, overlay.NodeConfig{}, "udp")
	const count = 40
	for i := 0; i < count; i++ {
		epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("batch-%d", i))})
	}
	for i := 0; i < count; i++ {
		got, ok := epB.Recv(recvTimeout)
		if !ok {
			t.Fatalf("frame %d lost on batched sealed path", i)
		}
		if want := fmt.Sprintf("batch-%d", i); string(got.Payload) != want {
			t.Fatalf("frame %d: got %q, want %q (a sealed aggregate keeps ring order)", i, got.Payload, want)
		}
	}
	// The seal counters count datagrams — one seal, one open per aggregate
	// however many frames share it — and every datagram sealed was opened.
	sent, opened := sealStat(t, na, "sealed_sent"), sealStat(t, nb, "sealed_opened")
	if sent < 1 || sent > count || opened != sent {
		t.Fatalf("sealed_sent = %d, sealed_opened = %d; want equal, between 1 and %d", sent, opened, count)
	}
	if v := sealStat(t, nb, "encap_recv"); v != count {
		t.Fatalf("encap_recv = %d, want %d (frames, not datagrams)", v, count)
	}
}

// TestMultiTenantIsolation is the acceptance scenario: two tenants share
// the same two nodes — and even the same MAC addresses — exchanging
// traffic concurrently, and neither ever receives a frame of the other.
func TestMultiTenantIsolation(t *testing.T) {
	na, err := overlay.NewNode("mt-a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("mt-b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })

	// Both tenants use the same MAC pair: isolation must come from the
	// per-tenant namespaces, not from address uniqueness.
	macA, macB := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	type side struct {
		a, b *overlay.Endpoint
	}
	tenants := map[uint32]*side{7: {}, 9: {}}
	for id, s := range tenants {
		key := tenantKey(t, byte(id))
		if err := na.AddTenant(id, key); err != nil {
			t.Fatal(err)
		}
		if err := nb.AddTenant(id, key); err != nil {
			t.Fatal(err)
		}
		nicA, nicB := fmt.Sprintf("t%d-a", id), fmt.Sprintf("t%d-b", id)
		if s.a, err = na.AttachEndpointTenant(nicA, macA, 9000, id); err != nil {
			t.Fatal(err)
		}
		if s.b, err = nb.AttachEndpointTenant(nicB, macB, 9000, id); err != nil {
			t.Fatal(err)
		}
		linkAB, linkBA := fmt.Sprintf("t%d-to-b", id), fmt.Sprintf("t%d-to-a", id)
		if err := na.AddLinkTenant(linkAB, nb.Addr(), "udp", id); err != nil {
			t.Fatal(err)
		}
		if err := nb.AddLinkTenant(linkBA, na.Addr(), "udp", id); err != nil {
			t.Fatal(err)
		}
		if err := na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: linkAB}, Tenant: id}); err != nil {
			t.Fatal(err)
		}
		if err := nb.AddRoute(core.Route{DstMAC: macA, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: linkBA}, Tenant: id}); err != nil {
			t.Fatal(err)
		}
	}

	// Both tenants send concurrently, A-side to B-side, each Send waiting
	// out its link's flush: every frame is a sealed datagram of its own.
	const perTenant = 50
	var wg sync.WaitGroup
	for id, s := range tenants {
		id, s := id, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				s.a.Send(&ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest,
					Payload: []byte(fmt.Sprintf("tenant-%d msg-%d", id, i))})
				for !na.Idle(fmt.Sprintf("t%d-to-b", id)) {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()

	for id, s := range tenants {
		prefix := fmt.Sprintf("tenant-%d ", id)
		for i := 0; i < perTenant; i++ {
			got, ok := s.b.Recv(recvTimeout)
			if !ok {
				t.Fatalf("tenant %d: frame %d lost", id, i)
			}
			if !strings.HasPrefix(string(got.Payload), prefix) {
				t.Fatalf("tenant %d received cross-tenant frame %q", id, got.Payload)
			}
		}
		// Nothing else arrives: exactly perTenant frames per tenant.
		if f, ok := s.b.Recv(200 * time.Millisecond); ok {
			t.Fatalf("tenant %d: extra frame %q", id, f.Payload)
		}
	}
	if v := sealStat(t, nb, "sealed_opened"); v < 2*perTenant {
		t.Fatalf("sealed_opened = %d, want >= %d", v, 2*perTenant)
	}
}

// TestSealedTamperRejected is the on-path tamper scenario: a conduit
// flipping a byte of every datagram on the sealed link. Every tampered
// datagram must be rejected (seal_rejects rises) and nothing delivered.
func TestSealedTamperRejected(t *testing.T) {
	na, nb, epA, epB := sealedPair(t, overlay.NodeConfig{}, "udp")
	if err := na.SetLinkFault("to-b", faultnet.New(faultnet.Config{CorruptProb: 1})); err != nil {
		t.Fatal(err)
	}
	const count = 20
	for i := 0; i < count; i++ {
		epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("tampered-%d", i))})
	}
	// Rejection is fail-closed: no frame may surface at B.
	if f, ok := epB.Recv(500 * time.Millisecond); ok {
		t.Fatalf("tampered frame delivered: %q", f.Payload)
	}
	deadline := time.Now().Add(recvTimeout)
	for {
		if sealStat(t, nb, "seal_rejects") >= count {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seal_rejects = %d, want >= %d", sealStat(t, nb, "seal_rejects"), count)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := sealStat(t, nb, "sealed_opened"); v != 0 {
		t.Fatalf("sealed_opened = %d on an all-tampered path", v)
	}
	if v := sealStat(t, nb, "delivered"); v != 0 {
		t.Fatalf("delivered = %d on an all-tampered path", v)
	}
}

// TestSealedReplayRejected duplicates every datagram on the wire: the
// originals deliver, the replays die in the replay window.
func TestSealedReplayRejected(t *testing.T) {
	na, nb, epA, epB := sealedPair(t, overlay.NodeConfig{}, "udp")
	if err := na.SetLinkFault("to-b", faultnet.New(faultnet.Config{DupProb: 1})); err != nil {
		t.Fatal(err)
	}
	const count = 10
	for i := 0; i < count; i++ {
		epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("dup-%d", i))})
	}
	for i := 0; i < count; i++ {
		if _, ok := epB.Recv(recvTimeout); !ok {
			t.Fatalf("original frame %d lost", i)
		}
	}
	if f, ok := epB.Recv(300 * time.Millisecond); ok {
		t.Fatalf("replayed frame delivered twice: %q", f.Payload)
	}
	deadline := time.Now().Add(recvTimeout)
	for sealStat(t, nb, "seal_rejects") < count {
		if time.Now().After(deadline) {
			t.Fatalf("seal_rejects = %d, want >= %d (replays)", sealStat(t, nb, "seal_rejects"), count)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTenantFailClosed covers the control-plane edges: links and routes
// for tenants without keys refuse, and LIST TENANTS never leaks keys.
func TestTenantFailClosed(t *testing.T) {
	n, err := overlay.NewNode("fc", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.AddLinkTenant("l1", "127.0.0.1:9", "udp", 3); err == nil {
		t.Fatal("tenant link without a key accepted")
	}
	if err := n.AddRoute(core.Route{DstQual: core.QualAny, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "l"}, Tenant: 3}); err == nil {
		t.Fatal("route for unknown tenant accepted")
	}
	key := tenantKey(t, 0x11)
	if err := n.AddTenant(3, key); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLinkTenant("l1", "127.0.0.1:9", "udp", 3); err != nil {
		t.Fatalf("tenant link after AddTenant: %v", err)
	}
	sum := strings.Join(n.TenantSummary(), "\n")
	if !strings.Contains(sum, "TENANT 3") {
		t.Fatalf("summary missing tenant: %q", sum)
	}
	if strings.Contains(sum, strings.Repeat("11", seal.KeyLen)) {
		t.Fatalf("summary leaks key material: %q", sum)
	}
	if !strings.Contains(sum, seal.Fingerprint(key)) {
		t.Fatalf("summary missing fingerprint: %q", sum)
	}
}
