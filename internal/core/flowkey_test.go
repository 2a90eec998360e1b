package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vnetp/internal/ethernet"
)

// fmtFlowKey is FlowKey.String's reference: the fmt form it replaced.
func fmtFlowKey(k FlowKey) string {
	mac := func(m ethernet.MAC) string {
		return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
	}
	return fmt.Sprintf("t%d %s->%s", k.Tenant, mac(k.Src), mac(k.Dst))
}

var flowKeySink string

// TestFlowKeyStringMatchesFmt: String is byte for byte the fmt form, for
// the extreme keys and random ones, and it makes one allocation.
func TestFlowKeyStringMatchesFmt(t *testing.T) {
	keys := []FlowKey{{}, {Tenant: math.MaxUint32, Src: ethernet.Broadcast, Dst: ethernet.Broadcast}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		k := FlowKey{Tenant: rng.Uint32() >> rng.Intn(32)}
		rng.Read(k.Src[:])
		rng.Read(k.Dst[:])
		keys = append(keys, k)
	}
	for _, k := range keys {
		if got, want := k.String(), fmtFlowKey(k); got != want {
			t.Fatalf("String = %q, fmt form %q", got, want)
		}
	}
	k := keys[len(keys)-1]
	if a := testing.AllocsPerRun(100, func() { flowKeySink = k.String() }); a > 1 {
		t.Fatalf("FlowKey.String makes %v allocations, want at most 1", a)
	}
}

func TestFlowKeyEncodeDecode(t *testing.T) {
	keys := []FlowKey{
		{},
		{Tenant: 0, Src: ethernet.LocalMAC(1), Dst: ethernet.LocalMAC(2)},
		{Tenant: 7, Src: ethernet.LocalMAC(1), Dst: ethernet.LocalMAC(2)},
		{Tenant: 0xffffffff, Src: ethernet.Broadcast, Dst: ethernet.Broadcast},
		{Tenant: 42, Src: ethernet.MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}, Dst: ethernet.LocalMAC(9)},
	}
	for _, k := range keys {
		b := k.Encode()
		got := DecodeFlowKey(b)
		if got != k {
			t.Fatalf("round-trip %v: got %v", k, got)
		}
	}
}

// Two tenants sharing a MAC pair must produce distinct keys — the
// cross-tenant isolation property at the key level.
func TestFlowKeyTenantDistinguishes(t *testing.T) {
	src, dst := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	a := FlowKey{Tenant: 1, Src: src, Dst: dst}
	b := FlowKey{Tenant: 2, Src: src, Dst: dst}
	if a == b {
		t.Fatal("keys for different tenants compare equal")
	}
	if a.Encode() == b.Encode() {
		t.Fatal("packed keys for different tenants are identical")
	}
}

func TestFlowKeyShardInRange(t *testing.T) {
	const n = 16
	seen := make(map[int]bool)
	for i := uint32(0); i < 1000; i++ {
		k := FlowKey{Tenant: i % 3, Src: ethernet.LocalMAC(i), Dst: ethernet.LocalMAC(i + 1)}
		s := k.Shard(n)
		if s < 0 || s >= n {
			t.Fatalf("shard %d out of range for %v", s, k)
		}
		seen[s] = true
	}
	// FNV-1a over 1000 distinct keys should touch most shards; an
	// effectively-constant shard function would defeat the sharding.
	if len(seen) < n/2 {
		t.Fatalf("only %d of %d shards used", len(seen), n)
	}
}

// FuzzFlowKey pins the packed-form identity both ways: any FlowKey
// survives Encode → DecodeFlowKey, and any 16 bytes survive
// DecodeFlowKey → Encode. Together these make the packed form a
// bijection, so the flow cache can hash and compare packed keys
// without ever conflating two distinct flows.
func FuzzFlowKey(f *testing.F) {
	f.Add(uint32(0), []byte{}, []byte{})
	f.Add(uint32(7), []byte{2, 0x56, 0, 0, 0, 1}, []byte{2, 0x56, 0, 0, 0, 2})
	f.Add(uint32(0xffffffff), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{0xde, 0xad, 0xbe, 0xef, 0, 1})
	f.Add(uint32(42), []byte("abcdefgh"), []byte("zyxwvuts"))
	f.Fuzz(func(t *testing.T, tenant uint32, src, dst []byte) {
		var k FlowKey
		k.Tenant = tenant
		copy(k.Src[:], src)
		copy(k.Dst[:], dst)

		b := k.Encode()
		if got := DecodeFlowKey(b); got != k {
			t.Fatalf("Encode/Decode identity: %v -> % x -> %v", k, b, got)
		}

		// Reverse direction: reuse the packed bytes as arbitrary input.
		if re := DecodeFlowKey(b).Encode(); re != b {
			t.Fatalf("Decode/Encode identity: % x -> % x", b, re)
		}

		// Shard must be stable and in range for any key.
		if s := k.Shard(16); s != k.Shard(16) || s < 0 || s >= 16 {
			t.Fatalf("shard unstable or out of range: %d", s)
		}
	})
}

// The invalidation hook must fire on every path that clears the route
// cache — route churn, failover marks, teardown sweeps — and must
// propagate to tables Ensure creates after installation.
func TestInvalidateHookFires(t *testing.T) {
	ts := NewTenants()
	var bumps int
	ts.SetInvalidateHook(func() { bumps++ })

	tbl := ts.Default()
	dest := Destination{Type: DestLink, ID: "l1"}
	r := Route{DstQual: QualAny, SrcQual: QualAny, Dest: dest,
		Backup: Destination{Type: DestLink, ID: "l2"}, HasBackup: true}

	tbl.AddRoute(r)
	tbl.FailDest(dest)
	tbl.RestoreDest(dest)
	tbl.RemoveRoute(r)
	if bumps != 4 {
		t.Fatalf("AddRoute+FailDest+RestoreDest+RemoveRoute: %d bumps, want 4", bumps)
	}

	tbl.AddRoute(r)
	bumps = 0
	if tbl.RemoveByDest(dest) != 1 {
		t.Fatal("RemoveByDest missed the route")
	}
	if bumps != 1 {
		t.Fatalf("RemoveByDest: %d bumps, want 1", bumps)
	}
	bumps = 0
	tbl.RemoveByDest(dest) // no routes left: no invalidation, no bump
	if bumps != 0 {
		t.Fatalf("no-op RemoveByDest bumped %d times", bumps)
	}

	// A table created after hook installation inherits it.
	t2 := ts.Ensure(9)
	bumps = 0
	t2.AddRoute(r)
	if bumps != 1 {
		t.Fatalf("Ensure-created table: %d bumps, want 1", bumps)
	}
}
