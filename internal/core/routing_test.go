package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"vnetp/internal/ethernet"
)

var (
	macA = ethernet.LocalMAC(1)
	macB = ethernet.LocalMAC(2)
	macC = ethernet.LocalMAC(3)
)

func ifaceDest(id string) Destination { return Destination{Type: DestInterface, ID: id} }
func linkDest(id string) Destination  { return Destination{Type: DestLink, ID: id} }

func TestLookupExact(t *testing.T) {
	tb := NewTable()
	tb.AddRoute(Route{DstMAC: macB, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("l1")})
	dests, hit, err := tb.Lookup(macA, macB)
	if err != nil || hit || len(dests) != 1 || dests[0] != linkDest("l1") {
		t.Fatalf("lookup = %v hit=%v err=%v", dests, hit, err)
	}
	// Second lookup hits the cache.
	dests, hit, err = tb.Lookup(macA, macB)
	if err != nil || !hit || dests[0] != linkDest("l1") {
		t.Fatalf("cached lookup = %v hit=%v err=%v", dests, hit, err)
	}
	if tb.Hits.Load() != 1 || tb.Misses.Load() != 1 {
		t.Fatalf("hits=%d misses=%d", tb.Hits.Load(), tb.Misses.Load())
	}
}

func TestLookupNoRoute(t *testing.T) {
	tb := NewTable()
	if _, _, err := tb.Lookup(macA, macB); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestLookupSpecificityOrdering(t *testing.T) {
	tb := NewTable()
	tb.AddRoute(Route{DstQual: QualAny, SrcQual: QualAny, Dest: linkDest("default")})
	tb.AddRoute(Route{DstMAC: macB, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("to-b")})
	tb.AddRoute(Route{DstMAC: macB, DstQual: QualExact, SrcMAC: macA, SrcQual: QualExact, Dest: linkDest("a-to-b")})

	dests, _, err := tb.Lookup(macA, macB)
	if err != nil || dests[0] != linkDest("a-to-b") {
		t.Fatalf("most specific: %v %v", dests, err)
	}
	dests, _, _ = tb.Lookup(macC, macB)
	if dests[0] != linkDest("to-b") {
		t.Fatalf("dst-exact: %v", dests)
	}
	dests, _, _ = tb.Lookup(macA, macC)
	if dests[0] != linkDest("default") {
		t.Fatalf("default: %v", dests)
	}
}

func TestLookupNotQualifier(t *testing.T) {
	tb := NewTable()
	tb.AddRoute(Route{DstMAC: macB, DstQual: QualNot, SrcQual: QualAny, Dest: linkDest("not-b")})
	if dests, _, err := tb.Lookup(macA, macC); err != nil || dests[0] != linkDest("not-b") {
		t.Fatalf("not-b should match C: %v %v", dests, err)
	}
	if _, _, err := tb.Lookup(macA, macB); err != ErrNoRoute {
		t.Fatalf("not-b must not match B: %v", err)
	}
}

func TestBroadcastFanout(t *testing.T) {
	tb := NewTable()
	tb.AddRoute(Route{DstQual: QualAny, SrcQual: QualAny, Dest: ifaceDest("if0")})
	tb.AddRoute(Route{DstQual: QualAny, SrcQual: QualAny, Dest: ifaceDest("if1")})
	tb.AddRoute(Route{DstQual: QualAny, SrcQual: QualAny, Dest: linkDest("l1")})
	tb.AddRoute(Route{DstMAC: macB, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("l1")}) // duplicate dest

	dests, _, err := tb.Lookup(macA, ethernet.Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	if len(dests) != 3 {
		t.Fatalf("broadcast fanout = %v, want 3 distinct destinations", dests)
	}
}

func TestCacheInvalidationOnAdd(t *testing.T) {
	tb := NewTable()
	tb.AddRoute(Route{DstQual: QualAny, SrcQual: QualAny, Dest: linkDest("old")})
	tb.Lookup(macA, macB) // populate cache
	tb.AddRoute(Route{DstMAC: macB, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("new")})
	dests, hit, _ := tb.Lookup(macA, macB)
	if hit || dests[0] != linkDest("new") {
		t.Fatalf("stale cache after AddRoute: %v hit=%v", dests, hit)
	}
}

func TestRemoveRoute(t *testing.T) {
	tb := NewTable()
	r := Route{DstMAC: macB, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("l1")}
	tb.AddRoute(r)
	tb.Lookup(macA, macB)
	if !tb.RemoveRoute(r) {
		t.Fatal("RemoveRoute failed")
	}
	if tb.RemoveRoute(r) {
		t.Fatal("double remove succeeded")
	}
	if _, _, err := tb.Lookup(macA, macB); err != ErrNoRoute {
		t.Fatalf("route still resolves after removal: %v", err)
	}
}

func TestRemoveByDest(t *testing.T) {
	tb := NewTable()
	tb.AddRoute(Route{DstMAC: macB, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("l1")})
	tb.AddRoute(Route{DstMAC: macC, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("l1")})
	tb.AddRoute(Route{DstMAC: macA, DstQual: QualExact, SrcQual: QualAny, Dest: ifaceDest("if0")})
	if n := tb.RemoveByDest(linkDest("l1")); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d, want 1", tb.Len())
	}
	if n := tb.RemoveByDest(linkDest("nope")); n != 0 {
		t.Fatalf("removed %d for missing dest", n)
	}
}

func TestCacheDisabled(t *testing.T) {
	tb := NewTable()
	tb.CacheEnabled = false
	tb.AddRoute(Route{DstQual: QualAny, SrcQual: QualAny, Dest: linkDest("l")})
	for i := 0; i < 3; i++ {
		if _, hit, _ := tb.Lookup(macA, macB); hit {
			t.Fatal("cache hit with cache disabled")
		}
	}
	if tb.Hits.Load() != 0 || tb.Misses.Load() != 3 {
		t.Fatalf("hits=%d misses=%d", tb.Hits.Load(), tb.Misses.Load())
	}
}

func TestRoutesSnapshot(t *testing.T) {
	tb := NewTable()
	r := Route{DstMAC: macB, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("l1")}
	tb.AddRoute(r)
	snap := tb.Routes()
	if len(snap) != 1 || snap[0] != r {
		t.Fatalf("snapshot = %v", snap)
	}
	snap[0].Dest = linkDest("mutated")
	if tb.Routes()[0].Dest != linkDest("l1") {
		t.Fatal("snapshot mutation affected table")
	}
}

func TestStringers(t *testing.T) {
	r := Route{DstMAC: macB, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("l1")}
	if r.String() == "" || ifaceDest("x").String() != "interface:x" || linkDest("y").String() != "link:y" {
		t.Fatal("stringers broken")
	}
	if QualExact.String() != "exact" || QualAny.String() != "any" || QualNot.String() != "not" || Qualifier(9).String() != "unknown" {
		t.Fatal("qualifier strings")
	}
	if DestInterface.String() != "interface" || DestLink.String() != "link" {
		t.Fatal("dest type strings")
	}
	nr := Route{DstQual: QualNot, DstMAC: macB, SrcQual: QualNot, SrcMAC: macA, Dest: linkDest("z")}
	if nr.String() == "" {
		t.Fatal("not-qualified route string empty")
	}
}

// Property: cached lookups always agree with uncached lookups.
func TestCacheCoherenceProperty(t *testing.T) {
	prop := func(seedRoutes []uint8, srcIdx, dstIdx uint8) bool {
		macs := []ethernet.MAC{macA, macB, macC, ethernet.LocalMAC(4)}
		cached, plain := NewTable(), NewTable()
		plain.CacheEnabled = false
		for _, s := range seedRoutes {
			r := Route{
				DstMAC:  macs[int(s)%len(macs)],
				DstQual: Qualifier(int(s/4) % 3),
				SrcMAC:  macs[int(s/2)%len(macs)],
				SrcQual: Qualifier(int(s/8) % 3),
				Dest:    linkDest(string(rune('a' + s%5))),
			}
			cached.AddRoute(r)
			plain.AddRoute(r)
		}
		src := macs[int(srcIdx)%len(macs)]
		dst := macs[int(dstIdx)%len(macs)]
		// Query twice so the second cached query is a genuine cache hit.
		cached.Lookup(src, dst)
		d1, _, e1 := cached.Lookup(src, dst)
		d2, _, e2 := plain.Lookup(src, dst)
		if (e1 == nil) != (e2 == nil) || len(d1) != len(d2) {
			return false
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRoutingCacheBounded: a MAC scan over static routes — ten times
// the cache's capacity of distinct sources, no route mutation to clear
// it — leaves the cache at or under its cap, counts what it displaced,
// and every lookup (cached, displaced or fresh) still resolves to the
// rule's answer.
func TestRoutingCacheBounded(t *testing.T) {
	tbl := NewTable()
	dst, special := ethernet.LocalMAC(1), ethernet.LocalMAC(7)
	tbl.AddRoute(Route{DstMAC: dst, DstQual: QualExact, SrcQual: QualAny, Dest: linkDest("any")})
	tbl.AddRoute(Route{DstMAC: dst, DstQual: QualExact, SrcMAC: special, SrcQual: QualExact, Dest: ifaceDest("special")})
	const sources = 10 * cacheCap
	want := func(src ethernet.MAC) Destination {
		if src == special {
			return ifaceDest("special")
		}
		return linkDest("any")
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < sources; i += 1 + pass*97 { // second pass: a sparse re-read
			src := ethernet.LocalMAC(uint32(i))
			dests, _, err := tbl.Lookup(src, dst)
			if err != nil || len(dests) != 1 || dests[0] != want(src) {
				t.Fatalf("lookup %s = %v, %v; want %v", src, dests, err, want(src))
			}
		}
	}
	resident := len(tbl.cache)
	if resident > cacheCap {
		t.Fatalf("cache holds %d answers, cap %d", resident, cacheCap)
	}
	hits, misses := tbl.CacheStats()
	if ev := tbl.Evictions.Load(); ev == 0 || ev != misses-uint64(resident) {
		t.Fatalf("evictions = %d, want misses %d - resident %d", ev, misses, resident)
	}
	if hits+misses < sources {
		t.Fatalf("hits %d + misses %d < %d lookups", hits, misses, sources)
	}
}

// TestBestEqualsLookup: the by-value entry point is Lookup's unicast
// answer — same destination, same ErrNoRoute, failover applied — over
// random rule sets, without allocating; bySrc is set exactly while some
// rule has a source qualifier.
func TestBestEqualsLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	macs := []ethernet.MAC{{}, ethernet.LocalMAC(1), ethernet.LocalMAC(2), ethernet.LocalMAC(3)}
	quals := []Qualifier{QualExact, QualAny, QualNot}
	for round := 0; round < 200; round++ {
		tbl := NewTable()
		tbl.CacheEnabled = round%2 == 0
		qualified := false
		for i, n := 0, rng.Intn(6); i < n; i++ {
			r := Route{SrcMAC: macs[rng.Intn(4)], SrcQual: quals[rng.Intn(3)], DstMAC: macs[rng.Intn(4)], DstQual: quals[rng.Intn(3)],
				Dest:   Destination{Type: DestLink, ID: fmt.Sprint("l", rng.Intn(3))},
				Backup: Destination{Type: DestInterface, ID: "b"}, HasBackup: rng.Intn(2) == 0}
			if round%3 == 0 {
				r.SrcQual = QualAny
			}
			qualified = qualified || r.SrcQual != QualAny
			tbl.AddRoute(r)
		}
		tbl.FailDest(Destination{Type: DestLink, ID: "l0"})
		for _, src := range macs {
			for _, dst := range macs {
				dests, _, lerr := tbl.Lookup(src, dst)
				d, bySrc, err := tbl.Best(src, dst)
				if err != lerr || bySrc != qualified || (err == nil && (len(dests) != 1 || dests[0] != d)) {
					t.Fatalf("round %d %s->%s: Best = %v bySrc=%v err=%v, Lookup = %v err=%v (qualified=%v)\n%v",
						round, src, dst, d, bySrc, err, dests, lerr, qualified, tbl.Routes())
				}
			}
		}
		if a := testing.AllocsPerRun(10, func() { tbl.Best(macs[1], macs[2]) }); a != 0 {
			t.Fatalf("Best allocates %.0f objects", a)
		}
	}
}
