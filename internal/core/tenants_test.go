package core

import (
	"errors"
	"testing"
	"time"

	"vnetp/internal/ethernet"
)

func TestTenantsIsolatedNamespaces(t *testing.T) {
	ts := NewTenants()
	mac := ethernet.LocalMAC(1)
	// Two tenants own the same MAC, routed to different links.
	ts.Ensure(1).AddRoute(Route{DstMAC: mac, DstQual: QualExact, SrcQual: QualAny,
		Dest: Destination{Type: DestLink, ID: "link-a"}, Tenant: 1})
	ts.Ensure(2).AddRoute(Route{DstMAC: mac, DstQual: QualExact, SrcQual: QualAny,
		Dest: Destination{Type: DestLink, ID: "link-b"}, Tenant: 2})

	d1, _, err := ts.Table(1).Lookup(ethernet.LocalMAC(9), mac)
	if err != nil || d1[0].ID != "link-a" {
		t.Fatalf("tenant 1 lookup: %v %v", d1, err)
	}
	d2, _, err := ts.Table(2).Lookup(ethernet.LocalMAC(9), mac)
	if err != nil || d2[0].ID != "link-b" {
		t.Fatalf("tenant 2 lookup: %v %v", d2, err)
	}
	// The default tenant has no such route: fail closed.
	if _, _, err := ts.Default().Lookup(ethernet.LocalMAC(9), mac); err != ErrNoRoute {
		t.Fatalf("default tenant leaked a tenant route: %v", err)
	}
	// Unknown tenant: no table at all.
	if ts.Table(99) != nil {
		t.Fatal("unknown tenant returned a table")
	}
}

func TestTenantsDefaultAndIDs(t *testing.T) {
	ts := NewTenants()
	if ts.Default() == nil || ts.Table(DefaultTenant) != ts.Default() {
		t.Fatal("default tenant table missing")
	}
	ts.Ensure(5)
	ts.Ensure(3)
	if same := ts.Ensure(5); same != ts.Table(5) {
		t.Fatal("Ensure not idempotent")
	}
	ids := ts.IDs()
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("IDs: %v", ids)
	}
	var visited []uint32
	ts.Each(func(id uint32, tbl *Table) {
		if tbl == nil {
			t.Fatalf("nil table for tenant %d", id)
		}
		visited = append(visited, id)
	})
	if len(visited) != 3 {
		t.Fatalf("Each visited %v", visited)
	}
}

func TestRouteTenantString(t *testing.T) {
	r := Route{DstQual: QualAny, SrcQual: QualAny,
		Dest: Destination{Type: DestLink, ID: "l"}, Tenant: 7}
	if s := r.String(); s == "" || !contains(s, "[tenant 7]") {
		t.Fatalf("String: %q", s)
	}
	r.Tenant = 0
	if contains(r.String(), "tenant") {
		t.Fatalf("default tenant leaked into String: %q", r.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestTenantTablesScanUnderReadLock: a tenant's table (default or
// ensured) runs with the routing cache off, every lookup is a counted
// rule scan, and the scan needs only the read lock — it completes while
// another reader holds it, where an exclusive acquire would wait. The
// invalidation hook still fires on a route edit.
func TestTenantTablesScanUnderReadLock(t *testing.T) {
	ts := NewTenants()
	bumps := 0
	ts.SetInvalidateHook(func() { bumps++ })
	for _, tbl := range []*Table{ts.Default(), ts.Ensure(7)} {
		if tbl.CacheEnabled {
			t.Fatal("tenant table built with the routing cache on")
		}
		before := bumps
		tbl.AddRoute(Route{DstQual: QualAny, SrcQual: QualAny, Dest: Destination{Type: DestLink, ID: "l"}})
		if bumps != before+1 {
			t.Fatalf("route edit fired the invalidation hook %d times, want 1", bumps-before)
		}
		tbl.mu.RLock()
		done := make(chan error, 1)
		go func() {
			var err error
			for i := 0; i < 2 && err == nil; i++ {
				var hit bool
				if _, hit, err = tbl.Lookup(ethernet.LocalMAC(1), ethernet.LocalMAC(2)); hit {
					err = errors.New("cache hit with the cache off")
				}
			}
			done <- err
		}()
		select {
		case err := <-done:
			tbl.mu.RUnlock()
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("uncached Lookup blocked behind a held read lock")
		}
		if hits, misses := tbl.CacheStats(); hits != 0 || misses != 2 || len(tbl.cache) != 0 {
			t.Fatalf("hits=%d misses=%d cached=%d, want 0/2/0", hits, misses, len(tbl.cache))
		}
	}
}

// TestSourceQualifiedFollowsTheRules: the node-wide flag is the sum over
// every tenant's table of routes with a source qualifier, moved by each
// way a route can come or go, and already moved when the edit's
// invalidation hook fires — the overlay's flow epoch is bumped from that
// hook, so whoever observes the bump observes the count.
func TestSourceQualifiedFollowsTheRules(t *testing.T) {
	ts := NewTenants()
	var atHook []bool
	ts.SetInvalidateHook(func() { atHook = append(atHook, ts.SourceQualified()) })
	dest := Destination{Type: DestLink, ID: "l"}
	plain := Route{DstMAC: ethernet.LocalMAC(1), DstQual: QualExact, SrcQual: QualAny, Dest: dest}
	exact := Route{DstMAC: ethernet.LocalMAC(1), DstQual: QualExact, SrcMAC: ethernet.LocalMAC(2), SrcQual: QualExact, Dest: dest}
	not := Route{DstQual: QualAny, SrcMAC: ethernet.LocalMAC(3), SrcQual: QualNot, Dest: dest, Tenant: 9}
	steps := []struct {
		what string
		do   func()
		want bool
	}{
		{"add src=any", func() { ts.Default().AddRoute(plain) }, false},
		{"add src=exact", func() { ts.Default().AddRoute(exact) }, true},
		{"add src=not in a later tenant", func() { ts.Ensure(9).AddRoute(not) }, true},
		{"remove src=exact", func() { ts.Default().RemoveRoute(exact) }, true},
		{"remove src=any", func() { ts.Default().RemoveRoute(plain) }, true},
		{"sweep the other tenant by destination", func() { ts.Table(9).RemoveByDest(dest) }, false},
		{"add twice", func() { ts.Default().AddRoute(exact); ts.Default().AddRoute(exact) }, true},
		{"remove one of two", func() { ts.Default().RemoveRoute(exact) }, true},
		{"remove the other", func() { ts.Default().RemoveRoute(exact) }, false},
	}
	for _, s := range steps {
		atHook = atHook[:0]
		s.do()
		if got := ts.SourceQualified(); got != s.want {
			t.Fatalf("%s: SourceQualified = %v, want %v", s.what, got, s.want)
		}
		if len(atHook) == 0 || atHook[len(atHook)-1] != s.want {
			t.Fatalf("%s: the invalidation hook saw %v, want the count already moved to %v", s.what, atHook, s.want)
		}
	}
	if ts.Default().RemoveRoute(exact) || ts.SourceQualified() {
		t.Fatal("removing an absent route moved the count")
	}
	// A standalone table counts for itself.
	tbl := NewTable()
	tbl.AddRoute(not)
	if _, bySrc, _ := tbl.Best(ethernet.LocalMAC(1), ethernet.LocalMAC(2)); !bySrc || ts.SourceQualified() {
		t.Fatalf("standalone table: bySrc=%v, tenants flag=%v", bySrc, ts.SourceQualified())
	}
}
