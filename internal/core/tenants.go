package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultTenant is the implicit tenant every pre-tenancy configuration
// lives in: tenant 0's table is the node's classic flat routing table,
// and frames on unsealed links route through it exactly as before
// tenancy existed.
const DefaultTenant uint32 = 0

// Tenants is the tenant-scoping layer over the routing table: one
// independent Table (rules, failover marks) per tenant ID, so MAC
// namespaces never collide across tenants — two tenants can both own
// 02:00:00:00:00:01 and route it to different places. The default
// tenant's table always exists.
//
// Its tables run with the routing cache off. Tenants has one user, the
// live overlay, whose flow cache already holds the whole forwarding
// decision per flow; a second cache under it, keyed no finer and capped
// alike, would fill and thrash in step with it and put an
// exclusive lock on every flow-cache miss. The invalidation hook fires
// on every edit all the same.
type Tenants struct {
	mu     sync.RWMutex
	tables map[uint32]*Table

	// invalidate, when set, is installed as the cache-invalidation hook
	// on every table — existing ones and ones Ensure creates later — so
	// a route-cache clear in any tenant namespace reaches the overlay's
	// flow-cache epoch.
	invalidate func()
	srcQual    atomic.Int64 // every table's Table.srcQual
}

// NewTenants returns a tenant set holding only the default tenant.
func NewTenants() *Tenants {
	ts := &Tenants{}
	ts.tables = map[uint32]*Table{DefaultTenant: ts.newTable()}
	return ts
}

func (ts *Tenants) newTable() *Table {
	t := NewTable()
	t.CacheEnabled = false
	t.srcQual = &ts.srcQual
	return t
}

// SourceQualified reports whether any tenant's table holds a route with
// a source qualifier; while false no answer depends on the frame's
// source. A route edit moves it before its invalidation hook fires.
func (ts *Tenants) SourceQualified() bool { return ts.srcQual.Load() > 0 }

// Default returns the default tenant's table (never nil).
func (ts *Tenants) Default() *Table { return ts.tables[DefaultTenant] }

// Table returns tenant id's table, or nil when the tenant has none —
// lookups for unknown tenants fail closed at the caller.
func (ts *Tenants) Table(id uint32) *Table {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.tables[id]
}

// Ensure returns tenant id's table, creating an empty one on first use.
func (ts *Tenants) Ensure(id uint32) *Table {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.tables[id]
	if t == nil {
		t = ts.newTable()
		if ts.invalidate != nil {
			t.SetInvalidateHook(ts.invalidate)
		}
		ts.tables[id] = t
	}
	return t
}

// SetInvalidateHook installs fn as the cache-invalidation hook on every
// current table and every table Ensure creates afterwards. The overlay
// uses it to bump its flow-cache epoch on any route-cache clear in any
// tenant namespace.
func (ts *Tenants) SetInvalidateHook(fn func()) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.invalidate = fn
	for _, t := range ts.tables {
		t.SetInvalidateHook(fn)
	}
}

// IDs lists the tenant IDs that have tables, sorted ascending (the
// default tenant is always first).
func (ts *Tenants) IDs() []uint32 {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	ids := make([]uint32, 0, len(ts.tables))
	for id := range ts.tables {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Each calls fn for every tenant table (ascending tenant order). Used
// for whole-node operations — link failover, teardown sweeps — that
// must hit every namespace.
func (ts *Tenants) Each(fn func(id uint32, t *Table)) {
	for _, id := range ts.IDs() {
		if t := ts.Table(id); t != nil {
			fn(id, t)
		}
	}
}
