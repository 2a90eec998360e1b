// Package core implements the routing of the VNET/P core, the paper's
// primary contribution (Sect. 4.3): MAC-address routing of raw Ethernet
// frames between virtual NICs and overlay links, with the routing cache,
// per-flow accounting and tenant namespaces.
//
// It is pure (no clock, no simulation) and is the one routing
// implementation shared by the simulated core (internal/vnetpsim, whose
// packet dispatchers run in guest-driven, VMM-driven or adaptive mode)
// and the real-socket overlay (internal/overlay).
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vnetp/internal/ethernet"
)

// Qualifier restricts how a route's MAC field matches, following the
// VNET/U configuration language ("any" and "not" qualifiers).
type Qualifier int

const (
	// QualExact matches the exact MAC address.
	QualExact Qualifier = iota
	// QualAny matches every MAC address.
	QualAny
	// QualNot matches every MAC address except the given one.
	QualNot
)

func (q Qualifier) String() string {
	switch q {
	case QualExact:
		return "exact"
	case QualAny:
		return "any"
	case QualNot:
		return "not"
	default:
		return "unknown"
	}
}

// DestType says whether a route's destination is a local virtual NIC or an
// overlay link to a remote VNET node.
type DestType int

const (
	// DestInterface delivers to a local virtual NIC.
	DestInterface DestType = iota
	// DestLink forwards through the bridge to a remote VNET/P core, a
	// VNET/U daemon, or the local physical network.
	DestLink
)

func (d DestType) String() string {
	if d == DestInterface {
		return "interface"
	}
	return "link"
}

// Destination is where a matched packet goes.
type Destination struct {
	Type DestType
	// ID names the interface or link.
	ID string
}

func (d Destination) String() string { return fmt.Sprintf("%s:%s", d.Type, d.ID) }

// Route is one routing-table entry: a (source, destination) MAC pattern
// mapping to a destination, with an optional backup destination used
// while the primary is marked failed.
type Route struct {
	DstMAC  ethernet.MAC
	DstQual Qualifier
	SrcMAC  ethernet.MAC
	SrcQual Qualifier
	Dest    Destination

	// Backup, when HasBackup is set, is substituted for Dest while Dest
	// is marked failed (Table.FailDest) — the failover path the link
	// health monitor flips traffic onto when a link goes Down.
	Backup    Destination
	HasBackup bool

	// Tenant scopes the route to one tenant's table (0 = the default
	// tenant). The field rides on Route so the control plane can round-
	// trip tenant-scoped routes through LIST/DEL; lookup itself happens
	// in the per-tenant Table the route was installed into.
	Tenant uint32
}

// matches reports whether the route matches the packet addresses, and the
// specificity score used to pick the best match (exact beats not beats
// any; destination specificity beats source specificity).
func (r *Route) matches(src, dst ethernet.MAC) (bool, int) {
	score := 0
	switch r.DstQual {
	case QualExact:
		if r.DstMAC != dst {
			return false, 0
		}
		score += 8
	case QualNot:
		if r.DstMAC == dst {
			return false, 0
		}
		score += 4
	case QualAny:
	}
	switch r.SrcQual {
	case QualExact:
		if r.SrcMAC != src {
			return false, 0
		}
		score += 2
	case QualNot:
		if r.SrcMAC == src {
			return false, 0
		}
		score++
	case QualAny:
	}
	return true, score
}

func (r *Route) String() string {
	q := func(m ethernet.MAC, qu Qualifier) string {
		switch qu {
		case QualAny:
			return "any"
		case QualNot:
			return "not-" + m.String()
		default:
			return m.String()
		}
	}
	s := fmt.Sprintf("src=%s dst=%s -> %s", q(r.SrcMAC, r.SrcQual), q(r.DstMAC, r.DstQual), r.Dest)
	if r.HasBackup {
		s += fmt.Sprintf(" (backup %s)", r.Backup)
	}
	if r.Tenant != 0 {
		s += fmt.Sprintf(" [tenant %d]", r.Tenant)
	}
	return s
}

// ErrNoRoute is returned when no routing entry matches a packet.
var ErrNoRoute = errors.New("core: no matching route")

type cacheKey struct {
	src, dst ethernet.MAC
}

// cacheCap bounds the routing cache (the flow cache's default working
// set). Without it a MAC scan on a node with static routes grows the
// cache by one entry per distinct (src, dst) until the next route
// mutation clears it.
const cacheCap = 16384

// Table is the VNET/P routing table: a linear-scan rule list indexed by
// source and destination MAC, with one hash routing cache in front of it
// so the common case is a constant-time lookup (paper Sect. 4.3). Table
// is safe for concurrent use. The simulation (single-threaded) runs it
// with the cache on; the real-socket overlay caches whole forwarding
// decisions in its own flow cache and runs its tables with the cache
// off (NewTenants), so its lookups are rule scans under the read lock.
type Table struct {
	mu     sync.RWMutex
	routes []*Route
	cache  map[cacheKey][]Destination // written under mu held exclusively
	failed map[Destination]bool       // destinations currently failed over

	// CacheEnabled can be cleared to measure the cache's contribution
	// (ablation benchmark). Set it before the table carries concurrent
	// traffic. Enabled by default.
	CacheEnabled bool

	// Stats. Atomic because hits and uncached scans count under the
	// read lock. With the cache off every lookup is a miss. Evictions
	// counts answers displaced by the capacity bound.
	Hits, Misses, Evictions atomic.Uint64

	// onInvalidate, when set, is called (under t.mu) every time the
	// routing cache is cleared. The overlay installs a hook that bumps
	// its flow-cache epoch, so any event that can change a routing
	// answer — route churn, FailDest/RestoreDest, teardown sweeps —
	// also retires every derived per-flow forwarding decision. The hook
	// must be cheap and must not call back into the table.
	onInvalidate func()

	// srcQual counts routes whose SrcQual is not QualAny, moved under mu
	// before the edit's invalidation; a Tenants set shares one counter.
	srcQual *atomic.Int64
}

// NewTable returns an empty routing table with the cache enabled.
func NewTable() *Table {
	return &Table{
		cache:        make(map[cacheKey][]Destination),
		failed:       make(map[Destination]bool),
		CacheEnabled: true,
		srcQual:      new(atomic.Int64),
	}
}

// invalidateCacheLocked clears the routing cache. Caller holds t.mu
// exclusively, which serializes the clear against miss-path fills: a
// lookup that resolved routes under the old state can never insert its
// stale answer after the clear, so invalidation is atomic with respect to
// FailDest/RestoreDest and route mutations.
func (t *Table) invalidateCacheLocked() {
	clear(t.cache)
	if t.onInvalidate != nil {
		t.onInvalidate()
	}
}

// SetInvalidateHook registers fn to run whenever the routing cache is
// invalidated. One hook per table; passing nil clears it.
func (t *Table) SetInvalidateHook(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onInvalidate = fn
}

// FailDest marks a destination as failed: routes pointing at it that
// carry a backup resolve to the backup until RestoreDest. The routing
// cache is invalidated atomically, so in-flight traffic switches on the
// next lookup. Returns how many routes failed over (idempotent: marking
// an already-failed destination returns 0).
func (t *Table) FailDest(d Destination) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed[d] {
		return 0
	}
	t.failed[d] = true
	t.invalidateCacheLocked()
	n := 0
	for _, r := range t.routes {
		if r.Dest == d && r.HasBackup {
			n++
		}
	}
	return n
}

// RestoreDest clears a destination's failed mark (failback), returning
// how many routes switched back to their primary.
func (t *Table) RestoreDest(d Destination) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.failed[d] {
		return 0
	}
	delete(t.failed, d)
	t.invalidateCacheLocked()
	n := 0
	for _, r := range t.routes {
		if r.Dest == d && r.HasBackup {
			n++
		}
	}
	return n
}

// FailedDests snapshots the destinations currently marked failed.
func (t *Table) FailedDests() []Destination {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Destination, 0, len(t.failed))
	for d := range t.failed {
		out = append(out, d)
	}
	return out
}

// resolveLocked maps a matched route to the destination traffic should
// use right now: the backup while the primary is failed, the primary
// otherwise. Caller holds at least a read lock.
func (t *Table) resolveLocked(r *Route) Destination {
	if r.HasBackup && t.failed[r.Dest] {
		return r.Backup
	}
	return r.Dest
}

// countSrcQual moves the source-qualified route count by d for r.
func (t *Table) countSrcQual(r *Route, d int64) {
	if r.SrcQual != QualAny {
		t.srcQual.Add(d)
	}
}

// AddRoute appends a route and invalidates the routing cache.
func (t *Table) AddRoute(r Route) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rc := r
	t.routes = append(t.routes, &rc)
	t.countSrcQual(&rc, 1)
	t.invalidateCacheLocked()
}

// RemoveRoute removes the first route exactly equal to r, reporting
// whether one was found. The cache is invalidated on success.
func (t *Table) RemoveRoute(r Route) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, have := range t.routes {
		if *have == r {
			t.routes = append(t.routes[:i], t.routes[i+1:]...)
			t.countSrcQual(&r, -1)
			t.invalidateCacheLocked()
			return true
		}
	}
	return false
}

// RemoveByDest removes all routes pointing at dest, returning how many
// were removed (used when a link or interface is torn down).
func (t *Table) RemoveByDest(dest Destination) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.routes[:0]
	removed := 0
	for _, r := range t.routes {
		if r.Dest == dest {
			removed++
			t.countSrcQual(r, -1)
			continue
		}
		kept = append(kept, r)
	}
	t.routes = kept
	if removed > 0 {
		t.invalidateCacheLocked()
	}
	return removed
}

// Len reports the number of routes.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.routes)
}

// Routes returns a snapshot of the table.
func (t *Table) Routes() []Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Route, len(t.routes))
	for i, r := range t.routes {
		out[i] = *r
	}
	return out
}

// CacheStats reports the routing cache's hit and miss counts.
func (t *Table) CacheStats() (hits, misses uint64) {
	return t.Hits.Load(), t.Misses.Load()
}

// Lookup resolves the destinations for a packet. Unicast packets get the
// single best (most specific) match; broadcast/multicast packets get every
// distinct matching destination except ones that would loop the frame back
// to its source interface (the caller excludes that by name). The second
// result reports whether the answer came from the routing cache, so the
// simulated datapath can charge the linear-scan cost only on misses.
//
// A hit, and a scan with the cache off, hold only the read lock. A miss
// with the cache on takes the table lock to scan the rules and fill the
// cache; holding it across resolve-and-fill keeps the fill atomic with
// invalidation.
func (t *Table) Lookup(src, dst ethernet.MAC) ([]Destination, bool, error) {
	if !t.CacheEnabled {
		t.mu.RLock()
		defer t.mu.RUnlock()
		t.Misses.Add(1)
		dests, err := t.scanLocked(src, dst)
		return dests, false, err
	}
	key := cacheKey{src, dst}
	t.mu.RLock()
	dests, ok := t.cache[key]
	t.mu.RUnlock()
	if ok {
		t.Hits.Add(1)
		return dests, true, nil
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.Misses.Add(1)
	dests, err := t.scanLocked(src, dst)
	if err != nil {
		return nil, false, err
	}
	// At capacity one resident answer goes — arbitrary victim, as in the
	// overlay's flow cache: any answer can be recomputed from the rules,
	// so victim choice is purely a performance question.
	if _, resident := t.cache[key]; !resident && len(t.cache) >= cacheCap {
		for victim := range t.cache {
			delete(t.cache, victim)
			t.Evictions.Add(1)
			break
		}
	}
	t.cache[key] = dests
	return dests, false, nil
}

// Best is the uncached Lookup of one unicast packet, by value: the best
// match, and whether any route counted in srcQual has a source qualifier
// — read under one lock, so bySrc false is the answer for every source.
func (t *Table) Best(src, dst ethernet.MAC) (d Destination, bySrc bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.Misses.Add(1)
	d, ok := t.bestLocked(src, dst)
	if !ok {
		err = ErrNoRoute
	}
	return d, t.srcQual.Load() > 0, err
}

// bestLocked scans for the most specific match (read lock held).
func (t *Table) bestLocked(src, dst ethernet.MAC) (d Destination, ok bool) {
	best := -1
	for _, r := range t.routes {
		if ok, score := r.matches(src, dst); ok && score > best {
			best = score
			d = t.resolveLocked(r)
		}
	}
	return d, best >= 0
}

// scanLocked resolves a packet against the rule list. Caller holds at
// least a read lock.
func (t *Table) scanLocked(src, dst ethernet.MAC) ([]Destination, error) {
	var dests []Destination
	if dst.IsBroadcast() || dst.IsMulticast() {
		seen := make(map[Destination]bool)
		for _, r := range t.routes {
			if ok, _ := r.matches(src, dst); ok {
				d := t.resolveLocked(r)
				if !seen[d] {
					seen[d] = true
					dests = append(dests, d)
				}
			}
		}
	} else if d, ok := t.bestLocked(src, dst); ok {
		dests = []Destination{d}
	}
	if len(dests) == 0 {
		return nil, ErrNoRoute
	}
	return dests, nil
}
