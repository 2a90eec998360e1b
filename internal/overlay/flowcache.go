// The per-flow fast path (ISSUE 9, 24): a flat forwarding-decision cache
// in front of the routing machinery, modeled on ONCache's observation
// that an overlay matches its baseline by caching the *entire*
// per-packet decision, keyed on what decides it: (tenant, dstMAC) while
// no installed route has a source qualifier — the source is zeroed, so a
// destination is one entry however many sources talk to it — and
// (tenant, srcMAC, dstMAC) while any does. A hit resolves the endpoint
// or link — and through the link its seal context, header template and
// transport — in one array read: one atomic load of the key's slot and a
// compare of the entry's key and epoch. No lock, no map, no tenant-table
// lookup, no rule scan, no node mutex, and no write to a node-wide word.
// A miss costs one resolve (resolveFlow) plus that same hit path: every
// unicast frame is forwarded by flowHit.
//
// The cache is direct-mapped: a key has one slot, and a store displaces
// whatever the slot held. Two live keys hashing to one slot evict each
// other on every alternation, where a hashed map would hold both; with
// flowCacheSize slots and the handful of destinations a node forwards
// to, that conflict is rare, and it costs a resolve, never a wrong
// answer.
//
// Correctness rests on epoch-based invalidation: the node keeps a
// single atomic flow epoch, and every event that can change a
// forwarding answer bumps it — route churn and FailDest/RestoreDest
// (via the routing table's invalidation hook), link add/delete/replace,
// tenant key installs, endpoint detach; a source-qualified route coming
// or going is a route edit, so entries of the other keying die with its
// bump, not by a sweep. How a link reaches its peer
// (transport, fault conduit, tunables) is not part of the answer: an
// entry holds the link, and the link publishes that state itself. An
// entry records the epoch observed *before* its backing route lookup
// ran; a hit is valid only while the entry's epoch equals the current
// one, and a topology edit is published before its bump, so an
// invalidation racing a fill can only strand an already-stale entry,
// never resurrect one. A stale flow-cache entry would be a silent
// cross-tenant or dead-link delivery; the churn, fuzz, and failover
// suites pin that this never happens.

package overlay

import (
	"sync/atomic"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/trace"
)

// flowCacheSize is the cache's slot count, a power of two: generous
// for the paper's VM-pair working sets while bounding a MAC-scan's
// memory.
const flowCacheSize = 16384

// flowEntry is one cached forwarding decision: whose frame it is, where
// it goes, and the handles that account it. Nothing in it is mutable but
// fl and hits, nor a copy of anything that is — a link's transport state
// is read through the link's own atomics at send time. Never copied by
// value.
type flowEntry struct {
	key    core.FlowKey // the cache key it was stored under
	epoch  uint64       // flow epoch observed before the backing lookup
	tenant uint32

	// fl memoises the live accounting entry (core.FlowStats.Acquire) of
	// the last admitted local source through this decision: its next
	// frame accounts with two atomic adds, another source's acquires and,
	// when the table admits it, takes the slot.
	fl atomic.Pointer[core.Flow]

	// hits counts the lookups this entry answered, so a hit writes the
	// entry it read and no node-wide counter.
	hits atomic.Uint64

	// sli is the flow tenant's per-tenant indicator handles, resolved
	// at fill time so hits account tenant traffic with atomic adds.
	sli *tenantSLI

	// Exactly one of ep/lk is non-nil: local delivery or link forward.
	// A resolve that finds neither is a no-route verdict, handled where
	// it was resolved and never turned into an entry.
	ep *Endpoint
	lk *link
}

// flowCache is the node's per-flow forwarding cache: a power-of-two
// array of slots, one per FlowKey.Shard value, plus the counters the
// telemetry funcs read. Invalidation is implicit (epoch mismatch on
// read) — a bump costs one atomic add no matter how many entries it
// retires; stale entries are overwritten on refill.
type flowCache struct {
	slots []atomic.Pointer[flowEntry]

	// hits is the hit count of the entries displaced so far; the resident
	// entries carry the rest (FlowCacheStats adds them up).
	hits, misses, evictions atomic.Uint64
}

// newFlowCache returns a cache of size slots, rounded up to a power of
// two.
func newFlowCache(size int) *flowCache {
	n := 1
	for n < size {
		n <<= 1
	}
	return &flowCache{slots: make([]atomic.Pointer[flowEntry], n)}
}

// lookup returns the entry for k if its slot holds one for k that is
// current at epoch; anything else is a miss.
func (c *flowCache) lookup(k core.FlowKey, epoch uint64) *flowEntry {
	e := c.slots[k.Shard(len(c.slots))].Load()
	if e == nil || e.key != k || e.epoch != epoch {
		c.misses.Add(1)
		return nil
	}
	e.hits.Add(1)
	return e
}

// store installs e as k's entry, displacing whatever k's slot held. A
// displaced entry of another key is an eviction; a displaced entry's
// hits move to the cache's total.
func (c *flowCache) store(k core.FlowKey, e *flowEntry) {
	e.key = k
	old := c.slots[k.Shard(len(c.slots))].Swap(e)
	if old == nil {
		return
	}
	c.hits.Add(old.hits.Load())
	if old.key != k {
		c.evictions.Add(1)
	}
}

// stats walks the slots: the hits of the displaced entries plus those of
// the resident ones, and the resident entry count (current and stale
// alike — a stale entry still occupies its slot until overwritten). A
// hit that lands on an entry after it was displaced is not counted, and
// a store racing the walk may be seen on either side of it, so a
// concurrent reading can be off by the hits of the entries displaced
// meanwhile.
func (c *flowCache) stats() (hits uint64, entries int) {
	hits = c.hits.Load()
	for i := range c.slots {
		if e := c.slots[i].Load(); e != nil {
			hits += e.hits.Load()
			entries++
		}
	}
	return hits, entries
}

// bumpFlowEpoch retires every cached flow decision. Called from every
// mutation that can change a forwarding answer; route-table
// invalidations arrive via the core.Tenants hook installed at node
// construction.
func (n *Node) bumpFlowEpoch() { n.flowEpoch.Add(1) }

// FlowCacheStats reports the flow cache's counters and occupancy
// (zeroes when the cache is disabled). Hits are counted in the entries
// that answered them and summed here: a hit that lands on an entry after
// the entry was displaced is not counted.
func (n *Node) FlowCacheStats() (hits, misses, evictions uint64, entries int) {
	fc := n.fcache
	if fc == nil {
		return 0, 0, 0, 0
	}
	hits, entries = fc.stats()
	return hits, fc.misses.Load(), fc.evictions.Load(), entries
}

// FlowEpoch exposes the current flow epoch (tests pin that specific
// events bump it).
func (n *Node) FlowEpoch() uint64 { return n.flowEpoch.Load() }

// forwardUnicast routes one unicast frame: a current cache entry is the
// whole decision; otherwise the flow is resolved once, the decision
// stored when the cache is on and the target belongs to the flow's own
// tenant, and the frame forwarded by the same flowHit a hit uses. The
// fill epoch is read BEFORE the keying, the cache probe and the backing
// route lookup: an invalidation racing the resolve lands the entry
// already stale, so a hit can never serve a decision older than the last
// epoch bump it observed. ck, the cache key, drops the source while no
// route is source-qualified; a decision whose own scan saw a qualifier
// (bySrc) is stored only under a key that names its source (the zero MAC
// names none: it is the source-less spelling). A resolve with no usable
// target (no route, unknown tenant, a route naming an absent link or
// interface) is a drop: sender charged, no_route, nothing cached.
func (n *Node) forwardUnicast(key core.FlowKey, f *ethernet.Frame, from *Endpoint, sample bool) error {
	epoch := n.flowEpoch.Load()
	fc, ck := n.fcache, key
	if !n.tenants.SourceQualified() {
		ck.Src = ethernet.MAC{}
	}
	if fc != nil {
		if e := fc.lookup(ck, epoch); e != nil {
			n.flowHit(e, key, f, from, sample)
			return nil
		}
	}
	e := &flowEntry{epoch: epoch, tenant: key.Tenant}
	scope, bySrc, err := n.resolveFlow(e, key)
	if e.ep == nil && e.lk == nil {
		if from != nil {
			n.countOut(e.sli, n.flows.Acquire(key.Src, key.Dst), key, f)
		}
		n.drop(dropNoRoute, 1, routeDetail(key, scope))
		return err
	}
	own := (e.ep != nil && e.ep.tenant == key.Tenant) || (e.lk != nil && e.lk.tenant == key.Tenant)
	if fc != nil && own && (!bySrc || !ck.Src.IsZero()) {
		fc.store(ck, e)
	}
	n.flowHit(e, key, f, from, sample)
	return nil
}

// resolveFlow fills e with the decision for (tenant, src, dst): the
// tenant table's best match, the target it names (resolveDest), and the
// tenant's indicator handles. bySrc: the answer may depend on the source
// (core.Table.Best). When the decision has no target, scope names the
// absent link or interface the route resolved to (empty when nothing
// matched) and err is what the sender is told.
func (n *Node) resolveFlow(e *flowEntry, key core.FlowKey) (scope string, bySrc bool, err error) {
	e.sli = n.slis.get(key.Tenant)
	tbl, err := n.routeTable(key.Tenant)
	if err != nil {
		return "", true, err
	}
	d, bySrc, err := tbl.Best(key.Src, key.Dst)
	if err == nil {
		n.resolveDest(e, d)
	}
	return d.ID, bySrc, err
}

// resolveDest points a decision at the endpoint or link a route
// destination names in the published topology (neither, when it is not
// attached).
func (n *Node) resolveDest(e *flowEntry, d core.Destination) {
	if t := n.topo.Load(); d.Type == core.DestInterface {
		e.ep = t.eps[d.ID]
	} else {
		e.lk = t.links[d.ID]
	}
}

// flowHit forwards one unicast frame from a decision — the hot path,
// and the only one: cached, just resolved, or transient. A locally
// originated frame is charged to its tenant here, whatever becomes of
// it, and to its flow when FlowStats holds the flow.
func (n *Node) flowHit(e *flowEntry, key core.FlowKey, f *ethernet.Frame, from *Endpoint, sample bool) {
	if from != nil {
		fl := e.fl.Load()
		if fl == nil || fl.Src != f.Src {
			if fl = n.flows.Acquire(f.Src, f.Dst); fl != nil {
				e.fl.Store(fl) // an unadmitted source leaves the memo to the last admitted one
			}
		}
		n.countOut(e.sli, fl, key, f)
	}
	if f.Tag != 0 {
		n.tracer.Record(f.Tag, trace.StageRouteLookup)
	}
	n.forwardTo(e, key, f, from, sample)
}

// forwardTo hands a frame to one resolved target (e.ep or e.lk): a
// unicast frame's decision, or one leg of a broadcast fan-out. Tenancy
// is re-checked here on every forward, on immutable fields (entry,
// endpoint, and link tenants are all fixed at their creation), so even a
// hypothetical stale entry surviving an epoch bump could not cross
// tenants. Every frame entering here is delivered, encoded into its
// link's pending batch (sendRing), or lands on exactly one ledger reason;
// nothing here is the caller's error — what a link's transport refuses
// later lands on tx_error. A link leg with sample set takes the frame's
// TX latency sample where it leaves. An endpoint leg delivers f itself
// when it came from the wire and a copy when a local endpoint sent it, so
// the sender may reuse its frame once Send returns.
func (n *Node) forwardTo(e *flowEntry, key core.FlowKey, f *ethernet.Frame, from *Endpoint, sample bool) {
	tenant := key.Tenant
	if ep := e.ep; ep != nil {
		switch {
		case ep == from:
		case e.tenant != tenant || ep.tenant != tenant:
			n.drop(dropCrossTenant, 1, routeDetail(key, ep.name))
		case from != nil:
			ep.deliver(f.Clone())
		default:
			ep.deliver(f)
		}
		return
	}
	lk := e.lk
	if e.tenant != tenant || lk.tenant != tenant {
		n.drop(dropCrossTenant, 1, routeDetail(key, lk.id))
		return
	}
	n.sendRing(lk, f, sample)
}
