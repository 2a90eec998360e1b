package telemetry

import (
	"sort"
	"sync"
	"time"
)

// DropLedger is the single place a datapath reports lost traffic. Every
// drop site names a reason from a fixed vocabulary declared at
// construction; the ledger backs one vnetp_drops_total{reason=...}
// counter family and remembers a short tail of per-reason drop details
// for the diagnostic bundle. The ledger is the only thing a drop site
// increments: the older per-site counter families stay on /metrics as
// views its owner derives from it (internal/overlay/ledger.go), so
// existing dashboards and the LIST STATS pin remain append-only.
//
// The accounting contract mirrors the TX rules: one observed drop
// increments exactly one ledger reason, exactly once.
type DropLedger struct {
	total *CounterVec

	mu    sync.Mutex
	rings map[string]*dropRing
}

// DropDetail carries the datapath context of a dropped frame or
// datagram. All fields are optional; zero values mean the site did not
// know them.
type DropDetail struct {
	Tenant uint32 // owning tenant, when the site has tenant context
	Scope  string // link ID, worker index, or interface name
	Flow   string // rendered flow key, when the drop site knows it
	Stage  string // datapath stage (rx_open, tx_ring, route, ...)
}

// DropRecord is one remembered drop: the detail, when it happened, and
// how many drops the record stands for (bulk sites report batches).
type DropRecord struct {
	At     time.Time `json:"at"`
	Reason string    `json:"reason"`
	Count  uint64    `json:"count"`
	Tenant uint32    `json:"tenant"`
	Scope  string    `json:"scope,omitempty"`
	Flow   string    `json:"flow,omitempty"`
	Stage  string    `json:"stage,omitempty"`
}

// dropTailDepth bounds the per-reason detail ring. The tail is a triage
// aid ("what was the last thing we threw away and whose was it"), not a
// log; eight entries per reason is plenty and keeps /diag bundles small.
const dropTailDepth = 8

type dropRing struct {
	buf  [dropTailDepth]DropRecord
	next uint64 // records ever written; buf slot = next % dropTailDepth
}

// NewDropLedger registers vnetp_drops_total on reg and pre-creates a
// child (and detail ring) for each declared reason, so scrapes see the
// whole vocabulary at zero from the first gather.
func NewDropLedger(reg *Registry, reasons ...string) *DropLedger {
	l := &DropLedger{
		total: reg.CounterVec("vnetp_drops_total",
			"Frames and datagrams dropped anywhere in the datapath, by unified ledger reason.",
			"reason"),
		rings: make(map[string]*dropRing, len(reasons)),
	}
	for _, r := range reasons {
		l.total.With(r)
		l.rings[r] = &dropRing{}
	}
	return l
}

// Drop records n drops under reason. The counter moves by n; the detail
// ring gains one record standing for the whole batch. Reasons outside
// the declared vocabulary are accepted (a ring is created on first use)
// so late-added sites cannot lose accounting.
func (l *DropLedger) Drop(reason string, n uint64, d DropDetail) {
	if n == 0 {
		return
	}
	l.total.With(reason).Add(n)
	rec := DropRecord{
		At:     time.Now(),
		Reason: reason,
		Count:  n,
		Tenant: d.Tenant,
		Scope:  d.Scope,
		Flow:   d.Flow,
		Stage:  d.Stage,
	}
	l.mu.Lock()
	ring := l.rings[reason]
	if ring == nil {
		ring = &dropRing{}
		l.rings[reason] = ring
	}
	ring.buf[ring.next%dropTailDepth] = rec
	ring.next++
	l.mu.Unlock()
}

// Count returns the running total for one reason.
func (l *DropLedger) Count(reason string) uint64 {
	return l.total.With(reason).Load()
}

// Total returns the sum across all reasons — the node's one number for
// "frames lost anywhere".
func (l *DropLedger) Total() uint64 { return l.total.Sum() }

// Reasons returns the known reason vocabulary, sorted.
func (l *DropLedger) Reasons() []string {
	l.mu.Lock()
	out := make([]string, 0, len(l.rings))
	for r := range l.rings {
		out = append(out, r)
	}
	l.mu.Unlock()
	sort.Strings(out)
	return out
}

// Tail returns the remembered drop details for one reason, oldest
// first. Empty when the reason has never fired.
func (l *DropLedger) Tail(reason string) []DropRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	ring := l.rings[reason]
	if ring == nil || ring.next == 0 {
		return nil
	}
	return ring.tail()
}

// Snapshot returns the detail tails of every reason that has fired at
// least once, keyed by reason — the drop-ledger section of /diag.
func (l *DropLedger) Snapshot() map[string][]DropRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string][]DropRecord)
	for reason, ring := range l.rings {
		if ring.next == 0 {
			continue
		}
		out[reason] = ring.tail()
	}
	return out
}

// tail renders the ring oldest-first; caller holds the ledger lock.
func (r *dropRing) tail() []DropRecord {
	n := r.next
	depth := uint64(dropTailDepth)
	start := uint64(0)
	count := n
	if n > depth {
		start = n - depth
		count = depth
	}
	out := make([]DropRecord, 0, count)
	for i := start; i < n; i++ {
		out = append(out, r.buf[i%depth])
	}
	return out
}
