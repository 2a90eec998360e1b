// Package trace records per-stage timestamps for tagged frames as they
// cross the datapath — the measured counterpart of the Fig. 7 stage
// budget, and the debugging tool for "where did this packet spend its
// time".
//
// Two tracers share the Hop/Path model and report renderer:
//
//   - Tracer follows frames through the *simulated* datapath on the clock
//     its caller passes to New (the sim engine's time since start), so
//     this package imports no simulator. Tracing is opt-in per frame:
//     give the frame a nonzero Tag (ethernet.Frame.Tag) and register it
//     with Watch.
//   - LiveTracer (live.go) follows frames through the real overlay
//     datapath on the wall clock, selected by a 1-in-N sampler or an
//     explicit per-MAC flow trigger, with trace context carried across
//     the wire in the encap header's trace extension.
//
// In both, hop offsets are time.Duration from a per-path origin:
// sim-time since engine start for the sim tracer, wall-clock time since
// Path.Start for the live one.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Live datapath stage names, in TX→RX order. The wire sits between
// StageWireTx on the sending node and StageRxDispatch on the receiver.
// DESIGN.md's tracing section lists these same names; the driftcheck
// tool holds the two sets equal.
const (
	StageVirtioPop   = "virtio_pop"   // frame popped from a virtio TX queue
	StageRouteLookup = "route_lookup" // routing table consulted
	StageTxEnqueue   = "tx_enqueue"   // frame queued on the per-link TX ring
	StageEncap       = "encap"        // frame encapsulated into datagrams
	StageWireTx      = "wire_tx"      // datagrams handed to the socket
	StageRxDispatch  = "rx_dispatch"  // datagram picked up by a dispatcher
	StageReassembly  = "reassembly"   // final fragment completed the frame
	StageDeliver     = "deliver"      // frame delivered to the endpoint
)

// Hop is one recorded stage crossing. At is the offset from the path's
// origin (engine start for sim traces, Path.Start for live traces).
type Hop struct {
	Stage string        `json:"stage"`
	At    time.Duration `json:"at_ns"`
}

// Path is a tagged frame's recorded journey. The sim tracer fills only
// Tag and Hops; the live tracer also stamps the recording node, the
// trace origin node, the wall-clock start, and the trace flags carried
// on the wire.
type Path struct {
	Tag    uint64    `json:"id"`
	Node   string    `json:"node,omitempty"`
	Origin uint16    `json:"origin,omitempty"`
	Start  time.Time `json:"start,omitempty"`
	Flags  uint16    `json:"flags,omitempty"`
	Done   bool      `json:"done,omitempty"`
	Hops   []Hop     `json:"hops"`
}

// Elapsed reports the time from the first to the last hop.
func (p *Path) Elapsed() time.Duration {
	if len(p.Hops) < 2 {
		return 0
	}
	return p.Hops[len(p.Hops)-1].At - p.Hops[0].At
}

// String renders the journey with per-stage deltas — the one report
// format shared by the sim and live tracers.
func (p *Path) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frame %d:", p.Tag)
	if p.Node != "" {
		fmt.Fprintf(&b, " node=%s origin=%04x", p.Node, p.Origin)
	}
	b.WriteByte('\n')
	for i, h := range p.Hops {
		delta := time.Duration(0)
		if i > 0 {
			delta = h.At - p.Hops[i-1].At
		}
		fmt.Fprintf(&b, "  %-28s t=%-12v (+%v)\n", h.Stage, h.At, delta)
	}
	return b.String()
}

// Tracer collects hop records for registered tags on a simulated clock.
// A nil *Tracer is valid and records nothing, so components can hold one
// unconditionally.
type Tracer struct {
	now   func() time.Duration
	paths map[uint64]*Path
}

// New returns a tracer that stamps hops with now, the simulated time
// since engine start.
func New(now func() time.Duration) *Tracer {
	return &Tracer{now: now, paths: make(map[uint64]*Path)}
}

// Watch registers a tag for recording.
func (t *Tracer) Watch(tag uint64) {
	if t == nil || tag == 0 {
		return
	}
	t.paths[tag] = &Path{Tag: tag}
}

// Record appends a hop for the tag if it is being watched. Safe on a nil
// tracer and for unwatched or zero tags.
func (t *Tracer) Record(tag uint64, stage string) {
	if t == nil || tag == 0 {
		return
	}
	p, ok := t.paths[tag]
	if !ok {
		return
	}
	p.Hops = append(p.Hops, Hop{Stage: stage, At: t.now()})
}

// Path returns the recorded journey for a tag (nil if unwatched).
func (t *Tracer) Path(tag uint64) *Path {
	if t == nil {
		return nil
	}
	return t.paths[tag]
}

// Paths returns every recorded journey, ordered by tag.
func (t *Tracer) Paths() []*Path {
	if t == nil {
		return nil
	}
	out := make([]*Path, 0, len(t.paths))
	for _, p := range t.paths {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}
