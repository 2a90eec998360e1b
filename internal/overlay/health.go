// Link liveness for the real overlay: each link carries periodic
// lightweight probe datagrams over its existing encapsulation channel
// (UDP datagrams or the TCP stream) and tracks a per-link state machine
//
//	Up → Degraded → Down
//
// with hysteresis: FailThreshold consecutive missed probes take a link
// Down, RecoverThreshold consecutive replies bring it back. A Down link
// atomically fails its backup-equipped routes over to their backups
// (core.Table.FailDest) and fails back on recovery, so overlay traffic
// resumes without guest-visible reconfiguration — the "adaptive IaaS"
// behavior the paper's Sect. 2–3 assumes. Sustained-lossy UDP links can
// be configured to auto-upgrade to TCP encapsulation, the paper's own
// lossy-path escape hatch, and failed TCP transports redial with capped
// exponential backoff.
package overlay

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/supervise"
	"vnetp/internal/telemetry"
)

// LinkState is a monitored link's liveness verdict.
type LinkState int

const (
	// LinkUp carries traffic normally.
	LinkUp LinkState = iota
	// LinkDegraded is lossy beyond the configured threshold but not
	// dead; routing is unchanged, but the state is surfaced and can
	// trigger a UDP→TCP upgrade.
	LinkDegraded
	// LinkDown has missed FailThreshold consecutive probes; routes with
	// backups have failed over.
	LinkDown
)

func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkDegraded:
		return "degraded"
	case LinkDown:
		return "down"
	}
	return "unknown"
}

// HealthConfig tunes the link-health monitor.
type HealthConfig struct {
	// Interval between probes on each link.
	Interval time.Duration
	// ProbeTimeout is how long a probe may stay unanswered before it
	// counts as lost. Defaults to Interval.
	ProbeTimeout time.Duration
	// FailThreshold consecutive lost probes take a link Down.
	FailThreshold int
	// RecoverThreshold consecutive replies bring a Down link back Up.
	RecoverThreshold int
	// DegradeLossPct is the loss fraction over the window at or above
	// which an Up link is marked Degraded (it returns to Up below half
	// the threshold — hysteresis against flapping).
	DegradeLossPct float64
	// LossWindow is how many recent probes the loss rate is measured
	// over.
	LossWindow int
	// AutoUpgradeLossPct, when > 0, switches a UDP link whose full
	// window's loss meets it to TCP encapsulation.
	AutoUpgradeLossPct float64
	// RedialMin and RedialMax bound the capped exponential backoff used
	// to re-establish failed TCP transports.
	RedialMin, RedialMax time.Duration
}

// DefaultHealthConfig returns moderate production-style thresholds.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{
		Interval:         200 * time.Millisecond,
		FailThreshold:    3,
		RecoverThreshold: 2,
		DegradeLossPct:   0.25,
		LossWindow:       16,
		RedialMin:        100 * time.Millisecond,
		RedialMax:        5 * time.Second,
	}
}

// normalize fills every unset field from DefaultHealthConfig (an unset
// ProbeTimeout from Interval) and raises a RedialMax below RedialMin to
// it.
func (c *HealthConfig) normalize() {
	d := DefaultHealthConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.Interval
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = d.FailThreshold
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = d.RecoverThreshold
	}
	if c.DegradeLossPct <= 0 {
		c.DegradeLossPct = d.DegradeLossPct
	}
	if c.LossWindow <= 0 {
		c.LossWindow = d.LossWindow
	}
	if c.RedialMin <= 0 {
		c.RedialMin = d.RedialMin
	}
	if c.RedialMax <= 0 {
		c.RedialMax = d.RedialMax
	}
	if c.RedialMax < c.RedialMin {
		c.RedialMax = c.RedialMin
	}
}

// linkHealth is per-link liveness state, guarded by the node mutex. Its
// counters are children of the node's per-link registry families: the
// health monitor increments the exact objects /metrics scrapes and
// LINK STATUS renders.
type linkHealth struct {
	state        LinkState
	seq          uint64
	pending      map[uint64]time.Time // outstanding probes by sequence
	consecMissed int
	consecOK     int
	window       []bool // ring of recent outcomes (true = replied)
	windowPos    int
	windowLen    int
	rtt          time.Duration // EWMA of measured probe RTTs

	probesSent, probesLost, repliesRecv     *telemetry.Counter
	failovers, failbacks, redials, upgrades *telemetry.Counter
	stateGauge                              *telemetry.Gauge
	rttHist                                 *telemetry.Histogram
}

// newLinkHealth creates liveness state for lk wired to the node's
// per-link metric families. Recreating health for a link id (retuned
// window) reattaches the same registry children, so the counters stay
// cumulative, matching Prometheus counter semantics.
func (n *Node) newLinkHealth(lk *link, windowSize int) *linkHealth {
	m := n.metrics
	h := &linkHealth{
		pending: make(map[uint64]time.Time),
		window:  make([]bool, windowSize),

		probesSent:  m.linkProbesSent.With(lk.id),
		probesLost:  m.linkProbesLost.With(lk.id),
		repliesRecv: m.linkReplies.With(lk.id),
		failovers:   m.linkFailovers.With(lk.id),
		failbacks:   m.linkFailbacks.With(lk.id),
		redials:     m.linkRedials.With(lk.id),
		upgrades:    m.linkUpgrades.With(lk.id),
		stateGauge:  m.linkState.With(lk.id),
		rttHist:     m.linkRTT.With(lk.id),
	}
	h.stateGauge.Set(float64(h.state))
	return h
}

func (h *linkHealth) push(ok bool) {
	h.window[h.windowPos] = ok
	h.windowPos = (h.windowPos + 1) % len(h.window)
	if h.windowLen < len(h.window) {
		h.windowLen++
	}
}

func (h *linkHealth) lossRate() float64 {
	if h.windowLen == 0 {
		return 0
	}
	lost := 0
	for i := 0; i < h.windowLen; i++ {
		if !h.window[i] {
			lost++
		}
	}
	return float64(lost) / float64(h.windowLen)
}

// resetWindow clears loss history (after a transport change).
func (h *linkHealth) resetWindow() {
	h.windowLen, h.windowPos, h.consecMissed, h.consecOK = 0, 0, 0, 0
}

// EnableHealth starts (or retunes — it restarts an active monitor) the
// link-health monitor: periodic probes on every link, Up/Degraded/Down
// tracking with hysteresis, failover of backup-equipped routes when a
// link goes Down, failback on recovery, and TCP transport redial with
// capped exponential backoff.
func (n *Node) EnableHealth(cfg HealthConfig) error {
	cfg.normalize()
	n.DisableHealth()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("overlay: node closed")
	}
	n.healthCfg = cfg
	n.healthOn = true
	for _, lk := range n.topo.Load().links {
		if lk.health == nil || len(lk.health.window) != cfg.LossWindow {
			lk.health = n.newLinkHealth(lk, cfg.LossWindow)
		}
	}
	// The monitor runs supervised ("health"): a panic in a tick restarts
	// it over the same link state, and a stalled tick is superseded.
	n.healthW = n.sup.Go("health",
		func(i *supervise.Instance) { n.healthLoop(i, cfg.Interval) })
	return nil
}

// DisableHealth stops the monitor. Link states and counters are kept.
func (n *Node) DisableHealth() {
	n.mu.Lock()
	if !n.healthOn {
		n.mu.Unlock()
		return
	}
	n.healthOn = false
	w := n.healthW
	n.healthW = nil
	n.mu.Unlock()
	if w != nil {
		w.Stop()
	}
}

func (n *Node) healthLoop(inst *supervise.Instance, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-inst.Quit():
			return
		case <-n.quit:
			return
		case <-t.C:
			inst.Working()
			n.healthTick()
			inst.Idle()
		}
	}
}

// healthTick runs one monitor round: expire unanswered probes, evaluate
// state transitions, launch this round's probes, and redial broken TCP
// transports whose backoff has elapsed.
func (n *Node) healthTick() {
	now := time.Now()
	type outProbe struct {
		lk *link
		d  []byte
	}
	var probes []outProbe
	var redials []*link

	n.mu.Lock()
	if !n.healthOn || n.closed {
		n.mu.Unlock()
		return
	}
	cfg := n.healthCfg
	for _, lk := range n.topo.Load().links {
		h := lk.health
		if h == nil {
			h = n.newLinkHealth(lk, cfg.LossWindow)
			lk.health = h
		}
		for seq, at := range h.pending {
			if now.Sub(at) >= cfg.ProbeTimeout {
				delete(h.pending, seq)
				n.noteProbeLocked(lk, false)
			}
		}
		if lk.transport.Load().proto == "tcp" && lk.tcp.Load() == nil {
			// No transport: probing is impossible. Count the round as a
			// miss so the state machine converges on Down, and redial
			// once the backoff allows.
			n.noteProbeLocked(lk, false)
			if now.After(lk.redialAt) {
				redials = append(redials, lk)
			}
			continue
		}
		h.seq++
		h.pending[h.seq] = now
		h.probesSent.Inc()
		probes = append(probes, outProbe{lk, marshalProbe(lk.id, h.seq)})
	}
	n.mu.Unlock()

	for _, p := range probes {
		// Best effort: a failed send surfaces as a lost probe.
		n.transmit(p.lk, p.lk.transport.Load(), [][]byte{p.d})
	}
	for _, lk := range redials {
		n.dialTCP(lk) // errors advance the backoff internally
	}
}

// noteProbeLocked feeds one probe outcome into a link's state machine
// and performs failover/failback/upgrade transitions. Caller holds n.mu.
func (n *Node) noteProbeLocked(lk *link, ok bool) {
	if !n.healthOn {
		return
	}
	h := lk.health
	cfg := n.healthCfg
	h.push(ok)
	if ok {
		h.consecOK++
		h.consecMissed = 0
	} else {
		h.probesLost.Inc()
		h.consecMissed++
		h.consecOK = 0
	}
	dest := core.Destination{Type: core.DestLink, ID: lk.id}
	switch {
	case h.state != LinkDown && h.consecMissed >= cfg.FailThreshold:
		h.state = LinkDown
		h.failovers.Inc()
		n.tenants.Each(func(_ uint32, t *core.Table) { t.FailDest(dest) })
	case h.state == LinkDown && h.consecOK >= cfg.RecoverThreshold:
		h.state = LinkUp
		h.failbacks.Inc()
		n.tenants.Each(func(_ uint32, t *core.Table) { t.RestoreDest(dest) })
	case h.state == LinkUp && h.windowLen == len(h.window) && h.lossRate() >= cfg.DegradeLossPct:
		h.state = LinkDegraded
	case h.state == LinkDegraded && h.lossRate() < cfg.DegradeLossPct/2:
		h.state = LinkUp
	}
	h.stateGauge.Set(float64(h.state))
	// Sustained-lossy UDP links escape to TCP encapsulation (the paper's
	// lossy/wide-area path transport).
	if tr := *lk.transport.Load(); tr.proto == "udp" && cfg.AutoUpgradeLossPct > 0 &&
		h.windowLen == len(h.window) && h.lossRate() >= cfg.AutoUpgradeLossPct {
		tr.proto, tr.budget = "tcp", tcpMaxDatagram
		lk.transport.Store(&tr) // applies from the link's next send
		h.upgrades.Inc()
		h.resetWindow() // the TCP transport starts with a clean history
	}
}

// LinkHealth reports a link's current state and whether it has health
// history (probed at least once or created under an active monitor).
func (n *Node) LinkHealth(id string) (LinkState, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	lk := n.topo.Load().links[id]
	if lk == nil || lk.health == nil {
		return LinkUp, false
	}
	return lk.health.state, true
}

// --- control.HealthTarget implementation ---

// LinkStatus reports one link's health detail (LINK STATUS <id>),
// rendered from the link's registry snapshot — the same counters
// /metrics scrapes.
func (n *Node) LinkStatus(id string) ([]string, error) {
	g := gathered(n.metrics.reg.Gather())
	n.mu.Lock()
	defer n.mu.Unlock()
	lk, ok := n.topo.Load().links[id]
	if !ok {
		return nil, fmt.Errorf("overlay: no link %q", id)
	}
	return linkStatusLines(g, lk), nil
}

// HealthSummary reports one line per link (LIST HEALTH), rendered from
// the same registry snapshots as LINK STATUS and /metrics.
func (n *Node) HealthSummary() []string {
	g := gathered(n.metrics.reg.Gather())
	n.mu.Lock()
	defer n.mu.Unlock()
	links := n.topo.Load().links
	ids := make([]string, 0, len(links))
	for id := range links {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, linkSummaryLine(g, links[id]))
	}
	return out
}

// SetProbeConfig retunes the heartbeat monitor (LINK PROBE command),
// enabling it if it was off. Zero arguments keep the current values.
func (n *Node) SetProbeConfig(interval time.Duration, failN, recoverN int) error {
	n.mu.Lock()
	cfg := n.healthCfg
	on := n.healthOn
	n.mu.Unlock()
	if !on {
		cfg = DefaultHealthConfig()
	}
	if interval > 0 {
		cfg.Interval = interval
		cfg.ProbeTimeout = 0 // renormalize to the new interval
	}
	if failN > 0 {
		cfg.FailThreshold = failN
	}
	if recoverN > 0 {
		cfg.RecoverThreshold = recoverN
	}
	return n.EnableHealth(cfg)
}

// --- probe wire format ---
//
// A probe is an encapsulation datagram with the Probe flag; the reply
// echoes the payload with ProbeReply set. Payload layout:
//
//	seq(8) | sent-unix-nano(8) | idlen(1) | linkID
//
// The link ID names the *sender's* link, so the sender can match the
// echoed reply to a link no matter which channel carries it back; its
// one length byte is why addLink refuses an ID longer than maxLinkID.

const (
	probeHeadLen = 17
	maxLinkID    = 255
)

func marshalProbe(linkID string, seq uint64) []byte {
	p := make([]byte, 0, probeHeadLen+len(linkID))
	p = binary.BigEndian.AppendUint64(p, seq)
	p = binary.BigEndian.AppendUint64(p, uint64(time.Now().UnixNano()))
	p = append(p, byte(len(linkID)))
	p = append(p, linkID...)
	h := bridge.EncapHeader{ID: uint32(seq), TotalLen: uint32(len(p)), Probe: true}
	return append(h.Marshal(nil), p...)
}

func marshalProbeReply(payload []byte) []byte {
	h := bridge.EncapHeader{TotalLen: uint32(len(payload)), ProbeReply: true}
	return append(h.Marshal(nil), payload...)
}

func parseProbePayload(p []byte) (seq uint64, linkID string, ok bool) {
	if len(p) < probeHeadLen {
		return 0, "", false
	}
	seq = binary.BigEndian.Uint64(p)
	idLen := int(p[16])
	if len(p) < probeHeadLen+idLen {
		return 0, "", false
	}
	return seq, string(p[probeHeadLen : probeHeadLen+idLen]), true
}

// handleProbeReply matches an echoed probe to its link and records the
// outcome. Called by datagram, for either transport.
func (n *Node) handleProbeReply(sender string, payload []byte) {
	seq, linkID, ok := parseProbePayload(payload)
	if !ok {
		n.drop(dropBadPacket, 1, telemetry.DropDetail{Scope: sender, Stage: "probe_reply"})
		return
	}
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	lk := n.topo.Load().links[linkID]
	if lk == nil || lk.health == nil {
		return
	}
	h := lk.health
	at, pending := h.pending[seq]
	if !pending {
		return // late duplicate or already expired
	}
	delete(h.pending, seq)
	h.repliesRecv.Inc()
	sample := now.Sub(at)
	h.rttHist.Observe(sample.Seconds())
	if h.rtt == 0 {
		h.rtt = sample
	} else {
		h.rtt = (h.rtt*7 + sample) / 8
	}
	n.noteProbeLocked(lk, true)
}
