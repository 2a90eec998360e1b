// Adaptive dispatch for the live datapath: the paper's signature
// mechanism (Sect. 4, Table 1) applied to the real-socket overlay. A
// supervised controller samples each link's frame counter every ω and
// runs α_l/α_u hysteresis (internal/adapt/rate) over the observed rate:
// an idle link runs in latency mode (batch=1: every frame leaves in a
// datagram of its own the moment the sender sees it — the guest-driven
// analogue) and a loaded link in throughput mode (batch=TxBatch: the
// sender takes what has queued up behind the frame that woke it and
// packs it into shared datagrams — the VMM-driven analogue). Neither
// mode ever waits for frames that have not arrived. The effective
// tunables live in an atomic per-link snapshot the TX sender reads per
// batch, so a retune applies from the next batch with no locking on the
// hot path. Mode state is exported (vnetp_dispatch_mode,
// vnetp_dispatch_mode_switches_total), logged, and operator-controllable
// at runtime (LINK TUNE / LIST TUNING).

package overlay

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vnetp/internal/adapt/rate"
	"vnetp/internal/supervise"
)

// defaultAdaptiveBatch is the throughput-mode batch size used when
// adaptive dispatch is enabled without an explicit TxBatch: without a
// ring there would be nothing to adapt.
const defaultAdaptiveBatch = 32

// AdaptiveConfig enables and tunes per-link adaptive dispatch. Zero
// thresholds take the paper's Table 1 values via internal/adapt/rate.
type AdaptiveConfig struct {
	// Enabled starts the per-link controller. It implies the batched
	// transmit path: a node configured with TxBatch < 2 gets
	// defaultAdaptiveBatch as its throughput-mode batch size.
	Enabled bool
	// AlphaL is the throughput→latency downswitch threshold in frames/s
	// (default 10^3, Table 1 α_l).
	AlphaL float64
	// AlphaU is the latency→throughput upswitch threshold in frames/s
	// (default 10^4, Table 1 α_u).
	AlphaU float64
	// Omega is the controller's sampling tick (default 5ms, Table 1 ω).
	Omega time.Duration
	// HoldDown is the minimum dwell in a mode between switches
	// (default 4×Omega).
	HoldDown time.Duration
}

func (c *AdaptiveConfig) normalize() {
	if !c.Enabled {
		return
	}
	if c.Omega <= 0 {
		c.Omega = 5 * time.Millisecond
	}
	if c.HoldDown <= 0 {
		c.HoldDown = 4 * c.Omega
	}
}

// txTunables is one link's effective batched-transmit operating point.
// txLoop loads the snapshot once per batch; the adaptive controller (or
// LINK TUNE) publishes a fresh snapshot to retune the link live.
type txTunables struct {
	mode  rate.Mode
	batch int // most frames taken per sender wakeup (1 in latency mode)
}

// tunablesFor maps a dispatch mode onto the node's operating points:
// throughput mode takes up to the configured TxBatch frames per wakeup,
// latency mode dispatches each frame on its own.
func (n *Node) tunablesFor(m rate.Mode) *txTunables {
	if m == rate.Throughput {
		return &txTunables{mode: m, batch: n.cfg.TxBatch}
	}
	return &txTunables{mode: rate.Latency, batch: 1}
}

// initLinkTunables publishes a fresh link's initial operating point:
// latency mode under an adaptive controller (an idle link's correct
// start), throughput mode — the configured static tunables — otherwise.
// Caller holds n.mu; the link already has its metric children.
func (n *Node) initLinkTunables(lk *link) {
	mode := rate.Throughput
	if lk.ctrl != nil {
		mode = lk.ctrl.Mode()
	}
	lk.tun.Store(n.tunablesFor(mode))
	lk.modeGauge.Set(float64(mode))
}

// applyMode publishes a link's new operating point and records the
// transition: tunables snapshot, mode gauge, switch counter, log line.
// Called only for real transitions (controller switch or an operator
// pin that changed the mode).
func (n *Node) applyMode(lk *link, m rate.Mode, why string, extra ...any) {
	tun := n.tunablesFor(m)
	lk.tun.Store(tun)
	lk.modeGauge.Set(float64(m))
	lk.modeSwitches.Inc()
	n.log.Info("dispatch mode switched",
		append([]any{"node", n.name, "link", lk.id, "mode", m.String(),
			"batch", tun.batch, "cause", why}, extra...)...)
}

// adaptLoop is the node's dispatch-mode controller: every ω it samples
// each controlled link's frame counter, feeds the delta to the link's
// hysteresis controller, and applies any mode switch. Supervised as
// "adaptive": controller state (mode, dwell, last sample) lives on the
// link and in the rate.Controller, so a panic-restarted or superseded
// instance resumes where the old one left off; links added or removed
// mid-tick are picked up on the next tick (each tick walks the topology
// published at that instant).
func (n *Node) adaptLoop(inst *supervise.Instance) {
	t := time.NewTicker(n.cfg.Adaptive.Omega)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-n.quit:
			return
		case <-inst.Quit():
			return
		case now := <-t.C:
			inst.Working()
			elapsed := now.Sub(last)
			last = now
			for _, lk := range n.topo.Load().links {
				if lk.ctrl == nil {
					continue
				}
				total := lk.txFrames.Load()
				prev := lk.lastTxFrames.Swap(total)
				if total < prev {
					// The counter restarted below our sample (link was
					// replaced between snapshot and here): resync.
					continue
				}
				if mode, switched := lk.ctrl.Observe(total-prev, elapsed); switched {
					n.applyMode(lk, mode, "rate",
						"rate_per_s", int64(float64(total-prev)/elapsed.Seconds()))
				}
			}
			inst.Idle()
		}
	}
}

// --- control-plane surface (control.TuneTarget) ---

// SetLinkTune retunes one link's dispatch mode at runtime (the LINK
// TUNE control verb): "latency" or "throughput" pin the mode against
// the rate controller (or retune a static batched link directly);
// "auto" releases a pin so rate-driven switching resumes. Links on the
// synchronous transmit path have no ring to tune and are rejected.
func (n *Node) SetLinkTune(id, mode string) error {
	lk, ok := n.topo.Load().links[id]
	if !ok {
		return fmt.Errorf("overlay: no link %q", id)
	}
	if lk.txq == nil {
		return fmt.Errorf("overlay: link %q runs the synchronous transmit path (no TX ring to tune)", id)
	}
	switch strings.ToLower(mode) {
	case "latency", "throughput":
		m := rate.Latency
		if strings.EqualFold(mode, "throughput") {
			m = rate.Throughput
		}
		if lk.ctrl != nil {
			if lk.ctrl.Pin(m) {
				n.applyMode(lk, m, "pinned")
			}
		} else if cur := lk.tun.Load(); cur.mode != m {
			n.applyMode(lk, m, "tuned")
		}
	case "auto":
		if lk.ctrl == nil {
			return fmt.Errorf("overlay: link %q has no adaptive controller (enable NodeConfig.Adaptive / vnetpd -adaptive)", id)
		}
		lk.ctrl.Auto()
	default:
		return fmt.Errorf("overlay: unknown tune mode %q (want latency, throughput, or auto)", mode)
	}
	n.log.Info("link tuned", "node", n.name, "link", id, "mode", strings.ToLower(mode))
	return nil
}

// TuningSummary reports one line per link with its effective dispatch
// tunables (the LIST TUNING control verb), rendered from the same
// registry handles /metrics scrapes: the mode gauge and the switch
// counter are the children exported as vnetp_dispatch_mode and
// vnetp_dispatch_mode_switches_total.
func (n *Node) TuningSummary() []string {
	byID := n.topo.Load().links
	links := make([]*link, 0, len(byID))
	for _, lk := range byID {
		links = append(links, lk)
	}
	sort.Slice(links, func(i, j int) bool { return links[i].id < links[j].id })
	out := make([]string, 0, len(links))
	for _, lk := range links {
		if lk.txq == nil {
			out = append(out, fmt.Sprintf("%s mode=synchronous", lk.id))
			continue
		}
		source := "static"
		if lk.ctrl != nil {
			source = "auto"
			if lk.ctrl.Pinned() {
				source = "pinned"
			}
		}
		tun := lk.tun.Load()
		mode := rate.Mode(int32(lk.modeGauge.Value()))
		out = append(out, fmt.Sprintf("%s mode=%s source=%s batch=%d switches=%d",
			lk.id, mode, source, tun.batch, lk.modeSwitches.Load()))
	}
	return out
}
