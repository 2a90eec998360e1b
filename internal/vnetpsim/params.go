package vnetpsim

import (
	"time"

	"vnetp/internal/sim"
)

// Mode selects how packet dispatchers service a virtual NIC (paper
// Sect. 4.3, Fig. 3).
type Mode int

const (
	// GuestDriven dispatches in the context of the VM exit the guest's
	// NIC kick causes: minimizes small-message latency.
	GuestDriven Mode = iota
	// VMMDriven polls the NIC from dedicated dispatcher threads, handling
	// multiple packets per poll and suppressing NIC-related exits:
	// maximizes throughput.
	VMMDriven
	// Adaptive switches between the two based on the packet arrival rate
	// with hysteresis (Fig. 6).
	Adaptive
)

func (m Mode) String() string {
	switch m {
	case GuestDriven:
		return "guest-driven"
	case VMMDriven:
		return "VMM-driven"
	case Adaptive:
		return "adaptive"
	default:
		return "unknown"
	}
}

// Params are VNET/P's performance tuning parameters (paper Sect. 4.8,
// Table 1).
type Params struct {
	// Mode is the configured dispatch mode.
	Mode Mode
	// AlphaL is the lower rate bound (packets/s): below it, adaptive
	// operation switches back to guest-driven mode.
	AlphaL float64
	// AlphaU is the upper rate bound (packets/s): above it, adaptive
	// operation switches to VMM-driven mode. AlphaU > AlphaL gives the
	// hysteresis that prevents rapid mode flapping.
	AlphaU float64
	// Omega is the window over which rates are recomputed.
	Omega time.Duration
	// NDispatchers is the number of packet dispatcher threads.
	NDispatchers int
	// Yield is the yield strategy for the bridge and dispatcher threads
	// and the VMM's halt handler.
	Yield sim.YieldStrategy
	// TSleep is the timed-yield sleep interval.
	TSleep time.Duration
	// TNoWork is the adaptive-yield threshold.
	TNoWork time.Duration
	// RoundRobinDispatch spreads successive packets over all dispatcher
	// threads instead of hashing per flow. It trades per-flow FIFO order
	// for single-flow scaling — the configuration behind the paper's
	// Fig. 5 receive-throughput-vs-cores experiment.
	RoundRobinDispatch bool

	// The two VNET/P+ techniques (the follow-on work the paper points to
	// for reaching native 10G performance; Cui et al., SC'12):

	// OptimisticInterrupts delivers guest RX interrupts before the full
	// exit-amplified interrupt path completes, hiding it from packet
	// latency.
	OptimisticInterrupts bool
	// CutThrough overlaps the in-VMM staging copy with forwarding instead
	// of serializing on it (and tells the bridge to do the same), which
	// removes a memory-bus crossing from the pipeline's critical path.
	CutThrough bool
}

// PlusParams returns the VNET/P+ configuration: the Table 1 defaults with
// optimistic interrupts and cut-through forwarding enabled.
func PlusParams() Params {
	p := DefaultParams()
	p.OptimisticInterrupts = true
	p.CutThrough = true
	return p
}

// DefaultParams returns the configuration of Table 1: adaptive mode,
// α_l = 10³ pkt/s, α_u = 10⁴ pkt/s, ω = 5 ms, one dispatcher, immediate
// yield.
func DefaultParams() Params {
	return Params{
		Mode:         Adaptive,
		AlphaL:       1e3,
		AlphaU:       1e4,
		Omega:        5 * time.Millisecond,
		NDispatchers: 1,
		Yield:        sim.YieldImmediate,
		TSleep:       time.Millisecond,
		TNoWork:      time.Millisecond,
	}
}
