// Package vnetpsim is the simulated VNET/P: the core embedded in a
// host's VMM (paper Sect. 4.3), whose packet dispatchers run in
// guest-driven, VMM-driven or adaptive mode under the Table 1 parameters,
// and the host bridge (Sect. 4.5) that encapsulates, fragments and
// reassembles on simulated time. Routing is internal/core's Table and the
// wire arithmetic internal/bridge's codec, the same code the real-socket
// overlay runs; the live binaries link nothing of this package.
package vnetpsim

import (
	"hash/fnv"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/sim"
	"vnetp/internal/virtio"
	"vnetp/internal/vmm"
)

// LocalLinkID is the reserved link name for the "local network"
// destination: frames routed to it exit the overlay as raw Ethernet
// (direct send).
const LocalLinkID = "local"

// VNETP is the simulated VNET/P core embedded in a host's VMM: it routes
// Ethernet frames between registered virtual NICs on this host and the
// bridge, using packet dispatchers in guest-driven, VMM-driven, or
// adaptive mode.
type VNETP struct {
	Eng    *sim.Engine
	Host   *vmm.Host
	Params Params
	Table  *core.Table
	// Bridge forwards the frames the core routed to link destinations;
	// it charges its own encapsulation and host-stack costs.
	Bridge *Bridge
	// Flows is the per-(src,dst) traffic accounting the adaptation layer
	// (internal/adapt) reads.
	Flows *core.FlowStats

	dispatchers []*sim.Worker
	rr          uint32
	ifaces      map[string]*Iface

	// Stats
	LocalDelivered uint64 // frames delivered to a local virtual NIC
	ToBridge       uint64 // frames handed to the bridge
	NoRoute        uint64 // frames dropped for lack of a route
}

// New creates a VNET/P core on a host with NDispatchers dispatcher
// threads configured per params.
func New(host *vmm.Host, params Params) *VNETP {
	if params.NDispatchers < 1 {
		params.NDispatchers = 1
	}
	v := &VNETP{
		Eng:    host.Eng,
		Host:   host,
		Params: params,
		Table:  core.NewTable(),
		Flows:  core.NewFlowStats(),
		ifaces: make(map[string]*Iface),
	}
	wc := sim.WorkerConfig{Yield: params.Yield, TSleep: params.TSleep, TNoWork: params.TNoWork}
	for i := 0; i < params.NDispatchers; i++ {
		v.dispatchers = append(v.dispatchers, sim.NewWorker(host.Eng, wc))
	}
	return v
}

// Iface returns the registered interface by name (nil if absent).
func (v *VNETP) Iface(name string) *Iface { return v.ifaces[name] }

// Dispatchers exposes the dispatcher workers (for CPU accounting in
// experiments).
func (v *VNETP) Dispatchers() []*sim.Worker { return v.dispatchers }

// dispatcherFor picks the dispatcher thread for a flow. Flows hash by MAC
// pair so each flow stays FIFO while different flows spread across
// threads.
func (v *VNETP) dispatcherFor(src, dst ethernet.MAC) *sim.Worker {
	if len(v.dispatchers) == 1 {
		return v.dispatchers[0]
	}
	if v.Params.RoundRobinDispatch {
		v.rr++
		return v.dispatchers[v.rr%uint32(len(v.dispatchers))]
	}
	h := fnv.New32a()
	h.Write(src[:])
	h.Write(dst[:])
	return v.dispatchers[h.Sum32()%uint32(len(v.dispatchers))]
}

// Iface is a virtual NIC registered with the VNET/P core, together with
// the dispatch-mode state the core keeps for it. It implements the
// guest-facing port the simulated network stack drives.
type Iface struct {
	Name string
	VM   *vmm.VM
	NIC  *virtio.NIC
	core *VNETP

	mode       Mode // effective mode (== Params.Mode unless Adaptive)
	pktsInWin  int
	winTimerOn bool
	// txBusy gates the TX drain: exactly one drain chain (guest-driven or
	// VMM-driven) runs at a time, so frames leave the ring in FIFO order
	// even across adaptive mode switches. This mirrors virtio's
	// notification suppression: pushes while a drain is active do not
	// re-kick.
	txBusy     bool
	rxIPIArmed bool
	pendingRX  []*ethernet.Frame
	txCond     *sim.Cond
	recvUpcall func()

	// Stats
	Kicks        uint64 // TX notifications that caused VM exits
	KicksAvoided uint64 // TX pushes absorbed by a polling dispatcher
	ModeSwitches uint64
	RxDropped    uint64 // frames dropped after pendingRX overflow
}

// maxPendingRX bounds the parking area used while a guest's RXQ is full
// and an IPI-forced drain is in flight; beyond it we drop like a NIC
// would.
const maxPendingRX = 1024

// Register attaches a virtual NIC (belonging to vm) to the core under the
// given interface name. The NIC uses VNET/P as its backend from then on
// (paper Sect. 4.4).
func (v *VNETP) Register(name string, vm *vmm.VM, nic *virtio.NIC) *Iface {
	ifc := &Iface{
		Name:   name,
		VM:     vm,
		NIC:    nic,
		core:   v,
		txCond: sim.NewCond(v.Eng),
	}
	switch v.Params.Mode {
	case Adaptive:
		ifc.mode = GuestDriven // adaptive starts in the low-rate mode
	default:
		ifc.mode = v.Params.Mode
	}
	v.ifaces[name] = ifc
	return ifc
}

// Unregister detaches an interface (e.g. on VM migration away from this
// host). Routes pointing at it are removed.
func (v *VNETP) Unregister(name string) {
	delete(v.ifaces, name)
	v.Table.RemoveByDest(core.Destination{Type: core.DestInterface, ID: name})
}

// MAC returns the interface's hardware address.
func (ifc *Iface) MAC() ethernet.MAC { return ifc.NIC.MAC }

// MTU returns the MTU VNET/P advertises for this NIC.
func (ifc *Iface) MTU() int { return ifc.NIC.MTU }

// Mode reports the interface's current effective dispatch mode.
func (ifc *Iface) Mode() Mode { return ifc.mode }

// SetRecv installs the guest-side upcall invoked (in guest interrupt
// context, costs already charged) when received frames are available in
// the RXQ.
func (ifc *Iface) SetRecv(fn func()) { ifc.recvUpcall = fn }

// TrySend enqueues a frame on the NIC's TX ring, reporting false if the
// ring is full. On success the frame enters the VNET/P datapath per the
// current dispatch mode.
func (ifc *Iface) TrySend(f *ethernet.Frame) bool {
	if !ifc.NIC.TX.Push(f) {
		return false
	}
	ifc.core.Host.Tracer.Record(f.Tag, "guest: TX ring push")
	ifc.countPacket()
	if ifc.txBusy {
		// A drain chain is active: it will pick this frame up (suppressed
		// notification — no exit either way).
		ifc.KicksAvoided++
		return true
	}
	ifc.txBusy = true
	if ifc.mode == GuestDriven {
		// The kick I/O write exits to the VMM; the dispatcher runs in the
		// exit context on the guest's own core.
		ifc.Kicks++
		ifc.NIC.TX.CountNotify()
		ifc.VM.Exit(0, func() { ifc.drainTXGuestDriven() })
	} else {
		// VMM-driven: a dispatcher thread polls the ring; no exit.
		ifc.KicksAvoided++
		ifc.pollTX()
	}
	return true
}

// continueDrain keeps the single TX drain chain going in whatever mode
// the interface is in now — an adaptive switch mid-stream migrates the
// chain to the new path at the next batch boundary.
func (ifc *Iface) continueDrain() {
	if ifc.mode == GuestDriven {
		ifc.drainTXGuestDriven()
	} else {
		ifc.pollTX()
	}
}

// WaitSendSpace blocks the calling process until TX ring space may be
// available again.
func (ifc *Iface) WaitSendSpace(p *sim.Proc) { ifc.txCond.Wait(p) }

// drainTXGuestDriven processes the TX ring in VM-exit context: per-packet
// dispatch cost on the guest core, then routing, then a TX-completion
// interrupt (this is the latency-optimal, throughput-poor path).
func (ifc *Iface) drainTXGuestDriven() {
	batch := ifc.NIC.TX.PopBatch(0)
	if len(batch) == 0 {
		ifc.txBusy = false
		return
	}
	cost := time.Duration(len(batch)) * ifc.core.Host.Model.DispatchPerPacket
	ifc.VM.GuestWork(cost, func() {
		for _, f := range batch {
			ifc.core.route(f, ifc)
		}
		ifc.txComplete()
		ifc.continueDrain()
	})
}

// txComplete reclaims descriptors: blocked senders are released, and a
// TX-completion interrupt (with its exit-amplified guest cost) is
// injected only when the driver asked for one because it was out of ring
// space — virtio suppresses TX interrupts otherwise.
func (ifc *Iface) txComplete() {
	if ifc.txCond.HasWaiters() {
		ifc.VM.Inject(ifc.txCond.Broadcast)
		return
	}
	ifc.txCond.Broadcast()
}

// pollTX is the VMM-driven drain chain on a dispatcher thread.
func (ifc *Iface) pollTX() {
	batch := ifc.NIC.TX.PopBatch(32)
	if len(batch) == 0 {
		ifc.txBusy = false
		return
	}
	w := ifc.core.dispatcherFor(ifc.NIC.MAC, ethernet.MAC{})
	cost := time.Duration(len(batch)) * ifc.core.Host.Model.DispatchPerPacket
	w.Submit(cost, func() {
		for _, f := range batch {
			ifc.core.route(f, ifc)
		}
		ifc.txComplete()
		ifc.continueDrain()
	})
}

// DeliverFromWire hands a de-encapsulated frame from the bridge to a
// packet dispatcher (paper Fig. 7 reception path).
func (v *VNETP) DeliverFromWire(f *ethernet.Frame) {
	w := v.dispatcherFor(f.Src, f.Dst)
	w.Submit(v.Host.Model.DispatchPerPacket, func() { v.route(f, nil) })
}

// route looks up the frame's destinations and forwards. Runs in
// dispatcher (or exit) context; the cache-hit lookup cost is part of
// DispatchPerPacket, a miss charges the linear-scan penalty before
// forwarding.
func (v *VNETP) route(f *ethernet.Frame, from *Iface) {
	v.Host.Tracer.Record(f.Tag, "core: dispatched + routed")
	if from != nil {
		// Account locally-originated traffic only, so a flow is counted
		// once per overlay crossing (at its source core).
		v.Flows.Record(f.Src, f.Dst, f.WireLen())
	}
	dests, hit, err := v.Table.Lookup(f.Src, f.Dst)
	if err != nil {
		v.NoRoute++
		return
	}
	forward := func() {
		for _, d := range dests {
			switch d.Type {
			case core.DestInterface:
				ifc := v.ifaces[d.ID]
				if ifc == nil || ifc == from {
					continue
				}
				v.deliverLocal(ifc, f)
			case core.DestLink:
				v.ToBridge++
				send := func() {
					if d.ID == LocalLinkID {
						v.Bridge.SendDirect(f)
					} else {
						v.Bridge.SendOverlay(d.ID, f)
					}
				}
				if v.Params.CutThrough {
					// Cut-through: the frame is forwarded in place — no
					// staging buffer, no bus crossing.
					send()
				} else {
					// The single in-VMM data copy (TXQ -> bridge buffer).
					v.Host.MemCopy(f.WireLen(), send)
				}
			}
		}
	}
	if hit {
		forward()
		return
	}
	v.Eng.Schedule(time.Duration(v.Table.Len())*v.Host.Model.RouteMissPerEntry, forward)
}

// deliverLocal copies a frame into a local NIC's RX ring and notifies the
// guest, coalescing interrupts while the guest is draining and escalating
// to an IPI-forced exit when the ring is full (paper Sect. 4.3).
func (v *VNETP) deliverLocal(ifc *Iface, f *ethernet.Frame) {
	push := func() {
		if ifc.NIC.RX.Push(f) {
			v.Host.Tracer.Record(f.Tag, "core: RX ring push")
			v.LocalDelivered++
			ifc.countPacket()
			if ifc.NIC.RX.NotifyEnabled() {
				ifc.NIC.RX.SetNotify(false)
				ifc.NIC.RX.CountNotify()
				if v.Params.OptimisticInterrupts {
					ifc.VM.InjectOptimistic(ifc.notifyRecv)
				} else {
					ifc.VM.Inject(ifc.notifyRecv)
				}
			}
			return
		}
		if len(ifc.pendingRX) >= maxPendingRX {
			ifc.RxDropped++
			return
		}
		ifc.pendingRX = append(ifc.pendingRX, f)
		if !ifc.rxIPIArmed {
			ifc.rxIPIArmed = true
			ifc.VM.IPIExit(func() {
				ifc.rxIPIArmed = false
				ifc.notifyRecv()
			})
		}
	}
	if v.Params.CutThrough {
		// Zero-copy into the ring: the dispatcher hands the guest the
		// buffer it already holds.
		push()
		return
	}
	v.Host.MemCopy(f.WireLen(), push)
}

func (ifc *Iface) notifyRecv() {
	if ifc.recvUpcall != nil {
		ifc.recvUpcall()
	}
}

// GuestRecv pops one received frame from the RX ring (guest context; the
// caller charges guest-side costs).
func (ifc *Iface) GuestRecv() (*ethernet.Frame, bool) {
	f, ok := ifc.NIC.RX.Pop()
	if ok {
		ifc.core.Host.Tracer.Record(f.Tag, "guest: drained from RX ring")
	}
	return f, ok
}

// napiRepoll is how long the guest driver keeps polling (notifications
// still suppressed) after draining the ring empty, before re-arming the
// receive interrupt — NAPI's storm-avoidance behaviour. Frames arriving
// inside the window are picked up at a light polling cost instead of a
// full injected-interrupt path.
const napiRepoll = 30 * time.Microsecond

// pollCost is the guest-side cost of one NAPI re-poll pass.
const pollCost = 500 * time.Nanosecond

// RxDone is called by the guest driver when it finishes a drain pass:
// parked frames are refilled, and the driver either continues in polling
// mode (data still pending), schedules a NAPI re-poll, or — only after an
// idle re-poll — re-arms receive notifications.
func (ifc *Iface) RxDone() {
	refilled := false
	for len(ifc.pendingRX) > 0 && ifc.NIC.RX.Push(ifc.pendingRX[0]) {
		ifc.pendingRX[0] = nil
		ifc.pendingRX = ifc.pendingRX[1:]
		ifc.core.LocalDelivered++
		ifc.countPacket()
		refilled = true
	}
	if !ifc.NIC.RX.Empty() || refilled {
		// Still work queued: stay in polling mode, no new interrupt.
		ifc.VM.GuestWork(pollCost, ifc.notifyRecv)
		return
	}
	ifc.core.Eng.Schedule(napiRepoll, func() {
		if !ifc.NIC.RX.Empty() {
			ifc.VM.GuestWork(pollCost, ifc.notifyRecv)
			return
		}
		ifc.NIC.RX.SetNotify(true)
	})
}

// countPacket feeds the adaptive-mode rate estimator (Fig. 6): packet
// arrivals to or from the NIC are counted over windows of ω.
func (ifc *Iface) countPacket() {
	if ifc.core.Params.Mode != Adaptive {
		return
	}
	ifc.pktsInWin++
	if !ifc.winTimerOn {
		ifc.winTimerOn = true
		ifc.core.Eng.Schedule(ifc.core.Params.Omega, ifc.windowTick)
	}
}

// windowTick recomputes the NIC's packet rate and applies the hysteresis
// rule of Fig. 6.
func (ifc *Iface) windowTick() {
	p := ifc.core.Params
	rate := float64(ifc.pktsInWin) / p.Omega.Seconds()
	ifc.pktsInWin = 0
	switch {
	case rate > p.AlphaU && ifc.mode == GuestDriven:
		ifc.mode = VMMDriven
		ifc.ModeSwitches++
	case rate < p.AlphaL && ifc.mode == VMMDriven:
		ifc.mode = GuestDriven
		ifc.ModeSwitches++
	}
	if rate == 0 && ifc.mode == GuestDriven {
		// Idle and already in the low-rate mode: stop ticking so the
		// simulation can quiesce; the next packet restarts the window.
		ifc.winTimerOn = false
		return
	}
	ifc.core.Eng.Schedule(p.Omega, ifc.windowTick)
}
