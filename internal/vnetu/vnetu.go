// Package vnetu models VNET/U, the user-level predecessor of VNET/P and
// the baseline it is compared against throughout the paper's evaluation
// (Sect. 3, 5.2). VNET/U carries the same encapsulated-Ethernet overlay
// model but runs as a user-space daemon: every guest packet crosses the
// kernel/user boundary into the daemon and back, and on a quiet path pays
// a daemon scheduling delay — the costs the paper identifies as VNET/U's
// fundamental limit.
package vnetu

import (
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/sim"
	"vnetp/internal/virtio"
	"vnetp/internal/vmm"
	"vnetp/internal/vnetpsim"
)

// TapKind selects the tap interface connecting the VMM to the daemon. The
// paper measures both: Palacios with a custom tap reaches 71 MB/s, VMware
// with the standard host-only tap reaches 35 MB/s.
type TapKind int

const (
	// PalaciosTap is the custom low-overhead tap in Palacios.
	PalaciosTap TapKind = iota
	// VMwareTap is the standard host-only tap used with VMware.
	VMwareTap
)

func (k TapKind) String() string {
	if k == VMwareTap {
		return "vmware-tap"
	}
	return "palacios-tap"
}

// extra per-packet cost of the standard host-only tap relative to the
// Palacios custom tap, calibrated so the two configurations land at the
// paper's 71 vs 35 MB/s.
const vmwareTapExtra = 15 * time.Microsecond

// Daemon is one host's VNET/U daemon plus the VMM tap plumbing to its
// guest. It exposes the same guest-facing port shape as vnetpsim.Iface so the
// simulated network stack can run over either system. On the wire it
// speaks vnetpsim.EncapMsg — the compatible encapsulation that lets VNET/U
// daemons and VNET/P cores interoperate in one overlay (paper Sect. 4.2:
// "the intent is that VNET/P and VNET/U be interoperable, with VNET/P
// providing the fast path").
type Daemon struct {
	Host  *vmm.Host
	Table *core.Table
	Tap   TapKind

	worker *sim.Worker // the user-level daemon thread
	links  map[string]string
	nextID uint64
	ifaces map[string]*Iface

	// Stats
	Forwarded, Received, NoRoute uint64
}

// New creates a daemon on host and installs it as the host's wire
// receiver.
func New(host *vmm.Host, tap TapKind) *Daemon {
	d := &Daemon{
		Host:   host,
		Table:  core.NewTable(),
		Tap:    tap,
		worker: sim.NewWorker(host.Eng, sim.WorkerConfig{Yield: sim.YieldTimed, TSleep: 50 * time.Microsecond}),
		links:  make(map[string]string),
		ifaces: make(map[string]*Iface),
	}
	host.SetReceiver(d.receive)
	return d
}

// AddLink installs an overlay link to a remote host.
func (d *Daemon) AddLink(id, remoteHost string) { d.links[id] = remoteHost }

// Register attaches a guest NIC to the daemon through the VMM tap.
func (d *Daemon) Register(name string, vm *vmm.VM, nic *virtio.NIC) *Iface {
	ifc := &Iface{Name: name, VM: vm, NIC: nic, d: d, txCond: sim.NewCond(d.Host.Eng)}
	d.ifaces[name] = ifc
	return ifc
}

// perPacket is the daemon-side cost of moving one packet through user
// space (tap read or write + processing).
func (d *Daemon) perPacket() time.Duration {
	c := d.Host.Model.UserKernelPerPacket
	if d.Tap == VMwareTap {
		c += vmwareTapExtra
	}
	return c
}

// daemonSubmit queues packet work on the daemon thread, paying the
// scheduling wake-up delay when the daemon was asleep.
func (d *Daemon) daemonSubmit(cost time.Duration, fn func()) {
	if d.worker.Backlog() == 0 {
		cost += d.Host.Model.DaemonWakeup
	}
	d.worker.Submit(cost, fn)
}

// forward routes a frame read from the tap and sends it over the matching
// link.
func (d *Daemon) forward(f *ethernet.Frame, from *Iface) {
	dests, _, err := d.Table.Lookup(f.Src, f.Dst)
	if err != nil {
		d.NoRoute++
		return
	}
	m := d.Host.Model
	for _, dest := range dests {
		switch dest.Type {
		case core.DestInterface:
			if ifc := d.ifaces[dest.ID]; ifc != nil && ifc != from {
				ifc.deliver(f)
			}
		case core.DestLink:
			remote, ok := d.links[dest.ID]
			if !ok {
				d.NoRoute++
				continue
			}
			d.Forwarded++
			d.nextID++
			msg := vnetpsim.NewEncapMsg(f, d.nextID)
			wire := f.WireLen() + vnetpsim.OuterOverhead
			// Socket send: user->kernel crossing + host stack + DMA.
			d.Host.Eng.Schedule(m.HostStackPerPacket, func() {
				d.Host.MemCopy(wire, func() {
					d.Host.Send(remote, wire, msg)
				})
			})
		}
	}
}

// receive handles an encapsulated packet from the wire: host stack, then
// the daemon thread (kernel/user crossing + wakeup), then the tap write
// into the VMM and the guest injection.
func (d *Daemon) receive(pkt *vmm.WirePacket) {
	msg, ok := pkt.Payload.(*vnetpsim.EncapMsg)
	if !ok || msg.N != 1 {
		// VNET/U guests use standard MTUs; fragmented jumbo datagrams
		// from a VNET/P peer exceed what this daemon's guests accept.
		return
	}
	m := d.Host.Model
	d.daemonSubmit(m.HostStackPerPacket+d.perPacket(), func() {
		d.Received++
		dests, _, err := d.Table.Lookup(msg.Frame.Src, msg.Frame.Dst)
		if err != nil {
			d.NoRoute++
			return
		}
		for _, dest := range dests {
			if dest.Type == core.DestInterface {
				if ifc := d.ifaces[dest.ID]; ifc != nil {
					ifc.deliver(msg.Frame)
				}
			}
		}
	})
}

// Iface is a guest NIC attached to a VNET/U daemon. Methods mirror
// vnetpsim.Iface so netstack ports work over both.
type Iface struct {
	Name string
	VM   *vmm.VM
	NIC  *virtio.NIC
	d    *Daemon

	recvUpcall func()
	txCond     *sim.Cond

	// Stats
	Kicks   uint64
	RxDrops uint64
}

// MAC returns the guest NIC's address.
func (ifc *Iface) MAC() ethernet.MAC { return ifc.NIC.MAC }

// MTU returns the guest NIC's MTU.
func (ifc *Iface) MTU() int { return ifc.NIC.MTU }

// SetRecv installs the guest receive upcall.
func (ifc *Iface) SetRecv(fn func()) { ifc.recvUpcall = fn }

// TrySend queues a frame: VM exit, VMM tap write, then the daemon thread
// picks it up through a kernel/user crossing.
func (ifc *Iface) TrySend(f *ethernet.Frame) bool {
	if !ifc.NIC.TX.Push(f) {
		return false
	}
	ifc.Kicks++
	ifc.VM.Exit(0, func() {
		batch := ifc.NIC.TX.PopBatch(0)
		ifc.d.daemonSubmit(time.Duration(len(batch))*ifc.d.perPacket(), func() {
			for _, fr := range batch {
				ifc.d.Host.MemCopy(fr.WireLen(), nil) // guest->daemon buffer copy
				ifc.d.forward(fr, ifc)
			}
			// TX completion: interrupt only if the driver ran out of ring
			// space (virtio suppresses it otherwise).
			if ifc.txCond.HasWaiters() {
				ifc.VM.Inject(ifc.txCond.Broadcast)
			} else {
				ifc.txCond.Broadcast()
			}
		})
	})
	return true
}

// WaitSendSpace blocks until the TX ring may have room.
func (ifc *Iface) WaitSendSpace(p *sim.Proc) { ifc.txCond.Wait(p) }

// deliver pushes a frame into the guest RX ring (tap write + VMM
// injection). VNET/U has no IPI escalation: a full ring drops.
func (ifc *Iface) deliver(f *ethernet.Frame) {
	ifc.d.Host.MemCopy(f.WireLen(), func() {
		if !ifc.NIC.RX.Push(f) {
			ifc.RxDrops++
			return
		}
		if ifc.NIC.RX.NotifyEnabled() {
			ifc.NIC.RX.SetNotify(false)
			ifc.VM.Inject(func() {
				if ifc.recvUpcall != nil {
					ifc.recvUpcall()
				}
			})
		}
	})
}

// GuestRecv pops one received frame.
func (ifc *Iface) GuestRecv() (*ethernet.Frame, bool) { return ifc.NIC.RX.Pop() }

// napiRepoll mirrors the virtio driver's NAPI behaviour (same guest
// driver as the VNET/P configuration): after an empty drain the driver
// keeps polling briefly before re-arming the receive interrupt.
const napiRepoll = 30 * time.Microsecond

// RxDone continues polling or re-arms notifications after a drain pass.
func (ifc *Iface) RxDone() {
	upcall := func() {
		if ifc.recvUpcall != nil {
			ifc.recvUpcall()
		}
	}
	if !ifc.NIC.RX.Empty() {
		ifc.VM.GuestWork(500*time.Nanosecond, upcall)
		return
	}
	ifc.d.Host.Eng.Schedule(napiRepoll, func() {
		if !ifc.NIC.RX.Empty() {
			ifc.VM.GuestWork(500*time.Nanosecond, upcall)
			return
		}
		ifc.NIC.RX.SetNotify(true)
	})
}
