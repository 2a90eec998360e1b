// Package netstack is the simulated guest/host network stack the
// benchmark workloads run on: UDP datagrams, a window-limited reliable
// byte stream (the ttcp TCP stand-in), and ICMP echo, over any layer-2
// port — a VNET/P interface, a VNET/U interface, or the native NIC model
// defined here.
//
// Guest packets carry a compact 28-byte header (mimicking the IPv4+UDP
// overhead) in Frame.Payload, with the message body accounted as virtual
// padding; the overlay's outer headers are the real thing
// (internal/bridge codec).
package netstack

import (
	"time"

	"vnetp/internal/ethernet"
	"vnetp/internal/sim"
	"vnetp/internal/vmm"
)

// Port is the layer-2 attachment point a stack drives. vnetpsim.Iface,
// vnetu.Iface, and NativePort all satisfy it.
type Port interface {
	MAC() ethernet.MAC
	MTU() int
	// TrySend queues a frame for transmission, reporting false when the
	// TX ring is full.
	TrySend(f *ethernet.Frame) bool
	// WaitSendSpace blocks the process until TrySend may succeed.
	WaitSendSpace(p *sim.Proc)
	// SetRecv installs the upcall invoked when received frames are
	// available.
	SetRecv(fn func())
	// GuestRecv pops one received frame.
	GuestRecv() (*ethernet.Frame, bool)
	// RxDone marks the end of a receive drain pass.
	RxDone()
}

// NativePort is the non-virtualized comparator: the stack runs directly
// on the host and the NIC is driven without any VMM in the path. A
// bounded TX ring provides the usual NIC backpressure; segmentation
// offload means the native host-stack cost is charged per send call, not
// per wire packet (see Stack.PerDatagram).
type NativePort struct {
	Host *vmm.Host
	mac  ethernet.MAC
	mtu  int
	// peers maps destination MACs to host names (the static "switch").
	peers map[ethernet.MAC]string

	inflight int
	ringSize int
	txCond   *sim.Cond

	// rxWorker serializes receive-side interrupt/stack charges so packet
	// order is preserved across the idle/busy boundary.
	rxWorker *sim.Worker
	lastIntr sim.Time

	rxq        []*ethernet.Frame
	recvUpcall func()
	rxNotify   bool

	// Stats
	TxFrames, RxFrames, RxDrops uint64
}

// nativeMsg is a raw frame on the wire between native hosts.
type nativeMsg struct{ frame *ethernet.Frame }

// NewNativePort attaches a native NIC abstraction to a host and installs
// it as the host's wire receiver.
func NewNativePort(host *vmm.Host, mac ethernet.MAC, mtu int) *NativePort {
	if mtu <= 0 || mtu > host.Dev.MTU {
		mtu = host.Dev.MTU
	}
	p := &NativePort{
		Host:     host,
		mac:      mac,
		mtu:      mtu,
		peers:    make(map[ethernet.MAC]string),
		ringSize: 256,
		txCond:   sim.NewCond(host.Eng),
		rxWorker: sim.NewWorker(host.Eng, sim.WorkerConfig{Yield: sim.YieldImmediate}),
		rxNotify: true,
	}
	host.SetReceiver(p.receive)
	return p
}

// AddPeer maps a destination MAC to the host that owns it.
func (p *NativePort) AddPeer(mac ethernet.MAC, hostName string) { p.peers[mac] = hostName }

// MAC returns the port's address.
func (p *NativePort) MAC() ethernet.MAC { return p.mac }

// MTU returns the port's MTU.
func (p *NativePort) MTU() int { return p.mtu }

// TrySend DMAs the frame to the NIC and puts it on the wire. A frame
// larger than the device MTU is carried as a train of MTU-sized wire
// packets (IP fragmentation), delivered with the last one, so large
// payloads pipeline through store-and-forward hops just as fragments do.
func (p *NativePort) TrySend(f *ethernet.Frame) bool {
	if p.inflight >= p.ringSize {
		return false
	}
	dst, ok := p.peers[f.Dst]
	if !ok {
		return true // no such peer: silently dropped, like a switch flood to nowhere
	}
	p.inflight++
	p.TxFrames++
	wire := f.WireLen()
	p.Host.MemCopy(wire, func() {
		maxWire := p.Host.Dev.MTU + ethernet.HeaderLen
		for remaining := wire; remaining > 0; {
			chunk := remaining
			if chunk > maxWire {
				chunk = maxWire
			}
			remaining -= chunk
			if remaining == 0 {
				p.Host.Send(dst, chunk, &nativeMsg{frame: f})
			} else {
				p.Host.Send(dst, chunk, nil) // leading fragment, no payload
			}
		}
		p.inflight--
		p.txCond.Broadcast()
	})
	return true
}

// WaitSendSpace blocks until the TX ring drains below capacity.
func (p *NativePort) WaitSendSpace(pr *sim.Proc) { p.txCond.Wait(pr) }

// SetRecv installs the receive upcall.
func (p *NativePort) SetRecv(fn func()) { p.recvUpcall = fn }

// nativeNICCoalesce matches the bridge's interrupt throttle (same NIC).
const nativeNICCoalesce = 25 * time.Microsecond

// receive: NIC interrupt (throttled/coalesced under load) + DMA, then the
// frame is queued for the stack. Charges run on a FIFO worker so receive
// order is preserved.
func (p *NativePort) receive(pkt *vmm.WirePacket) {
	msg, ok := pkt.Payload.(*nativeMsg)
	if !ok {
		return
	}
	m := p.Host.Model
	var cost time.Duration
	now := p.Host.Eng.Now()
	if p.rxWorker.Backlog() == 0 && now.Sub(p.lastIntr) >= nativeNICCoalesce {
		cost += m.NICInterrupt
		p.lastIntr = now
	}
	p.rxWorker.Submit(cost, func() {
		p.Host.MemCopy(msg.frame.WireLen(), func() {
			// Native receive queueing is bounded by socket buffers and
			// TCP flow control in practice; the cap here is a safety
			// valve, large enough that well-behaved flows never hit it.
			if len(p.rxq) >= 1<<20 {
				p.RxDrops++
				return
			}
			p.rxq = append(p.rxq, msg.frame)
			p.RxFrames++
			if p.rxNotify {
				p.rxNotify = false
				if p.recvUpcall != nil {
					p.recvUpcall()
				}
			}
		})
	})
}

// GuestRecv pops one received frame.
func (p *NativePort) GuestRecv() (*ethernet.Frame, bool) {
	if len(p.rxq) == 0 {
		return nil, false
	}
	f := p.rxq[0]
	p.rxq[0] = nil
	p.rxq = p.rxq[1:]
	return f, true
}

// RxDone ends a drain pass, re-arming notification.
func (p *NativePort) RxDone() {
	if len(p.rxq) > 0 {
		if p.recvUpcall != nil {
			p.recvUpcall()
		}
		return
	}
	p.rxNotify = true
}
