package vnetpsim

import (
	"fmt"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/ethernet"
	"vnetp/internal/ipv4"
	"vnetp/internal/sim"
	"vnetp/internal/vmm"
)

// OuterOverhead is the wire cost of one encapsulated datagram beyond the
// inner-frame bytes it carries: outer Ethernet + IP + UDP + encapsulation
// header.
const OuterOverhead = ethernet.HeaderLen + ipv4.Overhead + bridge.EncapHeaderLen

// Proto selects a link's encapsulation transport. The paper's evaluation
// uses UDP; TCP is supported for lossy/wide-area paths.
type Proto int

const (
	UDP Proto = iota
	TCP
)

func (p Proto) String() string {
	if p == TCP {
		return "tcp"
	}
	return "udp"
}

// LinkConfig describes one overlay link: a named UDP/TCP path to a remote
// VNET node.
type LinkConfig struct {
	ID         string
	RemoteHost string // vmm host name of the peer
	Proto      Proto
}

// EncapMsg is a simulated encapsulated datagram (one fragment) in
// flight. It is the wire payload both VNET/P bridges and VNET/U daemons
// exchange — the "compatible encapsulation" that makes the two systems
// interoperable (paper Sect. 4.2).
type EncapMsg struct {
	Frame  *ethernet.Frame // carried on every fragment; delivered once
	ID     uint64
	Idx, N int
}

// NewEncapMsg builds a single-datagram encapsulation (what a VNET/U
// daemon emits: its guests use standard MTUs, so it never fragments).
func NewEncapMsg(f *ethernet.Frame, id uint64) *EncapMsg {
	return &EncapMsg{Frame: f, ID: id, N: 1}
}

// directMsg is a raw (unencapsulated) frame in flight on the local
// segment.
type directMsg struct {
	frame *ethernet.Frame
}

// Bridge is the simulated VNET/P bridge: a host-kernel thread that
// encapsulates frames the core routed to links, fragments datagrams that
// exceed the physical MTU, and reassembles + delivers inbound traffic to
// the core.
type Bridge struct {
	Host *vmm.Host
	// Deliver is invoked (after decapsulation costs) for each inbound
	// frame; wire it to the core's DeliverFromWire.
	Deliver func(*ethernet.Frame)
	// DirectPeer is the host that receives raw direct-send frames (the
	// overlay's exit point on the local segment).
	DirectPeer string
	// Extra is an additional per-packet cost on both send and receive,
	// used by host embeddings whose bridge is not an in-kernel module —
	// the Kitten port routes every packet through a privileged service VM
	// (paper Sect. 6.3), paying tap crossings and a world switch.
	Extra time.Duration
	// CutThrough overlaps the DMA staging copies with forwarding (the
	// VNET/P+ cut-through technique): copies still consume bus budget but
	// no longer serialize the packet's progress.
	CutThrough bool

	worker   *sim.Worker
	links    map[string]LinkConfig
	nextID   uint64
	partial  map[string]int // fragments still missing, keyed by src/id
	lastIntr sim.Time       // last time a NIC interrupt was charged

	// Stats
	EncapSent, DirectSent   uint64
	Received, FragmentsSent uint64
	Reassembled             uint64
	NoLink                  uint64
}

// NewBridge creates a bridge on host whose thread uses the given worker
// configuration. If worker is non-nil it is used instead (lets
// experiments co-locate the bridge with a dispatcher on one core).
func NewBridge(host *vmm.Host, wc sim.WorkerConfig, worker *sim.Worker) *Bridge {
	if worker == nil {
		worker = sim.NewWorker(host.Eng, wc)
	}
	b := &Bridge{
		Host:    host,
		worker:  worker,
		links:   make(map[string]LinkConfig),
		partial: make(map[string]int),
	}
	host.SetReceiver(b.receive)
	return b
}

// Worker exposes the bridge thread for CPU accounting.
func (b *Bridge) Worker() *sim.Worker { return b.worker }

// AddLink installs an overlay link.
func (b *Bridge) AddLink(cfg LinkConfig) { b.links[cfg.ID] = cfg }

// RemoveLink tears down a link.
func (b *Bridge) RemoveLink(id string) { delete(b.links, id) }

// Links reports the configured link IDs.
func (b *Bridge) Links() []string {
	out := make([]string, 0, len(b.links))
	for id := range b.links {
		out = append(out, id)
	}
	return out
}

// maxInnerPerDatagram is the largest inner-frame slice one datagram can
// carry on this bridge's physical device.
func (b *Bridge) maxInnerPerDatagram() int {
	// The outer IP packet must fit the physical MTU; subtract IP/UDP and
	// encapsulation headers (outer Ethernet is additional wire framing,
	// not counted against the IP MTU).
	return b.Host.Dev.MTU - ipv4.Overhead - bridge.EncapHeaderLen
}

// SendOverlay encapsulates f and transmits it over the named link,
// fragmenting as needed (paper Sect. 4.4 MTU discussion). Costs: one
// encapsulation + bridge bookkeeping, plus host stack cost per datagram.
func (b *Bridge) SendOverlay(linkID string, f *ethernet.Frame) {
	link, ok := b.links[linkID]
	if !ok {
		b.NoLink++
		return
	}
	m := b.Host.Model
	inner := f.WireLen()
	nfrags := bridge.FragmentCount(inner, b.Host.Dev.MTU-ipv4.Overhead)
	cost := m.EncapPerPacket + m.BridgePerPacket + b.Extra + b.Host.Noise() +
		time.Duration(nfrags)*(m.HostStackPerPacket+b.Host.Dev.ExtraPerPacket)
	b.worker.Submit(cost, func() {
		b.Host.Tracer.Record(f.Tag, "bridge: encapsulated")
		b.EncapSent++
		id := b.nextID
		b.nextID++
		chunk := b.maxInnerPerDatagram()
		for i := 0; i < nfrags; i++ {
			size := chunk
			if i == nfrags-1 {
				size = inner - chunk*(nfrags-1)
			}
			wire := size + OuterOverhead
			msg := &EncapMsg{Frame: f, ID: id, Idx: i, N: nfrags}
			b.FragmentsSent++
			// DMA crossing to the NIC, then the wire.
			if b.CutThrough {
				b.Host.MemCopy(wire, nil)
				b.Host.Send(link.RemoteHost, wire, msg)
			} else {
				b.Host.MemCopy(wire, func() {
					b.Host.Send(link.RemoteHost, wire, msg)
				})
			}
		}
	})
}

// SendDirect transmits f raw on the local segment (direct send mode).
func (b *Bridge) SendDirect(f *ethernet.Frame) {
	if b.DirectPeer == "" {
		b.NoLink++
		return
	}
	m := b.Host.Model
	cost := m.BridgePerPacket + m.HostStackPerPacket + b.Host.Dev.ExtraPerPacket
	b.worker.Submit(cost, func() {
		b.DirectSent++
		wire := f.WireLen() + ethernet.HeaderLen // raw frame incl. framing
		b.Host.MemCopy(wire, func() {
			b.Host.Send(b.DirectPeer, wire, &directMsg{frame: f})
		})
	})
}

// nicCoalesce is the NIC's interrupt throttle: at most one receive
// interrupt per this interval (typical 10G adaptive-ITR behaviour). The
// first packet after an idle period still pays full interrupt latency.
const nicCoalesce = 25 * time.Microsecond

// receive handles a wire packet arriving at the host NIC: NIC interrupt
// (when the bridge thread is idle and the throttle allows — interrupts
// coalesce under load), host stack, decapsulation, reassembly, then
// delivery to the core.
func (b *Bridge) receive(pkt *vmm.WirePacket) {
	m := b.Host.Model
	cost := m.BridgePerPacket + m.HostStackPerPacket + b.Host.Dev.ExtraPerPacket + b.Extra + b.Host.Noise()
	if b.worker.Backlog() == 0 && b.Host.Eng.Now().Sub(b.lastIntr) >= nicCoalesce {
		cost += m.NICInterrupt
		b.lastIntr = b.Host.Eng.Now()
	}
	switch msg := pkt.Payload.(type) {
	case *EncapMsg:
		cost += m.EncapPerPacket
		src := pkt.Src
		b.worker.Submit(cost, func() {
			b.Received++
			k := fmt.Sprintf("%s/%d", src, msg.ID)
			remaining, started := b.partial[k]
			if !started {
				remaining = msg.N
			}
			remaining--
			if remaining > 0 {
				b.partial[k] = remaining
				return
			}
			delete(b.partial, k)
			b.Reassembled++
			b.Host.Tracer.Record(msg.Frame.Tag, "bridge: decapsulated")
			// DMA from NIC buffers toward the VMM.
			if b.CutThrough {
				b.Host.MemCopy(msg.Frame.WireLen(), nil)
				if b.Deliver != nil {
					b.Deliver(msg.Frame)
				}
				return
			}
			b.Host.MemCopy(msg.Frame.WireLen(), func() {
				if b.Deliver != nil {
					b.Deliver(msg.Frame)
				}
			})
		})
	case *directMsg:
		b.worker.Submit(cost, func() {
			b.Received++
			b.Host.MemCopy(msg.frame.WireLen(), func() {
				if b.Deliver != nil {
					b.Deliver(msg.frame)
				}
			})
		})
	}
}
