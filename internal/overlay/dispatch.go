// The parallel receive datapath: the real-socket twin of the paper's
// Fig. 5 result that VNET/P only reaches 10G-class throughput with
// multiple packet dispatchers (Sect. 4.3), and of its dispatcher model —
// the thread that picks a packet up routes and delivers it. Each of the N
// receive workers owns one UDP socket on the node's address
// (SO_REUSEPORT) and finishes every datagram it reads on its own
// goroutine: classify, split, parse, open, reassemble or walk, route,
// deliver; only control traffic (liveness probes and replies) is handed
// on, copied, to the probe handler. The kernel's 4-tuple hash keeps a
// sender on one socket, so per-sender fragment and frame order is
// preserved and workers do not share reassembly state.

package overlay

import (
	"log/slog"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/ethernet"
	"vnetp/internal/logging"
	"vnetp/internal/seal"
	"vnetp/internal/supervise"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
)

// DefaultDispatchers is the receive worker count used when NodeConfig
// leaves it zero: min(4, GOMAXPROCS), the paper's sweet spot for a
// 10G-class receive path without oversubscribing small hosts.
func DefaultDispatchers() int { return min(4, runtime.GOMAXPROCS(0)) }

// flightSnap is the flight recorder's per-event capture length in bytes.
const flightSnap = 256

// NodeConfig tunes a node's datapath.
type NodeConfig struct {
	// Dispatchers is the number of receive workers, each reading its own
	// socket on the node's address and finishing what it reads. Zero means
	// DefaultDispatchers(); where this package cannot share a port, one.
	Dispatchers int

	// FlowCacheDisabled turns off the per-flow forwarding cache
	// (flowcache.go), restoring the per-frame route-lookup path. The
	// cache is on by default; disabling it exists for ablation
	// benchmarks (BenchmarkOverlayFlowCache) and as an operational
	// escape hatch (vnetpd -flow-cache=false).
	FlowCacheDisabled bool

	// Adaptive picks the transmit leg (vnetpd -adaptive), the node's one
	// transmit setting. Off, a link runs the synchronous leg: Send
	// encodes its frame before it returns, and the one Send on a link's
	// wire carries what the others encoded meanwhile. On, each link owns
	// a bounded TX ring (txRingDepth frames) drained by a self-clocked
	// sender goroutine, the live adaptive dispatcher: it sends what is
	// queued when it wakes, up to txBatchMax frames, and never waits for
	// more. Both legs pack small frames into shared datagrams and move a
	// batch in one syscall (sendmmsg on Linux). On the ring a frame
	// handed to Send is retained until sent and must not be modified by
	// the caller afterwards.
	Adaptive AdaptiveConfig

	// TraceSample arms the live tracer at startup: trace one in every
	// TraceSample frames entering the TX path (vnetpd -trace-sample).
	// Zero leaves tracing off until TRACE START; sampling costs one
	// atomic load per frame while off.
	TraceSample uint64
	// FlightDepth is the flight recorder's per-dispatcher ring depth in
	// datagram events (vnetpd -flight-depth). Zero disables the
	// recorder entirely.
	FlightDepth int

	// Logger receives the node's structured log records (link
	// lifecycle, trace lifecycle, traced-frame events). Nil discards.
	Logger *slog.Logger

	// Anomaly tunes the anomaly watchdog: a supervised loop sampling
	// the unified drop ledger and the stall counter, alerting (slog +
	// vnetp_anomalies_total) on threshold crossings. Zero values take
	// the defaults (5s period, 100 drops/s).
	Anomaly AnomalyConfig

	// Test seams, zero in every real configuration. portableRx makes
	// the read loop use singleReader where the platform has a batch
	// reader too; txRing overrides txRingDepth; evictInterval overrides
	// defaultEvictInterval; supervise overrides the supervise package's
	// defaults (restart backoff, stall watchdog).
	portableRx    bool
	txRing        int
	evictInterval time.Duration
	supervise     supervise.Config
}

// AdaptiveConfig selects the transmit leg (NodeConfig.Adaptive).
type AdaptiveConfig struct {
	// Enabled gives every link the TX ring and its self-clocked sender.
	Enabled bool
}

// The TX ring leg's constants (DESIGN "Batched transmit"): a link's
// ring holds txRingDepth frames and its sender takes at most txBatchMax
// of them per wakeup. benchmark/'s traffic generator sizes a flow's
// window by what a ring node can retain, so they must not grow.
const (
	txRingDepth = 1024
	txBatchMax  = 32
)

// defaultEvictInterval is how often stale partial reassemblies are
// swept: a partial untouched for two sweeps is dropped.
const defaultEvictInterval = time.Second

func (c *NodeConfig) normalize() {
	if c.Dispatchers <= 0 {
		c.Dispatchers = DefaultDispatchers()
	}
	if c.txRing <= 0 {
		c.txRing = txRingDepth
	}
	if c.evictInterval <= 0 {
		c.evictInterval = defaultEvictInterval
	}
	c.Anomaly.normalize()
	if c.Logger == nil {
		c.Logger = logging.Discard()
	}
}

// rxShard is one receive worker's state: its socket, its slice of the
// reassembly space, and its counters. The mutex guards the reassembler
// only — the worker goroutine and TCP connection readers hashed to this
// shard share it, plus the evict sweep; it is never held across routing
// or delivery.
type rxShard struct {
	idx   int
	conn  *net.UDPConn  // the worker's socket; shard 0's is the node's sending socket too
	ovfl  atomic.Uint32 // the socket's SO_RXQ_OVFL count as last charged to the ledger (receive)
	mu    sync.Mutex
	reasm *bridge.Reassembler

	// Memo of the last sealed stream's reassembly key (guarded by mu:
	// TCP readers share the shard): a fragmented sealed frame arrives as
	// a burst from one (sender, tenant), so the key is built once per
	// burst, not once per datagram.
	sealSender string
	sealTenant uint32
	sealKey    string

	// sli memoises routeFromWire's last tenant (TCP readers share it).
	sli atomic.Pointer[tenantSLI]

	// flight is this worker's flight recorder: the last
	// NodeConfig.FlightDepth datagram events, nil when disabled.
	flight *trace.FlightRing

	// Datagrams counts data datagrams processed, Frames completed inner
	// frames routed. Both are children of the node's per-worker registry
	// families (vnetp_dispatcher_*_total{worker="<idx>"}); the third,
	// what the kernel shed at the worker's socket, is the drop funnel's.
	Datagrams, Frames *telemetry.Counter
}

// shardFor maps a TCP connection's sender key onto a shard (FNV-1a): a
// connection's reader keeps its reassembly state on one shard for its
// lifetime. (UDP senders are spread by the kernel, over the sockets.)
func (n *Node) shardFor(sender string) *rxShard {
	h := uint32(2166136261)
	for i := 0; i < len(sender); i++ {
		h = (h ^ uint32(sender[i])) * 16777619
	}
	return n.shards[h%uint32(len(n.shards))]
}

// rxDatagram finishes one data datagram on the calling goroutine: the
// header is parsed onto this stack, then processData. pkt is borrowed for
// the call.
func (n *Node) rxDatagram(s *rxShard, sender string, pkt []byte, at time.Time) {
	var h bridge.EncapHeader
	payload, err := h.Unmarshal(pkt)
	if err != nil {
		n.drop(dropBadPacket, bridge.EncapFrames(pkt), telemetry.DropDetail{
			Scope: sender, Stage: "rx_parse",
		})
		return
	}
	n.processData(s, sender, &h, payload, pkt, at)
}

// processData runs the data path for one parsed datagram: flight
// capture, AEAD open for sealed datagrams, then either the record walk
// of an aggregate or shard-local reassembly, and routing of every
// completed frame in its tenant's namespace. Every receive-side drop of
// a whole datagram charges the frames the datagram stood for (an
// aggregate's count, else one), so the frames an aggregate carried are
// all accounted for when it is shed. Shared by the UDP receive workers
// and the TCP connection readers, each on its own goroutine. raw is the
// full encap datagram as it arrived on the wire, captured by the shard's
// flight recorder when one is armed (before decryption: the recorder
// sees what the wire saw).
//
// raw and payload (which aliases it) are borrowed for the call: they sit
// in the caller's read buffer, where a sealed payload is opened in place
// and which the next read overwrites. What outlives the call is copied
// once: a fragment into its frame's reassembly buffer (AddParsed), a
// whole frame or an aggregate's train into an exact-size buffer the
// delivered frames alias — a held frame pins the datagram it arrived in,
// or its own reassembled length, and nothing more.
func (n *Node) processData(s *rxShard, sender string, h *bridge.EncapHeader, payload, raw []byte, at time.Time) {
	s.Datagrams.Add(1)
	var tid uint64
	if h.HasTrace {
		tid = h.Trace.ID
		n.tracer.RecordRemote(tid, h.Trace.Origin, h.Trace.Flags, trace.StageRxDispatch)
	}
	s.flight.Record(sender, tid, raw)
	var tenant uint32
	if h.HasSeal {
		// The fragment's wire header (everything before the ciphertext) is
		// the AEAD's associated data — a tampered flag, ID, or offset fails
		// authentication even though only the payload is encrypted. Every
		// failure is counted by typed reason and the datagram vanishes:
		// nothing unauthenticated reaches reassembly.
		aad := raw[:len(raw)-len(payload)]
		pt, err := n.keyring.Open(h.Seal.Tenant, h.Seal.Nonce, aad, payload)
		if err != nil {
			rr := seal.RejectReasonOf(err)
			frames := h.Frames()
			// The wire-claimed tenant ID is unauthenticated; charging the
			// claimed tenant is deliberate — a forged datagram charges
			// the tenant it impersonates, which is the tenant whose
			// traffic an operator should inspect. The typed reason rides as
			// the stage: the funnel's vnetp_seal_reject_total{reason} label.
			n.drop(dropSealReject, frames, telemetry.DropDetail{
				Tenant: h.Seal.Tenant, Scope: sender, Stage: rr,
			})
			return
		}
		n.metrics.sealOpened.Add(1)
		tenant = h.Seal.Tenant
		payload = pt
	}
	if h.Aggregate || (h.FragOff == 0 && !h.MoreFrags) {
		own := make([]byte, len(payload))
		copy(own, payload)
		payload = own
	}
	if h.Aggregate {
		// Whole frames, no reassembly. The walker vets the entire train
		// before the first record is delivered: all of a datagram's frames
		// arrive, or none and the datagram is a bad packet.
		err := bridge.WalkAggregate(payload, h.FragOff, func(record []byte) {
			frame, _ := ethernet.Unmarshal(record) // cannot fail: the walker saw a full Ethernet header
			n.routeFromWire(s, frame, tenant, at)
		})
		if err != nil {
			n.drop(dropBadPacket, h.Frames(), telemetry.DropDetail{
				Tenant: tenant, Scope: sender, Stage: "aggregate",
			})
		}
		return
	}
	s.mu.Lock()
	if h.HasSeal {
		// Scope the reassembly stream by tenant: a plaintext and a sealed
		// stream from one remote address must never interleave fragments.
		if s.sealKey == "" || s.sealSender != sender || s.sealTenant != tenant {
			s.sealSender, s.sealTenant = sender, tenant
			s.sealKey = sender + "|t" + strconv.FormatUint(uint64(tenant), 10)
		}
		sender = s.sealKey
	}
	frame, err := s.reasm.AddParsed(sender, h, payload)
	s.mu.Unlock()
	if err != nil {
		n.drop(dropBadPacket, 1, telemetry.DropDetail{
			Tenant: tenant, Scope: sender, Stage: "reassembly",
		})
		return
	}
	if frame == nil {
		return // more fragments pending
	}
	if h.HasTrace {
		// The completing fragment carries the same trace context every
		// fragment did; the reassembled frame inherits it so routing and
		// delivery keep recording under the wire-carried ID.
		frame.Tag = tid
		n.tracer.RecordRemote(tid, h.Trace.Origin, h.Trace.Flags, trace.StageReassembly)
	}
	n.routeFromWire(s, frame, tenant, at)
}

// routeFromWire counts one frame received whole from a link and routes
// it in the tenant's namespace. at is the socket-read time of the
// datagram that completed it.
func (n *Node) routeFromWire(s *rxShard, frame *ethernet.Frame, tenant uint32, at time.Time) {
	s.Frames.Add(1)
	n.EncapRecv.Add(1)
	n.routeTenantAt(frame, nil, time.Time{}, tenant)
	// The Fig. 7 RX stage budget on the real path: the completing
	// datagram's socket read to the frame handed off past routing. The
	// same sample lands in the owning tenant's latency SLI.
	if !at.IsZero() {
		el := time.Since(at).Seconds()
		n.metrics.rxLatency.Observe(el)
		sli := s.sli.Load()
		if sli == nil || sli.tenant != tenant {
			sli = n.slis.get(tenant)
			s.sli.Store(sli)
		}
		sli.rxLatency.Observe(el)
	}
}

// Dispatchers reports how many receive workers the node runs.
func (n *Node) Dispatchers() int { return len(n.shards) }
