// The parallel receive datapath: the real-socket twin of the paper's
// Fig. 5 result that VNET/P only reaches 10G-class throughput with
// multiple packet dispatchers (Sect. 4.3). The UDP read loop is a thin
// producer that classifies datagrams (control traffic — liveness probes
// and replies — is split onto its own handler so heartbeats never queue
// behind bulk data) and hands raw data datagrams to N dispatcher workers.
// Reassembly state is sharded by sender key: every datagram from one
// sender lands on the same worker, so per-sender fragment order is
// preserved and workers never contend on a shared reassembler lock.

package overlay

import (
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/ethernet"
	"vnetp/internal/logging"
	"vnetp/internal/seal"
	"vnetp/internal/supervise"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
)

// defaultQueueDepth is each dispatcher's inbound ring size. Like a NIC RX
// ring, the producer drops (and counts) when a worker's ring is full
// rather than blocking the socket read.
const defaultQueueDepth = 512

// DefaultDispatchers is the dispatcher pool size used when NodeConfig
// leaves it zero: min(4, GOMAXPROCS), the paper's sweet spot for a
// 10G-class receive path without oversubscribing small hosts.
func DefaultDispatchers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// defaultTxRing is each link's TX ring depth (NodeConfig.TxRing zero
// value).
const defaultTxRing = 1024

// flightSnap is the flight recorder's per-event capture length in bytes.
const flightSnap = 256

// NodeConfig tunes a node's datapath.
type NodeConfig struct {
	// Dispatchers is the number of receive dispatcher workers. Zero means
	// DefaultDispatchers().
	Dispatchers int
	// QueueDepth is each dispatcher's inbound datagram ring. Zero means
	// the default (512).
	QueueDepth int

	// TxBatch is the most frames a link's sender goroutine takes per
	// wakeup (the send-side analogue of the paper's VMM-driven batch
	// dispatch, Sect. 4.3). Zero or one keeps the synchronous transmit
	// path: Send encapsulates and writes inline, preserving guest-driven
	// latency semantics. Above one, each link owns a bounded TX ring and
	// a self-clocked sender goroutine: it sends what is queued when it
	// wakes and never waits for more, packing small frames into shared
	// datagrams and moving the batch in one syscall (sendmmsg on Linux).
	// In batched mode a frame handed to Send is retained until sent and
	// must not be modified by the caller afterwards.
	TxBatch int
	// TxRing is each link's TX ring depth in frames (batched mode only).
	// Like a NIC TX ring, enqueue drops (and counts) when full rather
	// than blocking the router. Zero means the default (1024).
	TxRing int

	// FlowCacheDisabled turns off the per-flow forwarding cache
	// (flowcache.go), restoring the per-frame route-lookup path. The
	// cache is on by default; disabling it exists for ablation
	// benchmarks (BenchmarkOverlayFlowCache) and as an operational
	// escape hatch (vnetpd -flow-cache=false).
	FlowCacheDisabled bool

	// Adaptive enables the per-link adaptive dispatch controller: an
	// ω-tick rate sampler with α_l/α_u hysteresis that retunes each
	// link's effective batch size between latency mode (batch=1, idle
	// links) and throughput mode (batch=TxBatch, loaded links) — the
	// paper's Table 1 mechanism on the live datapath (vnetpd -adaptive).
	// Enabling it implies TxBatch > 1.
	Adaptive AdaptiveConfig

	// EvictInterval is how often stale partial reassemblies are swept
	// (generation-based eviction; a partial untouched for two sweeps is
	// dropped). Zero means the default (1s). Tests shorten it to fake
	// the clock.
	EvictInterval time.Duration

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

	// Supervise tunes the node's runtime supervisor (restart backoff,
	// stall watchdog). Zero values take the supervise package defaults;
	// tests shorten StallTimeout to exercise the watchdog quickly.
	Supervise supervise.Config

	// Anomaly tunes the anomaly watchdog: a supervised loop sampling
	// the unified drop ledger and the stall counter, alerting (slog +
	// vnetp_anomalies_total) on threshold crossings. Zero values take
	// the defaults (5s period, 100 drops/s).
	Anomaly AnomalyConfig

	// portableRx makes the read loop use singleReader where the platform
	// has a batch reader too: in-package tests compare the two.
	portableRx bool
}

func (c *NodeConfig) normalize() {
	if c.Dispatchers <= 0 {
		c.Dispatchers = DefaultDispatchers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.TxBatch < 1 {
		c.TxBatch = 1
	}
	c.Adaptive.normalize()
	if c.Adaptive.Enabled && c.TxBatch < 2 {
		// Adaptive dispatch switches between batch=1 and batch=TxBatch;
		// without a ring there is nothing to adapt.
		c.TxBatch = defaultAdaptiveBatch
	}
	if c.TxRing <= 0 {
		c.TxRing = defaultTxRing
	}
	if c.EvictInterval <= 0 {
		c.EvictInterval = time.Second
	}
	c.Anomaly.normalize()
	if c.Logger == nil {
		c.Logger = logging.Discard()
	}
}

// inDatagram is one ring entry handed from the read loop to a dispatcher
// worker: a raw encapsulation datagram, or (seg > 0, as in rxPacket) a
// train of them in one buffer — a fragmented frame crosses the ring
// once. at is the socket-read timestamp, carried so the RX latency
// histogram measures datagram-in → frame delivery.
type inDatagram struct {
	sender string
	pkt    []byte
	seg    int
	at     time.Time
}

// rxShard is one dispatcher worker's state: its inbound ring, its slice
// of the reassembly space, and its counters. The mutex guards the
// reassembler only — the worker goroutine and TCP connection readers
// hashed to this shard share it, plus the evict sweep; it is never held
// across routing or delivery.
type rxShard struct {
	idx   int
	in    chan inDatagram
	mu    sync.Mutex
	reasm *bridge.Reassembler

	// Memo of the last sealed stream's reassembly key (guarded by mu:
	// TCP readers share the shard): a fragmented sealed frame arrives as
	// a burst from one (sender, tenant), so the key is built once per
	// burst, not once per datagram.
	sealSender string
	sealTenant uint32
	sealKey    string

	// flight is this dispatcher's flight recorder: the last
	// NodeConfig.FlightDepth datagram events, nil when disabled.
	flight *trace.FlightRing

	// Datagrams counts data datagrams processed, Frames completed inner
	// frames routed. Both are children of the node's per-worker registry
	// families (vnetp_dispatcher_*_total{worker="<idx>"}); the third,
	// producer-side ring-full losses, is the drop funnel's.
	Datagrams, Frames *telemetry.Counter
}

// shardFor maps a sender key onto its dispatcher shard (FNV-1a). All
// traffic from one sender hashes to one worker, preserving per-sender
// fragment and frame order.
func (n *Node) shardFor(sender string) *rxShard {
	h := uint32(2166136261)
	for i := 0; i < len(sender); i++ {
		h = (h ^ uint32(sender[i])) * 16777619
	}
	return n.shards[h%uint32(len(n.shards))]
}

// dispatchLoop is one worker: it drains its ring, reassembles, and
// routes. It runs under the node's supervisor: a panic while processing
// one ring entry drops it (the rest of its train included), is counted,
// and the worker restarts over the same shard (ring and reassembly state
// survive); a stall inside one entry past the watchdog timeout gets the
// instance superseded. inst.Quit closes on supersession and node teardown.
func (n *Node) dispatchLoop(inst *supervise.Instance, s *rxShard) {
	for {
		select {
		case <-n.quit:
			return
		case <-inst.Quit():
			return
		case d := <-s.in:
			inst.Working()
			// The split loop: from here on a train's datagrams are parsed,
			// opened and reassembled one by one, as if each had crossed the
			// ring alone.
			for pkt, rest := nextSegment(d.pkt, d.seg); ; pkt, rest = nextSegment(rest, d.seg) {
				if h, payload, err := bridge.ParseEncap(pkt); err != nil {
					n.drop(dropBadPacket, bridge.EncapFrames(pkt), telemetry.DropDetail{
						Scope: d.sender, Stage: "rx_parse",
					})
				} else {
					n.processData(s, d.sender, h, payload, pkt, d.at)
				}
				if len(rest) == 0 {
					break
				}
			}
			inst.Idle()
		}
	}
}

// processData runs the data path for one parsed datagram: flight
// capture, AEAD open for sealed datagrams, then either the record walk
// of an aggregate or shard-local reassembly, and routing of every
// completed frame in its tenant's namespace. Every receive-side drop of
// a whole datagram charges the frames the datagram stood for (an
// aggregate's count, else one), so the frames an aggregate carried are
// all accounted for when it is shed. Shared by the UDP
// dispatcher workers and the TCP connection readers (which parse on
// their own goroutines and call in directly). raw is the full
// encap datagram as it arrived on the wire, captured by the shard's
// flight recorder when one is armed (before decryption: the recorder
// sees what the wire saw).
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
		n.slis.get(tenant).rxLatency.Observe(el)
	}
}

// enqueue offers a datagram, or a train of them seg bytes apart, to its
// sender's dispatcher without blocking the socket read; at a full ring
// it is dropped whole and every frame it stood for counted, like a NIC
// RX ring under overrun.
func (n *Node) enqueue(sender string, pkt []byte, seg int, at time.Time) {
	s := n.shardFor(sender)
	select {
	case s.in <- inDatagram{sender: sender, pkt: pkt, seg: seg, at: at}:
	default:
		var frames uint64
		for d, rest := nextSegment(pkt, seg); ; d, rest = nextSegment(rest, seg) {
			if frames += bridge.EncapFrames(d); len(rest) == 0 {
				break
			}
		}
		n.drop(dropDispatcherRing, frames, telemetry.DropDetail{
			Scope: fmt.Sprint(s.idx), Stage: "rx_ring",
		})
	}
}

// inject is the blocking variant of enqueue, used by benchmarks and tests
// that feed the dispatch stage directly (loopback receive path without
// the socket).
func (n *Node) inject(sender string, pkt []byte) {
	s := n.shardFor(sender)
	select {
	case s.in <- inDatagram{sender: sender, pkt: pkt, at: time.Now()}:
	case <-n.quit:
	}
}

// Dispatchers reports the size of the node's receive dispatcher pool.
func (n *Node) Dispatchers() int { return len(n.shards) }
