// The parallel receive datapath: the real-socket twin of the paper's
// Fig. 5 result that VNET/P only reaches 10G-class throughput with
// multiple packet dispatchers (Sect. 4.3), and of its dispatcher model —
// the thread that picks a packet up routes and delivers it. Each of the N
// receive workers owns one UDP socket on the node's address
// (SO_REUSEPORT) and finishes every datagram it reads on its own
// goroutine: split, parse, then answer a probe, match a probe reply, or
// open, reassemble or walk, route and deliver data. A TCP connection's
// reader finishes its datagrams the same way, through the same handler
// (datagram). The kernel's 4-tuple hash keeps a sender on one socket, so
// per-sender fragment and frame order is preserved and workers do not
// share reassembly state.

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

// flightSnap is the flight recorder's per-event capture length in bytes.
const flightSnap = 256

// NodeConfig tunes a node's datapath.
type NodeConfig struct {
	// FlowCacheDisabled turns off the per-flow forwarding cache
	// (flowcache.go), restoring the per-frame route-lookup path. The
	// cache is on by default; disabling it exists for ablation
	// benchmarks (BenchmarkOverlayFlowCache) and as an operational
	// escape hatch (vnetpd -flow-cache=false).
	FlowCacheDisabled bool

	// Adaptive is read by nothing: every link has a sender goroutine,
	// the live adaptive dispatcher (txbatch.go), whatever it holds.
	//
	// Deprecated: the node has no transmit setting. The field remains only
	// so existing configurations compile.
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

	// Test seams, zero in every real configuration. dispatchers overrides
	// the receive worker count, min(4, GOMAXPROCS) — the paper's sweet
	// spot for a 10G-class receive path without oversubscribing small
	// hosts; where this package cannot share a port there is one worker
	// whatever it asks. portableRx makes the read loop use singleReader
	// where the platform has a batch reader too; txRing overrides
	// txRingDepth; evictInterval overrides defaultEvictInterval; supervise
	// overrides the supervise package's defaults (restart backoff, stall
	// watchdog).
	dispatchers   int
	portableRx    bool
	txRing        int
	evictInterval time.Duration
	supervise     supervise.Config
}

// AdaptiveConfig is NodeConfig.Adaptive's type.
//
// Deprecated: nothing reads it.
type AdaptiveConfig struct {
	Enabled bool
}

// The transmit constants (DESIGN "Batched transmit"): a Send drops its
// frame once txRingDepth frames are pending on the link, and a record
// train closes at txBatchMax frames, which bounds what one lost datagram
// costs.
const (
	txRingDepth = 1024
	txBatchMax  = 32
)

// defaultEvictInterval is how often stale partial reassemblies are
// swept: a partial untouched for two sweeps is dropped.
const defaultEvictInterval = time.Second

func (c *NodeConfig) normalize() {
	if c.dispatchers <= 0 {
		c.dispatchers = min(4, runtime.GOMAXPROCS(0))
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

	// sli memoises sampleRx's last tenant (TCP readers share it).
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

// datagram finishes one encapsulation datagram on the goroutine that
// read it, whichever transport carried it: the header is parsed once,
// onto this stack, then a probe is answered on the transport it arrived
// by (over TCP on the connection c, else by UDP to from, leaving by
// n.conn), a probe reply is matched to its link, and data runs
// processData. A header that does not parse is charged to bad_packet at
// stage "parse". pkt is borrowed for the call.
func (n *Node) datagram(s *rxShard, sender string, from *net.UDPAddr, c *tcpConn, pkt []byte, at time.Duration) {
	var h bridge.EncapHeader
	payload, err := h.Unmarshal(pkt)
	switch {
	case err != nil:
		n.drop(dropBadPacket, bridge.EncapFrames(pkt), telemetry.DropDetail{
			Scope: sender, Stage: "parse",
		})
	case h.Probe:
		// Best effort: a failed reply surfaces as a lost probe at its sender.
		if reply := marshalProbeReply(payload); c != nil {
			c.sendDatagrams([][]byte{reply})
		} else {
			n.conn.WriteToUDP(reply, from)
		}
	case h.ProbeReply:
		n.handleProbeReply(sender, payload)
	default:
		n.processData(s, sender, &h, payload, pkt, at)
	}
}

// processData runs the data path for one parsed datagram: flight
// capture, AEAD open for sealed datagrams, shard-local reassembly of a
// frame's fragments or a train's slices, then the record walk of a
// completed train or the parse of a completed frame, and routing of every
// frame in its tenant's namespace. Every receive-side drop charges the
// frames the datagram's frame or train stood for (a train's count, else
// one) — once per train, however many of its slices are shed — so the
// frames a train carried are all accounted for when it is lost. Called by
// datagram, for the UDP receive workers and the TCP connection readers
// alike. raw is the full encap datagram as it arrived on the wire,
// captured by the shard's flight recorder when one is armed (before
// decryption: the recorder sees what the wire saw).
//
// raw and payload (which aliases it) are borrowed for the call: they sit
// in the caller's read buffer, where a sealed payload is opened in place
// and which the next read overwrites. What outlives the call is copied
// once: a slice into its frame's or train's reassembly buffer (AddSlice),
// a whole frame or train into an exact-size buffer — and the delivered
// frames alias that buffer, their headers decoded into one array, so a
// held frame pins its own frame, or the one train it arrived in and that
// train's header array, and nothing more.
func (n *Node) processData(s *rxShard, sender string, h *bridge.EncapHeader, payload, raw []byte, at time.Duration) {
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
		// nothing unauthenticated reaches reassembly. The frames it stood for
		// are charged by the first refused slice of its frame or train, and
		// the rest of that frame or train then ages out uncharged.
		aad := raw[:len(raw)-len(payload)]
		pt, err := n.keyring.Open(h.Seal.Tenant, h.Seal.Nonce, aad, payload)
		if err != nil {
			frames := h.Frames()
			if !h.Whole() { // a whole datagram has no partial: no key, no lock
				s.mu.Lock()
				if !s.reasm.Reject(s.reasmKey(sender, h.Seal.Tenant), h) {
					frames = 0
				}
				s.mu.Unlock()
			}
			// The wire-claimed tenant ID is unauthenticated; charging the
			// claimed tenant is deliberate — a forged datagram charges
			// the tenant it impersonates, which is the tenant whose
			// traffic an operator should inspect. The typed reason rides as
			// the stage: the funnel's vnetp_seal_reject_total{reason} label.
			n.drop(dropSealReject, frames, telemetry.DropDetail{
				Tenant: h.Seal.Tenant, Scope: sender, Stage: seal.RejectReasonOf(err),
			})
			return
		}
		n.metrics.sealOpened.Add(1)
		tenant = h.Seal.Tenant
		payload = pt
	}
	if h.Whole() {
		own := make([]byte, len(payload))
		copy(own, payload)
		payload = own
	} else {
		s.mu.Lock()
		var err error
		payload, err = s.reasm.AddSlice(s.reasmKey(sender, tenant), h, payload)
		s.mu.Unlock()
		if err != nil {
			n.drop(dropBadPacket, h.Frames(), telemetry.DropDetail{
				Tenant: tenant, Scope: sender, Stage: "reassembly",
			})
			return
		}
		if payload == nil {
			return // more slices pending
		}
	}
	var frames []ethernet.Frame // one header array for all of a train's frames
	if h.Aggregate {
		// A completed train. The walker vets all of it before the first
		// record is decoded — so the array is sized by a count the train has
		// been checked against: all of a train's frames arrive, or none and
		// the train is a bad packet.
		err := bridge.WalkAggregate(payload, uint32(h.Frames()), func(record []byte) {
			if frames == nil {
				frames = make([]ethernet.Frame, 0, h.Frames())
			}
			frames = frames[:len(frames)+1]
			ethernet.Decode(&frames[len(frames)-1], record) // cannot fail: the walker saw a full Ethernet header
		})
		if err != nil {
			n.drop(dropBadPacket, h.Frames(), telemetry.DropDetail{
				Tenant: tenant, Scope: sender, Stage: "aggregate",
			})
			return
		}
	} else {
		frames = make([]ethernet.Frame, 1)
		if err := ethernet.Decode(&frames[0], payload); err != nil {
			n.drop(dropBadPacket, 1, telemetry.DropDetail{
				Tenant: tenant, Scope: sender, Stage: "reassembly",
			})
			return
		}
		if h.HasTrace {
			// The completing fragment carries the same trace context every
			// fragment did; the reassembled frame inherits it so routing and
			// delivery keep recording under the wire-carried ID.
			frames[0].Tag = tid
			n.tracer.RecordRemote(tid, h.Trace.Origin, h.Trace.Flags, trace.StageReassembly)
		}
	}
	// Counted before the first is routed, so a receiver never holds a frame
	// the counters have not seen.
	s.Frames.Add(uint64(len(frames)))
	n.EncapRecv.Add(uint64(len(frames)))
	for i := range frames {
		n.routeTenantAt(&frames[i], nil, false, tenant)
	}
	n.sampleRx(s, tenant, uint64(len(frames)), at)
}

// reasmKey names a sender's reassembly stream in the shard's reassembler
// (caller holds s.mu). A sealed stream is scoped by tenant: a plaintext
// and a sealed stream from one remote address must never interleave
// fragments.
func (s *rxShard) reasmKey(sender string, tenant uint32) string {
	if tenant == 0 {
		return sender
	}
	if s.sealKey == "" || s.sealSender != sender || s.sealTenant != tenant {
		s.sealSender, s.sealTenant = sender, tenant
		s.sealKey = sender + "|t" + strconv.FormatUint(uint64(tenant), 10)
	}
	return s.sealKey
}

// sampleRx takes the Fig. 7 RX stage samples of frames received whole
// and routed in tenant's namespace — a completed train's, or a lone
// frame's, whatever routing did with them (delivered, forwarded, or
// dropped): the completing datagram's socket read (at, on Node.mono) to
// the last of them handed off past routing, one clock read for all, one
// sample per frame in the node's histogram and the same in the tenant's
// latency SLI.
func (n *Node) sampleRx(s *rxShard, tenant uint32, frames uint64, at time.Duration) {
	el := (n.mono() - at).Seconds()
	n.metrics.rxLatency.ObserveN(el, frames)
	sli := s.sli.Load()
	if sli == nil || sli.tenant != tenant {
		sli = n.slis.get(tenant)
		s.sli.Store(sli)
	}
	sli.rxLatency.ObserveN(el, frames)
}

// Dispatchers reports how many receive workers the node runs.
func (n *Node) Dispatchers() int { return len(n.shards) }
