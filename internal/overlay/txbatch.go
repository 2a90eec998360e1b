// The batched transmit path: the send-side twin of the paper's
// VMM-driven dispatch result (Sect. 4.3, Table 1). With
// NodeConfig.TxBatch > 1, every link owns a bounded TX ring drained by a
// self-clocked sender goroutine: it blocks for one frame, takes whatever
// else is already queued, and transmits — it never waits for a batch to
// fill, so batch size follows load and an idle link pays no delay. What a
// batch amortizes is the per-datagram cost, the part of a small-frame
// stream one syscall per batch (sendmmsg) does not divide: the frames of
// a batch that fit share aggregate datagrams (bridge/aggregate.go).

package overlay

import (
	"net"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/supervise"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
	"vnetp/internal/virtio"
)

// txFrame is one outbound frame queued on a link's TX ring. at is the
// frame's local-arrival timestamp (zero for forwarded frames), carried
// across the ring so the TX latency histogram still measures frame-in →
// wire-out.
type txFrame struct {
	f  *ethernet.Frame
	at time.Time
}

// enqueueTx offers a frame to a link's TX ring without blocking the
// router; ring-full frames are dropped and counted, like a NIC TX ring
// under overrun. Transport errors surface in the link's send_errors
// counter (txLoop), not here, and the TX latency sample is taken after
// the batch actually hits the wire. The tx_enqueue hop is recorded
// before the handoff so it cannot race the sender's encap hop.
func (n *Node) enqueueTx(lk *link, f *ethernet.Frame, at time.Time) {
	if f.Tag != 0 {
		n.tracer.Record(f.Tag, trace.StageTxEnqueue)
	}
	select {
	case lk.txq <- txFrame{f: f, at: at}:
		lk.txFrames.Inc() // the adaptive controller's rate sensor
	default:
		lk.txDrops.Add(1)
		n.drop(dropTxRing, 1, telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "tx_ring",
			Flow: core.FlowKey{Tenant: lk.tenant, Src: f.Src, Dst: f.Dst}.String(),
		})
	}
}

// txScratch is a txLoop's reusable per-batch state: the aggregate
// encoder, the packets of frames that travel alone (awaiting Release),
// and the datagram list handed to the transport, in ring order. Reusing
// it keeps the steady-state batch allocation-free.
type txScratch struct {
	agg    bridge.Aggregator
	pkts   []*bridge.EncapPacket
	dgs    [][]byte
	frames []txFrame // the batch entries that actually encapsulated
}

// txLoop is one link's sender goroutine: it blocks for the first frame
// of a batch, takes what else the ring already holds up to the link's
// batch size, and pushes the batch onto the link's transport. The batch
// size comes from the link's tunables snapshot (lk.tun), loaded once per
// batch: a retune by the adaptive controller or LINK TUNE applies from
// the next batch with no locking here. It exits when the node closes or
// the link is deleted/replaced (the supervision handle's Stop); frames
// still queued at that point are dropped, as a NIC ring's are on
// teardown. Supervised as "tx/<link>": a panic drops the batch in hand
// and the restarted sender resumes draining the same ring; a sender
// stuck inside one batch past the watchdog timeout is superseded by a
// fresh instance over the same ring, and must not transmit once it comes
// back — the ring has a new owner — so it drops what it holds. Either
// way the frames in hand are counted into tx_ring_drops on the way out,
// so drain accounting sees them.
func (n *Node) txLoop(inst *supervise.Instance, lk *link) {
	batch := make([]txFrame, 0, n.cfg.TxBatch)
	defer func() {
		if len(batch) > 0 {
			lk.txDrops.Add(uint64(len(batch)))
			n.drop(dropTxTeardown, uint64(len(batch)), telemetry.DropDetail{
				Tenant: lk.tenant, Scope: lk.id, Stage: "tx_teardown",
			})
		}
	}()
	var scratch txScratch
	for {
		select {
		case <-n.quit:
			return
		case <-inst.Quit():
			return
		case tf := <-lk.txq:
			batch = append(batch, tf)
		}
		inst.Working()
		select {
		case <-inst.Quit(): // stopped or superseded while held up in Working
			return
		default:
		}
	collect:
		for size := lk.tun.Load().batch; len(batch) < size; {
			select {
			case tf := <-lk.txq:
				batch = append(batch, tf)
			default:
				break collect
			}
		}
		n.sendTxBatch(lk, batch, &scratch)
		n.metrics.txBatchSize.Observe(float64(len(batch)))
		clear(batch) // drop frame refs; the ring owns nothing past a flush
		batch = batch[:0]
		inst.Idle()
	}
}

// sendTxBatch encapsulates and transmits one collected batch. The link's
// transport parameters are snapshotted once per batch (a concurrent
// auto-upgrade to TCP or fault install applies from the next batch on).
// Transport errors land in the link's send_errors counter — the batched
// path has no caller to return them to.
//
// One encoder choice per frame, from what the frame shows: an untraced
// frame that fits the link's datagram budget joins the open aggregate
// (closing it first when it is full); a traced frame, or one that must
// fragment, closes the aggregate and takes encapFrame's datagrams of its
// own. Datagrams leave in ring order, so per-flow order is the ring's.
//
// Accounting rule, shared by both transports: frame counters (encap_sent,
// TX latency samples) count frames, datagram counters (bytes_sent,
// send_errors, sealed_sent) count datagrams. A datagram is charged to
// bytes_sent only once the transport confirms it (UDP: counted sent by
// sendmmsg; TCP: fully written before any mid-batch write error, or the
// whole batch once the final flush succeeds — a failed flush confirms
// nothing it buffered). Every unconfirmed datagram is one send_errors
// count; a datagram never lands in both.
func (n *Node) sendTxBatch(lk *link, batch []txFrame, s *txScratch) {
	n.mu.Lock()
	fault, proto, addr := lk.fault, lk.proto, lk.addr
	n.mu.Unlock()
	budget := maxDatagram
	if proto == "tcp" {
		budget = tcpMaxDatagram
	}
	s.agg.Reset(lk.tmpl, lk.sealer, budget)
	for _, tf := range batch {
		if tf.f.Tag == 0 {
			fit, err := s.agg.Add(tf.f, &n.nextID)
			if !fit && err == nil && s.agg.Open() {
				n.closeAggregate(lk, s)
				fit, err = s.agg.Add(tf.f, &n.nextID)
			}
			if err != nil {
				lk.sendErrors.Add(1)
				continue
			}
			if fit {
				s.frames = append(s.frames, tf)
				continue
			}
		}
		n.closeAggregate(lk, s)
		pkt, err := n.encapFrame(lk, tf.f, budget)
		if err != nil {
			lk.sendErrors.Add(1)
			continue
		}
		s.pkts = append(s.pkts, pkt)
		s.dgs = append(s.dgs, pkt.Datagrams...)
		s.frames = append(s.frames, tf)
		for range pkt.Datagrams[1:] {
			n.metrics.txDatagramFrames.Observe(0) // a fragment completes no frame
		}
		n.metrics.txDatagramFrames.Observe(1)
	}
	n.closeAggregate(lk, s)
	dgs := s.dgs

	switch {
	case fault != nil:
		// Fault conduit installed: per-datagram through sendOnLink, whose
		// conduit branch clones each datagram (the conduit may deliver
		// after the encapsulation buffers are reused) and accounts
		// errors/bytes.
		for _, d := range dgs {
			n.sendOnLink(lk, d)
		}
	case proto == "tcp":
		sent, err := n.sendBatchTCP(lk, dgs)
		lk.bytesSent.Add(sumLens(dgs[:sent]))
		if err != nil || sent < len(dgs) {
			lk.sendErrors.Add(uint64(len(dgs) - sent))
		}
	default: // udp
		sent, err := sendBatchUDP(n.conn, dgs, addr)
		lk.bytesSent.Add(sumLens(dgs[:sent]))
		if err != nil || sent < len(dgs) {
			lk.sendErrors.Add(uint64(len(dgs) - sent))
		}
	}

	// The Fig. 7 TX stage budget, batched flavor: frame arrival to its
	// batch hitting the wire. Forwarded frames (zero at) are skipped,
	// matching the synchronous path — and so are frames whose
	// encapsulation failed above: they never hit the wire, so they get
	// neither a wire_tx trace hop nor a latency sample.
	n.EncapSent.Add(uint64(len(s.frames)))
	now := time.Now()
	for _, tf := range s.frames {
		if !tf.at.IsZero() {
			n.metrics.txLatency.Observe(now.Sub(tf.at).Seconds())
		}
		if tf.f.Tag != 0 {
			n.tracer.Record(tf.f.Tag, trace.StageWireTx)
		}
	}
	for _, p := range s.pkts {
		p.Release()
	}
	clear(s.pkts)
	clear(s.dgs)
	clear(s.frames)
	s.pkts, s.dgs, s.frames = s.pkts[:0], s.dgs[:0], s.frames[:0]
}

// closeAggregate finishes the batch's open aggregate, if there is one,
// and queues its datagram behind those already encoded.
func (n *Node) closeAggregate(lk *link, s *txScratch) {
	if !s.agg.Open() {
		return
	}
	d, frames := s.agg.Close()
	s.dgs = append(s.dgs, d)
	if lk.sealer != nil {
		n.metrics.sealSealed.Add(1)
	}
	n.metrics.txDatagramFrames.Observe(float64(frames))
}

// sendBatchTCP pushes a batch of datagrams down a link's TCP transport
// under one writer lock and a single flush. Returns how many datagrams
// the transport confirmed (see sendDatagrams for what "confirmed"
// means); a failed dial confirms none.
func (n *Node) sendBatchTCP(lk *link, dgs [][]byte) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	c, err := n.dialTCP(lk)
	if err != nil {
		return 0, err
	}
	sent, err := c.sendDatagrams(dgs)
	if err != nil {
		n.dropTransport(lk, c)
		return sent, err
	}
	return sent, nil
}

// sendBatchUDPFallback is the portable per-datagram transmit loop, used
// on platforms without sendmmsg and as the escape hatch when a batch
// send cannot be prepared (exotic socket family). Returns how many
// datagrams were fully sent.
func sendBatchUDPFallback(c *net.UDPConn, dgs [][]byte, addr *net.UDPAddr) (int, error) {
	for i, d := range dgs {
		if _, err := c.WriteToUDP(d, addr); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// sumLens totals the byte lengths of a datagram batch (for bytes_sent
// accounting with one atomic add).
func sumLens(dgs [][]byte) uint64 {
	var t uint64
	for _, d := range dgs {
		t += uint64(len(d))
	}
	return t
}

// DrainTX dequeues up to max frames (all if max <= 0) from a virtio TX
// queue with single-VM-exit batch semantics and routes them into the
// overlay via SendBatch. buf is an optional reusable scratch slice so a
// polling VMM loop allocates nothing per drain. Returns how many frames
// were drained (routing errors are aggregated, not counted out).
func (ep *Endpoint) DrainTX(q *virtio.Queue, buf []*ethernet.Frame, max int) (int, error) {
	frames := q.PopBatchInto(buf[:0], max)
	if len(frames) == 0 {
		return 0, nil
	}
	err := ep.SendBatch(frames)
	for i := range frames {
		frames[i] = nil
	}
	return len(frames), err
}
