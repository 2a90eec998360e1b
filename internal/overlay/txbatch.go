// The batched transmit path: the send-side twin of the paper's
// VMM-driven dispatch result (Sect. 4.3, Table 1). With
// NodeConfig.TxBatch > 1, every link owns a bounded TX ring drained by a
// sender goroutine that coalesces frames per wakeup — flushing on
// batch-full or a short TxFlushTimeout, the adaptive hysteresis idea
// applied at the sender — so per-frame costs (goroutine wakeups, encap
// buffer allocation, and on Linux the syscall itself, via sendmmsg)
// amortize over the batch.

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

// txScratch is a txLoop's reusable per-batch state: the encapsulated
// packets awaiting Release and the flattened datagram list handed to the
// transport. Reusing the slice headers keeps the steady-state flush
// allocation-free.
type txScratch struct {
	pkts   []*bridge.EncapPacket
	dgs    [][]byte
	frames []txFrame // the batch entries that actually encapsulated
}

// txLoop is one link's sender goroutine: it blocks for the first frame
// of a batch, collects until batch-full or the flush timer fires, and
// pushes the whole batch onto the link's transport. The batch size and
// flush bound come from the link's tunables snapshot (lk.tun), loaded
// once per batch: a retune by the adaptive controller or LINK TUNE
// applies from the next batch with no locking here. It exits when the
// node closes or the link is deleted/replaced (the supervision handle's
// Stop); frames still queued at that point are dropped, as a NIC ring's
// are on teardown — and so is any partial batch already collected, which
// is counted into tx_ring_drops on the way out so drain accounting sees
// it. Supervised as "tx/<link>": a panic drops the batch in hand (also
// counted, by the same defer) and the restarted sender resumes draining
// the same ring; a sender stuck inside one batch past the watchdog
// timeout is superseded by a fresh instance over the same ring.
func (n *Node) txLoop(inst *supervise.Instance, lk *link) {
	batch := make([]txFrame, 0, n.cfg.TxBatch)
	// Teardown/panic accounting: whatever sits in batch when this
	// instance unwinds never reached the wire. Count it like a ring
	// overrun so DrainStats and the shutdown summary include it.
	defer func() {
		if len(batch) > 0 {
			lk.txDrops.Add(uint64(len(batch)))
			n.drop(dropTxTeardown, uint64(len(batch)), telemetry.DropDetail{
				Tenant: lk.tenant, Scope: lk.id, Stage: "tx_teardown",
			})
		}
	}()
	var scratch txScratch
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-n.quit:
			return
		case <-inst.Quit():
			return
		case tf := <-lk.txq:
			inst.Working()
			batch = append(batch, tf)
		}
		tun := lk.tun.Load()
		if len(batch) < tun.batch {
			timer.Reset(tun.flush)
		collect:
			for len(batch) < tun.batch {
				select {
				case <-n.quit:
					return
				case <-inst.Quit():
					return
				case tf := <-lk.txq:
					batch = append(batch, tf)
				case <-timer.C:
					break collect
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		n.sendTxBatch(lk, batch, &scratch)
		n.metrics.txBatchSize.Observe(float64(len(batch)))
		for i := range batch {
			batch[i] = txFrame{} // drop frame refs; the ring owns nothing past a flush
		}
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
// Accounting rule, shared by both transports: a datagram is charged to
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
	pkts := s.pkts[:0]
	dgs := s.dgs[:0]
	sentFrames := s.frames[:0]
	for _, tf := range batch {
		pkt, err := n.encapFrame(lk, tf.f, budget)
		if err != nil {
			lk.sendErrors.Add(1)
			continue
		}
		pkts = append(pkts, pkt)
		dgs = append(dgs, pkt.Datagrams...)
		sentFrames = append(sentFrames, tf)
		n.EncapSent.Add(1)
	}

	switch {
	case fault != nil:
		// Fault conduit installed: per-datagram through sendOnLink, whose
		// conduit branch clones each datagram (the conduit may deliver
		// after the pooled buffers are recycled) and accounts errors/bytes.
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
	now := time.Now()
	for _, tf := range sentFrames {
		if !tf.at.IsZero() {
			n.metrics.txLatency.Observe(now.Sub(tf.at).Seconds())
		}
		if tf.f.Tag != 0 {
			n.tracer.Record(tf.f.Tag, trace.StageWireTx)
		}
	}
	for i, p := range pkts {
		p.Release()
		pkts[i] = nil
	}
	for i := range dgs {
		dgs[i] = nil
	}
	for i := range sentFrames {
		sentFrames[i] = txFrame{}
	}
	s.pkts = pkts[:0]
	s.dgs = dgs[:0]
	s.frames = sentFrames[:0]
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
