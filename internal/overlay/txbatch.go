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
	"sort"
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
// counter and the tx_error ledger reason (sendTxBatch), not here, and the
// TX latency sample is taken after
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
	last   []int     // last[i]: index in dgs of frames[i]'s final datagram
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

// sendTxBatch encapsulates and transmits one collected batch: encode
// every frame, transmit the datagrams, count what was sent. The link's
// transport is loaded once per batch (a concurrent auto-upgrade to TCP
// or fault install applies from the next batch on).
//
// One encoder choice per frame, from what the frame shows: an untraced
// frame that fits the link's datagram budget joins the open aggregate
// (closing it first when it is full); a traced frame, or one that must
// fragment, closes the aggregate and takes encapFrame's datagrams of its
// own. Datagrams leave in ring order, so per-flow order is the ring's.
//
// Frame counters count frames, datagram counters count datagrams
// (transmit's). A frame is sent iff the transport confirmed its last
// datagram — an aggregate's frames share its fate. Sent frames get
// encap_sent, the TX latency sample and the wire_tx hop; every other
// frame of the batch (refused by the transport, or never encoded) gets
// none of them and lands on the tx_error ledger reason — the batched leg
// has no caller to return the error to.
func (n *Node) sendTxBatch(lk *link, batch []txFrame, s *txScratch) {
	tr := lk.transport.Load()
	s.agg.Reset(lk.tmpl, lk.sealer, tr.budget)
	for _, tf := range batch {
		if tf.f.Tag == 0 {
			fit, err := s.agg.Add(tf.f, &n.nextID)
			if !fit && err == nil && s.agg.Open() {
				n.closeAggregate(lk, s)
				fit, err = s.agg.Add(tf.f, &n.nextID)
			}
			if err != nil {
				continue
			}
			if fit {
				s.frames = append(s.frames, tf)
				s.last = append(s.last, len(s.dgs)) // where the open aggregate will land
				continue
			}
		}
		n.closeAggregate(lk, s)
		pkt, err := n.encapFrame(lk, tf.f, tr.budget)
		if err != nil {
			continue
		}
		s.pkts = append(s.pkts, pkt)
		s.dgs = append(s.dgs, pkt.Datagrams...)
		s.frames = append(s.frames, tf)
		s.last = append(s.last, len(s.dgs)-1)
		for range pkt.Datagrams[1:] {
			n.metrics.txDatagramFrames.Observe(0) // a fragment completes no frame
		}
		n.metrics.txDatagramFrames.Observe(1)
	}
	n.closeAggregate(lk, s)

	confirmed, _ := n.transmit(lk, tr, s.dgs)
	sent := s.frames[:sort.SearchInts(s.last, confirmed)] // last[i] < confirmed
	if lost := len(batch) - len(sent); lost > 0 {
		n.drop(dropTxError, uint64(lost), telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "transmit",
		})
	}

	// The Fig. 7 TX stage budget, batched flavor: frame arrival to its
	// batch hitting the wire. Forwarded frames (zero at) are skipped,
	// matching the synchronous path.
	n.EncapSent.Add(uint64(len(sent)))
	now := time.Now()
	for _, tf := range sent {
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
	s.pkts, s.dgs, s.frames, s.last = s.pkts[:0], s.dgs[:0], s.frames[:0], s.last[:0]
}

// transmit is the one way out of a link: it hands datagrams, in order,
// to the transport tr names — the fault conduit when one is installed,
// else the link's TCP stream or the node's UDP socket — and keeps the
// link's datagram accounting. confirmed counts the leading datagrams the
// transport took (UDP: sent by sendmmsg; TCP: fully written before any
// mid-batch write error, or the whole batch once the final flush
// succeeds — a failed flush confirms nothing it buffered, and neither
// does a failed dial). Each confirmed datagram is charged to bytes_sent,
// every other one to send_errors, none to both.
//
// A conduit takes whatever it is handed — what it drops or delays is the
// network's doing, not a send failure — and each datagram it delivers
// re-enters here without the conduit, possibly later and on the
// conduit's goroutine: it gets private copies (the caller may recycle
// dgs on return), and an error in there can reach only send_errors.
func (n *Node) transmit(lk *link, tr *linkTransport, dgs [][]byte) (confirmed int, err error) {
	switch {
	case tr.fault != nil:
		bare := *tr
		bare.fault = nil
		deliver := func(p any) { n.transmit(lk, &bare, [][]byte{p.([]byte)}) }
		for _, d := range dgs {
			tr.fault.Send(append([]byte(nil), d...), deliver)
		}
		return len(dgs), nil
	case tr.proto == "tcp":
		confirmed, err = n.sendBatchTCP(lk, dgs)
	default:
		confirmed, err = n.sendBatchUDP(lk, tr, dgs)
	}
	lk.bytesSent.Add(sumLens(dgs[:confirmed]))
	lk.sendErrors.Add(uint64(len(dgs) - confirmed))
	return confirmed, err
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
