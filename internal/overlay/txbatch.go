// The batched transmit path: the live twin of the paper's adaptive
// dispatch (Sect. 4.3, Table 1). With NodeConfig.Adaptive, every link
// owns a bounded TX ring drained by a self-clocked sender goroutine: it
// blocks for one frame, takes whatever else is already queued (up to
// txBatchMax), and transmits — it never waits for a batch to fill. So a
// lone frame leaves alone, as under guest-driven dispatch, and a loaded
// link's frames leave together, as under VMM-driven dispatch: the mode
// follows load per batch, with no rate estimate and nothing to tune. What
// a batch amortizes is the per-datagram cost, the part of a small-frame
// stream one syscall per batch (sendmmsg) does not divide: the frames of
// a batch that fit share aggregate datagrams (bridge/aggregate.go).
// The synchronous leg batches without a ring (syncTx). Both legs share
// one encoder (add) and one flush.

package overlay

import (
	"net"
	"sync"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/supervise"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
	"vnetp/internal/virtio"
)

// txFrame is one outbound frame queued on a link's TX ring, with its
// local-arrival time (zero for forwarded frames).
type txFrame struct {
	f  *ethernet.Frame
	at time.Time
}

// enqueueTx offers a frame to a link's TX ring without blocking the
// router; ring-full frames are dropped and counted, like a NIC TX ring
// under overrun. The tx_enqueue hop is recorded before the handoff so it
// cannot race the sender's encap hop.
func (n *Node) enqueueTx(lk *link, f *ethernet.Frame, at time.Time) {
	if f.Tag != 0 {
		n.tracer.Record(f.Tag, trace.StageTxEnqueue)
	}
	select {
	case lk.txq <- txFrame{f: f, at: at}:
	default:
		n.drop(dropTxRing, 1, telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "tx_ring",
			Flow: core.FlowKey{Tenant: lk.tenant, Src: f.Src, Dst: f.Dst}.String(),
		})
	}
}

// txScratch is one batch being built and sent, in add order: the
// transport it is encoded for, the aggregate encoder, the packets of
// frames that travel alone, the datagrams, and a mark per frame. Reused
// across batches, it keeps the steady state allocation-free.
type txScratch struct {
	tr     *linkTransport // loaded at the batch's first frame
	agg    bridge.Aggregator
	pkts   []*bridge.EncapPacket
	dgs    [][]byte
	frames []txMark
}

// txMark is what a batch keeps of an encoded frame — not the frame, so a
// synchronous caller may reuse it once Send returns.
type txMark struct {
	tag  uint64
	at   time.Time
	last int // index in dgs of the frame's final datagram
}

// release recycles a batch's packet buffers and empties it.
func (s *txScratch) release() {
	for _, p := range s.pkts {
		p.Release()
	}
	clear(s.pkts)
	clear(s.dgs)
	s.pkts, s.dgs, s.frames = s.pkts[:0], s.dgs[:0], s.frames[:0]
}

// txLoop is one link's sender goroutine: it blocks for the first frame
// of a batch, takes what else the ring already holds up to txBatchMax,
// and pushes the batch onto the link's transport. It exits when the node
// closes or the link is deleted/replaced (the supervision handle's
// Stop); frames still queued at that point are dropped, as a NIC ring's
// are on teardown. Supervised as "tx/<link>": a panic drops the batch in hand
// and the restarted sender resumes draining the same ring; a sender
// stuck inside one batch past the watchdog timeout is superseded by a
// fresh instance over the same ring, and must not transmit once it comes
// back — the ring has a new owner — so it drops what it holds. Either
// way the frames in hand land on tx_teardown, where Drain sees them.
func (n *Node) txLoop(inst *supervise.Instance, lk *link) {
	batch := make([]txFrame, 0, txBatchMax)
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
		for len(batch) < txBatchMax {
			select {
			case tf := <-lk.txq:
				batch = append(batch, tf)
			default:
				break collect
			}
		}
		n.sendTxBatch(lk, batch, &scratch)
		clear(batch) // drop frame refs; the ring owns nothing past a flush
		batch = batch[:0]
		inst.Idle()
	}
}

// sendTxBatch encodes one collected batch and flushes it. A frame that
// cannot be encoded lands on tx_error: the batched leg has no caller.
func (n *Node) sendTxBatch(lk *link, batch []txFrame, s *txScratch) {
	failed := 0
	for _, tf := range batch {
		if n.add(lk, s, tf.f, tf.at) != nil {
			failed++
		}
	}
	if failed > 0 {
		n.drop(dropTxError, uint64(failed), telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "transmit",
		})
	}
	n.flush(lk, s, -1)
}

// add encodes one frame behind what s holds — the one per-frame encoder
// of both legs. An untraced frame that fits the link's datagram budget
// joins the open aggregate (closing it first when full); a traced or
// fragmenting frame closes it and takes encapFrame's datagrams of its
// own. Datagrams leave in add order. A batch's first frame loads the
// transport the batch is encoded for and sent by, so an auto-upgrade or
// fault install applies from the next batch. An error is f's own, and f
// is then not in s.
func (n *Node) add(lk *link, s *txScratch, f *ethernet.Frame, at time.Time) error {
	if len(s.frames) == 0 {
		s.tr = lk.transport.Load()
		s.agg.Reset(lk.tmpl, lk.sealer, s.tr.budget)
	}
	mark := txMark{tag: f.Tag, at: at}
	if f.Tag == 0 {
		fit, err := s.agg.Add(f, &n.nextID)
		if !fit && err == nil && s.agg.Open() {
			n.closeAggregate(lk, s)
			fit, err = s.agg.Add(f, &n.nextID)
		}
		if err != nil {
			return err
		}
		if fit {
			mark.last = len(s.dgs) // where the open aggregate will land
			s.frames = append(s.frames, mark)
			return nil
		}
	}
	n.closeAggregate(lk, s)
	pkt, err := n.encapFrame(lk, f, s.tr.budget)
	if err != nil {
		return err
	}
	s.pkts = append(s.pkts, pkt)
	s.dgs = append(s.dgs, pkt.Datagrams...)
	mark.last = len(s.dgs) - 1
	s.frames = append(s.frames, mark)
	n.metrics.txDatagramFrames.ObserveN(0, uint64(len(pkt.Datagrams)-1)) // a fragment completes no frame
	n.metrics.txDatagramFrames.Observe(1)
	return nil
}

// flush puts a batch on the wire and empties it — the one flush of both
// legs: close the open aggregate, transmit, count, release. A frame is
// sent iff the transport confirmed its last datagram (an aggregate's
// frames share its fate) and only then gets encap_sent, the TX latency
// sample and the wire_tx hop; vnetp_tx_batch_size takes the frames the
// transmit carried. An unsent frame at index own — the flushing Send's
// own, -1 for none — is the error returned; any other lands on tx_error.
func (n *Node) flush(lk *link, s *txScratch, own int) error {
	if len(s.frames) == 0 {
		return nil
	}
	n.closeAggregate(lk, s)
	confirmed, err := n.transmit(lk, s.tr, s.dgs)
	sent := len(s.frames)
	for sent > 0 && s.frames[sent-1].last >= confirmed {
		sent--
	}
	lost := len(s.frames) - sent
	if own >= sent {
		lost--
	} else {
		err = nil
	}
	if lost > 0 {
		n.drop(dropTxError, uint64(lost), telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "transmit",
		})
	}
	n.metrics.txBatchSize.Observe(float64(len(s.frames)))
	n.EncapSent.Add(uint64(sent))
	var now time.Time // one monotonic clock read per flush, not a wall-clock one
	for _, m := range s.frames[:sent] {
		if !m.at.IsZero() {
			if now.IsZero() {
				now = m.at.Add(time.Since(m.at))
			}
			n.metrics.txLatency.Observe(now.Sub(m.at).Seconds())
		}
		if m.tag != 0 {
			n.tracer.Record(m.tag, trace.StageWireTx)
		}
	}
	s.release()
	return err
}

// The combiner's bounds (DESIGN "Batched transmit"): a Send waits while
// pending holds txPendingMax datagrams; a holder hands on after
// holderSwaps flushes.
const (
	txPendingMax = 64
	holderSwaps  = 8
)

// syncTx is a synchronous link's combiner, the live twin of the
// simulator's Iface.txBusy: one Send on the wire at a time. Every Send
// encodes its frame into the pending batch under mu, so encode (and
// nonce) order is wire order. A Send that finds the link free holds it:
// it swaps the pending batch out under mu, flushes it outside, and
// repeats until nothing is pending; one that finds it held returns once
// its frame is encoded. cond.L must be set to &mu before use.
type syncTx struct {
	mu   sync.Mutex
	cond sync.Cond // on mu: a swap made room, a flush ended, the role moved

	batch [2]txScratch // batch[cur] pending, the other in flight or idle
	cur   int

	busy    bool // the role is held (or an heir waits to take it)
	sending bool // the holder is flushing, outside mu
	handoff bool // the holder has used its swaps: the next Send is its heir
	heir    bool // an heir waits out the flush in flight
}

func (c *syncTx) pending() *txScratch { return &c.batch[c.cur] }

// sendSync is forwardTo's synchronous leg. The frame is encoded before it
// returns, whoever sends it; the error is the caller's own frame's.
func (n *Node) sendSync(lk *link, f *ethernet.Frame, at time.Time) error {
	c := &lk.sync
	c.mu.Lock()
	for len(c.pending().dgs) >= txPendingMax {
		c.cond.Wait()
	}
	p := c.pending()
	if err := n.add(lk, p, f, at); err != nil {
		c.mu.Unlock()
		return err
	}
	own := len(p.frames) - 1
	switch {
	case !c.busy:
		c.busy = true
	case c.handoff && !c.heir:
		c.heir = true
		for c.sending {
			c.cond.Wait()
		}
	default:
		c.mu.Unlock()
		return nil
	}
	return n.hold(lk, c, own)
}

// hold runs the holder role, entered under c.mu with the caller's frame
// at index own of the pending batch, which its first flush carries. A
// swap closes (seals) the open aggregate under the lock. The role ends
// under the lock: released once nothing is pending, or passed to an heir
// after holderSwaps flushes. A panicking flush releases it on the way
// out: what was in flight, and what is pending unless an heir takes it,
// lands on tx_teardown.
func (n *Node) hold(lk *link, c *syncTx, own int) (err error) {
	c.heir, c.handoff = false, false
	var flying *txScratch
	defer func() {
		if flying == nil {
			return
		}
		c.mu.Lock()
		lost := len(flying.frames)
		flying.release()
		if !c.heir {
			lost += len(c.pending().frames)
			c.pending().release()
			c.busy, c.handoff = false, false
		}
		c.sending = false
		c.cond.Broadcast()
		c.mu.Unlock()
		n.drop(dropTxTeardown, uint64(lost), telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "tx_teardown",
		})
	}()
	for swaps := 1; ; swaps++ {
		b := c.pending()
		n.closeAggregate(lk, b)
		c.cur ^= 1
		c.sending, c.handoff = true, swaps >= holderSwaps
		c.cond.Broadcast()
		c.mu.Unlock()
		flying = b
		if ferr := n.flush(lk, b, own); own >= 0 {
			err = ferr
		}
		flying, own = nil, -1
		c.mu.Lock()
		c.sending = false
		if c.heir || len(c.pending().frames) == 0 {
			if !c.heir {
				c.busy, c.handoff = false, false
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return err
		}
	}
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
