// The batched transmit path: the live twin of the paper's adaptive
// dispatch (Sect. 4.3, Table 1). Every link has one combiner and one batch
// builder: a Send encodes its frame into the link's pending batch under
// the combiner's lock (add), and one holder at a time swaps that batch out
// and puts it on the wire (flush). So a lone frame leaves alone and a
// loaded link's frames leave together, as one record train cut into equal
// datagrams that cross the kernel as one UDP_SEGMENT message
// (bridge/aggregate.go) — the mode follows load per flush, with no rate
// estimate and nothing to tune. The two legs differ only in who holds the
// link and in what a Send does when the link is overloaded. On the
// synchronous leg the holder is a Send that found the link free, and a
// Send waits while the pending batch is full (txPendingBytes). With
// NodeConfig.Adaptive the holder is the link's sender goroutine, the live
// adaptive dispatcher: a Send wakes it if it is idle and never waits — a
// frame that finds txRing frames pending is dropped on tx_ring — and it
// flushes until nothing is pending. Either way every frame is encoded
// before its Send returns.

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

// txScratch is one batch being built and sent, in add order: the
// transport it is encoded for, the open record train, the trains cut and
// the pooled packets of frames that travel alone, their datagrams, and a
// mark per frame. Reused across batches — trains[:cut] are this batch's,
// and every one keeps its buffer — it keeps the steady state
// allocation-free.
type txScratch struct {
	tr     *linkTransport // loaded at the batch's first frame
	room   int            // the longest train one UDP_SEGMENT message carries at tr's budget
	agg    bridge.Aggregator
	trains []bridge.EncapPacket
	cut    int
	pkts   []*bridge.EncapPacket
	dgs    [][]byte
	bytes  int // what dgs hold
	frames []txMark
}

// txMark is what a batch keeps of an encoded frame — not the frame, so
// the caller may reuse it once Send returns.
type txMark struct {
	tag  uint64
	at   time.Time
	last int // index in dgs of the frame's final datagram
}

// size reports the bytes s holds: its datagrams and its open train.
func (s *txScratch) size() int { return s.bytes + s.agg.Len() }

// release recycles a batch's packet buffers and empties it.
func (s *txScratch) release() {
	for _, p := range s.pkts {
		p.Release()
	}
	clear(s.pkts)
	clear(s.dgs)
	s.agg.Reset()
	s.pkts, s.dgs, s.frames, s.bytes, s.cut = s.pkts[:0], s.dgs[:0], s.frames[:0], 0, 0
}

// sendRing is forwardTo's ring leg: it encodes f into the link's pending
// batch and wakes the link's sender if it is idle. It never waits, and it
// has no error to return: a frame that finds txRing frames pending lands
// on tx_ring, one that reaches a link whose sender has stopped on
// tx_teardown, and one that cannot be encoded on tx_error. The tx_enqueue
// hop is recorded before the frame is visible to the sender, so it cannot
// race the sender's wire_tx hop.
func (n *Node) sendRing(lk *link, f *ethernet.Frame, at time.Time) {
	if f.Tag != 0 {
		n.tracer.Record(f.Tag, trace.StageTxEnqueue)
	}
	c := &lk.comb
	c.mu.Lock()
	var reason, stage string
	wake := false
	switch p := c.pending(); {
	case c.stopped:
		reason, stage = dropTxTeardown, "tx_teardown"
	case len(p.frames) >= n.cfg.txRing:
		reason, stage = dropTxRing, "tx_ring"
	case n.add(lk, p, f, at) != nil:
		reason, stage = dropTxError, "transmit"
	case !c.busy:
		c.busy, wake = true, true
	}
	c.mu.Unlock()
	if wake {
		wakeSender(lk)
	}
	if reason != "" {
		n.drop(reason, 1, telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: stage,
			Flow: core.FlowKey{Tenant: lk.tenant, Src: f.Src, Dst: f.Dst}.String(),
		})
	}
}

// wakeSender leaves lk's sender a wakeup, unless one is already waiting.
func wakeSender(lk *link) {
	select {
	case lk.wake <- struct{}{}:
	default:
	}
}

// txLoop is one link's sender goroutine, the permanent holder of its
// combiner: woken by the Send that found it idle, it swaps the pending
// batch out and flushes it, one unit of work per flush, until nothing is
// pending. Supervised as "tx/<link>". A panic inside a flush charges the
// batch in flight to tx_teardown; the restarted sender resumes from what
// is pending. A sender stuck in one flush past the watchdog timeout is
// superseded by a fresh instance, which waits that flush out — one flush
// on a link at a time — while the old one, once it returns, sends nothing
// more. Stopping the sender (stopSender) charges what is pending.
func (n *Node) txLoop(inst *supervise.Instance, lk *link) {
	c := &lk.comb
	var flying *txScratch
	defer func() {
		if flying != nil {
			c.mu.Lock()
			lost := len(flying.frames)
			flying.release()
			c.sending = false
			c.cond.Broadcast()
			c.mu.Unlock()
			n.dropTeardown(lk, lost)
		}
	}()
	wakeSender(lk) // a restarted or superseding instance has no wakeup of its own
	for {
		select {
		case <-inst.Quit():
			return
		case <-lk.wake:
		}
		for {
			inst.Working()
			c.mu.Lock()
			for c.sending { // a superseded instance's flush
				c.cond.Wait()
			}
			select {
			case <-inst.Quit(): // stopped, or superseded: the role has a new owner
				c.mu.Unlock()
				return
			default:
			}
			if len(c.pending().frames) == 0 {
				c.busy = false
				c.mu.Unlock()
				break
			}
			flying = n.swap(lk, c)
			c.mu.Unlock()
			n.flush(lk, flying, -1)
			flying = nil
			c.mu.Lock()
			c.sending = false
			c.cond.Broadcast()
			c.mu.Unlock()
			inst.Idle()
		}
		inst.Idle()
	}
}

// stopSender stops a ring link's sender — its link deleted or replaced,
// or the node closing — and charges what it left pending to tx_teardown,
// once; a Send that reaches the link afterwards is charged there too. A
// flush already in flight completes.
func (n *Node) stopSender(lk *link) {
	if lk.txw == nil {
		return
	}
	lk.txw.Stop()
	c := &lk.comb
	c.mu.Lock()
	c.stopped = true
	lost := len(c.pending().frames)
	c.pending().release()
	c.mu.Unlock()
	n.dropTeardown(lk, lost)
}

// dropTeardown charges frames a link's holder lost to tx_teardown.
func (n *Node) dropTeardown(lk *link, frames int) {
	if frames > 0 {
		n.drop(dropTxTeardown, uint64(frames), telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "tx_teardown",
		})
	}
}

// add encodes one frame behind what s holds — the one per-frame encoder
// of both legs. An untraced frame whose record fits a train joins the
// open one, which is cut first when the record would take it past what
// one UDP_SEGMENT message carries or, on a ring link, when it holds
// txBatchMax frames already (so a lost datagram costs at most a train of
// those); a traced frame, or one too long for any train, cuts it and takes
// encapFrame's datagrams of its own.
// Datagrams leave in add order. A batch's first frame loads the transport
// the batch is encoded for and sent by, so an auto-upgrade or fault
// install applies from the next batch. An error is f's own, and f is then
// not in s.
func (n *Node) add(lk *link, s *txScratch, f *ethernet.Frame, at time.Time) error {
	if len(s.frames) == 0 {
		s.tr = lk.transport.Load()
		s.room = lk.tmpl.TrainRoom(s.tr.budget)
	}
	mark := txMark{tag: f.Tag, at: at}
	if rec := bridge.RecordLen(f); f.Tag == 0 && rec <= s.room {
		if s.agg.Len()+rec > s.room || lk.wake != nil && s.agg.Count() == txBatchMax {
			n.closeTrain(lk, s)
		}
		if err := s.agg.Add(f); err != nil {
			return err
		}
		s.frames = append(s.frames, mark) // its last datagram is known once the train is cut
		return nil
	}
	n.closeTrain(lk, s)
	pkt, err := n.encapFrame(lk, f, s.tr.budget)
	if err != nil {
		return err
	}
	s.pkts = append(s.pkts, pkt)
	s.frames = append(s.frames, mark)
	n.queue(lk, s, pkt.Datagrams, 1)
	return nil
}

// flush puts a batch on the wire and empties it — the one flush of both
// legs: cut the open train, transmit, count, release. A frame is sent iff
// the transport confirmed its last datagram (a train's frames share the
// fate of its last) and only then gets encap_sent, the TX latency
// sample and the wire_tx hop; vnetp_tx_batch_size takes the frames the
// transmit carried. An unsent frame at index own — the flushing Send's
// own, -1 for none — is the error returned; any other lands on tx_error.
func (n *Node) flush(lk *link, s *txScratch, own int) error {
	if len(s.frames) == 0 {
		return nil
	}
	n.closeTrain(lk, s)
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

// The combiner's bounds (DESIGN "Batched transmit"): on the synchronous
// leg a Send waits while pending holds txPendingBytes, two full trains,
// and a holder hands on after holderSwaps flushes.
const (
	txPendingBytes = 128 << 10
	holderSwaps    = 8
)

// combiner is a link's one batch, the live twin of the simulator's
// Iface.txBusy: one flush on the wire at a time. Every Send encodes its
// frame into the pending batch under mu, so encode (and nonce) order is
// wire order. The holder swaps the pending batch out under mu, flushes it
// outside, and repeats until nothing is pending: on the synchronous leg a
// Send that found the link free (one that finds it held returns once its
// frame is encoded), on the ring the link's sender. cond.L must be set to
// &mu before use.
type combiner struct {
	mu   sync.Mutex
	cond sync.Cond // on mu: a swap made room, a flush ended, the role moved

	batch [2]txScratch // batch[cur] pending, the other in flight or idle
	cur   int

	busy    bool // the role is held (or an heir waits to take it); on the ring: the sender is awake
	sending bool // the holder is flushing, outside mu
	handoff bool // the holder has used its swaps: the next Send is its heir
	heir    bool // an heir waits out the flush in flight
	stopped bool // the ring's sender has stopped: nothing will flush again
}

func (c *combiner) pending() *txScratch { return &c.batch[c.cur] }

// depth reports the frames pending: the vnetp_link_tx_queue_depth gauge,
// and what Drain waits out.
func (c *combiner) depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending().frames)
}

// swap takes the pending batch out for the holder to flush, under c.mu.
// On a sealed link it cuts and seals the open train first, so nonces are
// drawn in wire order; a plaintext train is cut by the flush, outside the
// lock, which keeps the lock's hold short.
func (n *Node) swap(lk *link, c *combiner) *txScratch {
	b := c.pending()
	if lk.sealer != nil {
		n.closeTrain(lk, b)
	}
	c.cur ^= 1
	c.sending = true
	c.cond.Broadcast()
	return b
}

// sendSync is forwardTo's synchronous leg. The error is the caller's own
// frame's.
func (n *Node) sendSync(lk *link, f *ethernet.Frame, at time.Time) error {
	c := &lk.comb
	c.mu.Lock()
	for c.pending().size() >= txPendingBytes {
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

// hold runs the synchronous holder role, entered under c.mu with the
// caller's frame at index own of the pending batch, which its first flush
// carries. The role ends under the lock: released once nothing is
// pending, or passed to an heir after holderSwaps flushes. A panicking
// flush releases it on the way out: what was in flight, and what is
// pending unless an heir takes it, lands on tx_teardown.
func (n *Node) hold(lk *link, c *combiner, own int) (err error) {
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
		n.dropTeardown(lk, lost)
	}()
	for swaps := 1; ; swaps++ {
		flying = n.swap(lk, c)
		c.handoff = swaps >= holderSwaps
		c.mu.Unlock()
		if ferr := n.flush(lk, flying, own); own >= 0 {
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

// closeTrain cuts the batch's open train, if there is one, into
// datagrams of the transport's budget — each sealed under a nonce of its
// own on a tenant link — and queues them behind those already encoded.
func (n *Node) closeTrain(lk *link, s *txScratch) {
	frames := s.agg.Count()
	if frames == 0 {
		return
	}
	if s.cut == len(s.trains) {
		s.trains = append(s.trains, bridge.EncapPacket{})
	}
	p := &s.trains[s.cut]
	s.cut++
	p.CutTrain(&s.agg, n.nextID.Add(1), s.tr.budget, lk.tmpl, lk.sealer)
	s.agg.Reset()
	n.queue(lk, s, p.Datagrams, frames)
}

// queue puts encoded datagrams behind what s holds: the last frames
// frames added are sent iff the last datagram is. They are counted here:
// vnetp_tx_datagram_frames takes 0 for each but the last, which completes
// the frames, and on a tenant link each was sealed.
func (n *Node) queue(lk *link, s *txScratch, dgs [][]byte, frames int) {
	s.dgs = append(s.dgs, dgs...)
	for _, d := range dgs {
		s.bytes += len(d)
	}
	for i := len(s.frames) - frames; i < len(s.frames); i++ {
		s.frames[i].last = len(s.dgs) - 1
	}
	if lk.sealer != nil {
		n.metrics.sealSealed.Add(uint64(len(dgs)))
	}
	n.metrics.txDatagramFrames.ObserveN(0, uint64(len(dgs)-1))
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
