// The batched transmit path: the live twin of the paper's adaptive
// dispatch (Sect. 4.3, Table 1). Every link has one batch and one sender
// goroutine, the live adaptive dispatcher: a Send encodes its frame into
// the link's pending batch under the combiner's lock (add) and wakes the
// sender if it is idle, and the sender swaps that batch out, seals it on
// a tenant link and puts it on the wire (flush) until nothing is pending.
// So a lone frame leaves alone and a loaded link's frames leave together,
// as one record train cut into equal datagrams that cross the kernel as
// one UDP_SEGMENT message (bridge/aggregate.go) — the mode follows load
// per flush, with no rate estimate and nothing to tune. A Send never
// waits: a frame that finds txRing frames pending is dropped on tx_ring.
// Every frame is encoded before its Send returns.

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
)

// txScratch is one batch being built and sent, in add order: the
// transport it is encoded for, the open record train, the trains cut and
// the pooled packets of frames that travel alone, their datagrams (in the
// clear until the flush), and a mark per frame. Reused across batches —
// trains[:cut] are this batch's, and every one keeps its buffer — it keeps
// the steady state allocation-free. born is the batch's one timestamp
// (Node.mono), taken when its first sampled frame was added: every TX
// latency sample the batch takes is valued from it.
type txScratch struct {
	tr      *linkTransport // loaded at the batch's first frame
	room    int            // the longest train one UDP_SEGMENT message carries at tr's budget
	agg     bridge.Aggregator
	trains  []bridge.EncapPacket
	cut     int
	pkts    []*bridge.EncapPacket
	dgs     [][]byte
	frames  []txMark
	born    time.Duration
	sampled bool // born is set
}

// txMark is what a batch keeps of an encoded frame — not the frame, so
// the caller may reuse it once Send returns.
type txMark struct {
	tag    uint64
	sample bool // takes a TX latency sample once sent
	last   int  // index in dgs of the frame's final datagram
}

// release recycles a batch's packet buffers and empties it.
func (s *txScratch) release() {
	for _, p := range s.pkts {
		p.Release()
	}
	clear(s.pkts)
	clear(s.dgs)
	s.agg.Reset()
	s.pkts, s.dgs, s.frames, s.cut = s.pkts[:0], s.dgs[:0], s.frames[:0], 0
	s.sampled = false
}

// mono is the node's monotonic clock, the time since it started: one
// reading costs a monotonic clock read and no wall-clock one.
func (n *Node) mono() time.Duration { return time.Since(n.started) }

// sendRing is how forwardTo hands a frame to a link: it encodes f into
// the link's pending batch and wakes the link's sender if it is idle. It
// never waits, and it has no error to return: a frame that finds txRing
// frames pending lands on tx_ring, one that reaches a link whose sender
// has stopped on tx_teardown, and one that cannot be encoded on tx_error.
// The tx_enqueue hop is recorded before the frame is visible to the
// sender, so it cannot race the sender's wire_tx hop. sample: the frame
// takes a TX latency sample once sent.
func (n *Node) sendRing(lk *link, f *ethernet.Frame, sample bool) {
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
	case n.add(lk, p, f, sample) != nil:
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

// txLoop is one link's sender goroutine, the only one to flush its
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
			flying = c.swap()
			c.mu.Unlock()
			n.flush(lk, flying)
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

// stopSender stops a link's sender — its link deleted or replaced, or the
// node closing — and charges what it left pending to tx_teardown, once; a
// Send that reaches the link afterwards is charged there too. A flush
// already in flight completes.
func (n *Node) stopSender(lk *link) {
	lk.txw.Stop()
	c := &lk.comb
	c.mu.Lock()
	c.stopped = true
	lost := len(c.pending().frames)
	c.pending().release()
	c.mu.Unlock()
	n.dropTeardown(lk, lost)
}

// dropTeardown charges frames a link's sender lost to tx_teardown.
func (n *Node) dropTeardown(lk *link, frames int) {
	if frames > 0 {
		n.drop(dropTxTeardown, uint64(frames), telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "tx_teardown",
		})
	}
}

// add encodes one frame behind what s holds — the one per-frame encoder.
// An untraced frame whose record fits a train joins the open one, which is
// cut first when the record would take it past what one UDP_SEGMENT
// message carries or when it holds txBatchMax frames already (so a lost
// datagram costs at most a train of those); a traced frame, or one too
// long for any train, cuts it and takes encapFrame's datagrams of its own.
// Datagrams leave in add order. A batch's first frame loads the transport
// the batch is encoded for and sent by, so an auto-upgrade or fault
// install applies from the next batch, and a batch's first sampled frame
// stamps it (born). An error is f's own, and f is then not in s.
func (n *Node) add(lk *link, s *txScratch, f *ethernet.Frame, sample bool) error {
	if len(s.frames) == 0 {
		s.tr = lk.transport.Load()
		s.room = lk.tmpl.TrainRoom(s.tr.budget)
	}
	if sample && !s.sampled {
		s.born, s.sampled = n.mono(), true
	}
	mark := txMark{tag: f.Tag, sample: sample}
	if rec := bridge.RecordLen(f); f.Tag == 0 && rec <= s.room {
		if s.agg.Len()+rec > s.room || s.agg.Count() == txBatchMax {
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
	n.queue(s, pkt.Datagrams, 1)
	return nil
}

// flush puts a batch on the wire and empties it: cut the open train, seal
// on a tenant link (in transmit order, by the link's one flush, so nonce
// order is wire order), transmit, count, release. A frame is sent iff the
// transport confirmed its last datagram (a train's frames share the fate
// of its last) and only then gets encap_sent, its TX latency sample and
// the wire_tx hop; every other frame lands on tx_error. The flush reads
// the clock once: each sampled frame sent is one sample valued at the wait
// of the batch's oldest (born) — an upper bound on its own, and exact for
// a frame that leaves alone. vnetp_tx_batch_size takes the frames the
// transmit carried.
func (n *Node) flush(lk *link, s *txScratch) {
	if len(s.frames) == 0 {
		return
	}
	n.closeTrain(lk, s)
	if lk.sealer != nil {
		for _, d := range s.dgs {
			bridge.SealDatagram(d, lk.sealer)
		}
		n.metrics.sealSealed.Add(uint64(len(s.dgs)))
	}
	confirmed, _ := n.transmit(lk, s.tr, s.dgs) // the error's frames land on tx_error below
	sent := len(s.frames)
	for sent > 0 && s.frames[sent-1].last >= confirmed {
		sent--
	}
	if lost := len(s.frames) - sent; lost > 0 {
		n.drop(dropTxError, uint64(lost), telemetry.DropDetail{
			Tenant: lk.tenant, Scope: lk.id, Stage: "transmit",
		})
	}
	n.metrics.txBatchSize.Observe(float64(len(s.frames)))
	n.EncapSent.Add(uint64(sent))
	var sampled uint64
	for _, m := range s.frames[:sent] {
		if m.sample {
			sampled++
		}
		if m.tag != 0 {
			n.tracer.Record(m.tag, trace.StageWireTx)
		}
	}
	if sampled > 0 {
		n.metrics.txLatency.ObserveN((n.mono() - s.born).Seconds(), sampled)
	}
	s.release()
}

// combiner is a link's one batch, the live twin of the simulator's
// Iface.txBusy: one flush on the wire at a time. Every Send encodes its
// frame into the pending batch under mu, so encode order is wire order.
// The link's sender swaps the pending batch out under mu, seals and
// flushes it outside, and repeats until nothing is pending. cond.L must
// be set to &mu before use.
type combiner struct {
	mu   sync.Mutex
	cond sync.Cond // on mu: a flush ended

	batch [2]txScratch // batch[cur] pending, the other in flight or idle
	cur   int

	busy    bool // the sender is awake: a Send need not wake it
	sending bool // the sender is flushing, outside mu
	stopped bool // the sender has stopped: nothing will flush again
}

func (c *combiner) pending() *txScratch { return &c.batch[c.cur] }

// depth reports the frames pending: the vnetp_link_tx_queue_depth gauge,
// and what Drain waits out.
func (c *combiner) depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending().frames)
}

// swap takes the pending batch out for the sender to flush, under c.mu.
// Its open train is cut by the flush, outside the lock.
func (c *combiner) swap() *txScratch {
	b := c.pending()
	c.cur ^= 1
	c.sending = true
	return b
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
// datagrams of the transport's budget — in the clear, for the flush to
// seal on a tenant link — and queues them behind those already encoded.
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
	p.CutTrain(&s.agg, n.nextID.Add(1), s.tr.budget, lk.tmpl)
	s.agg.Reset()
	n.queue(s, p.Datagrams, frames)
}

// queue puts encoded datagrams behind what s holds: the last frames
// frames added are sent iff the last datagram is. vnetp_tx_datagram_frames
// counts them here: 0 for each but the last, which completes the frames.
func (n *Node) queue(s *txScratch, dgs [][]byte, frames int) {
	s.dgs = append(s.dgs, dgs...)
	for i := len(s.frames) - frames; i < len(s.frames); i++ {
		s.frames[i].last = len(s.dgs) - 1
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
