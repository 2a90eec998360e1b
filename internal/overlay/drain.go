// Graceful node shutdown. Close tears the node down immediately —
// whatever a link's sender has pending at that instant is discarded (on
// tx_teardown), which is the right behavior for a crash path but not for
// an operated service being restarted or migrated (ROADMAP north star: an
// overlay for millions of users must roll nodes without losing the
// traffic it already accepted).
// Drain is the operated path: stop admitting new local frames, let the
// senders flush everything already pending under a caller-supplied
// deadline (the receive workers hold nothing between reads), then
// quiesce the workers. vnetpd wires it into SIGTERM (-drain-timeout).
package overlay

import (
	"context"
	"errors"
	"time"
)

// ErrDraining is returned by Endpoint.Send/SendBatch once Drain has
// begun: the node no longer admits new local frames (forwarding of
// frames already in flight, and of remote traffic, continues until the
// queues are empty or the deadline expires).
var ErrDraining = errors.New("overlay: node draining")

// DrainStats summarizes what a Drain accomplished, for the daemon's
// shutdown log line.
type DrainStats struct {
	// FramesFlushed is how many pending frames (links' pending batches)
	// drained to completion during the grace period.
	FramesFlushed uint64
	// FramesDropped is how many the final teardown discarded: what the
	// links' senders still had pending when the deadline expired, charged
	// to tx_teardown as Close stops them.
	FramesDropped uint64
	// PartialsDropped counts incomplete reassemblies discarded at
	// quiesce (their missing fragments can never arrive once the node
	// is gone).
	PartialsDropped uint64
	// Elapsed is how long the drain took, teardown included.
	Elapsed time.Duration
}

// queued sums the frames pending on every link. The receive side holds
// nothing between reads: a worker finishes what it read before it reads
// again.
func (n *Node) queued() uint64 {
	var q uint64
	for _, lk := range n.topo.Load().links {
		q += uint64(lk.comb.depth())
	}
	return q
}

// pendingReassemblies sums incomplete reassembly entries across shards.
func (n *Node) pendingReassemblies() uint64 {
	var p uint64
	for _, s := range n.shards {
		s.mu.Lock()
		p += uint64(s.reasm.Pending())
		s.mu.Unlock()
	}
	return p
}

// Drain gracefully shuts the node down: admission stops immediately
// (Send returns ErrDraining), the TX senders and receive workers keep
// running until nothing is pending or ctx expires, and the node is
// then closed. Frames the node had accepted before Drain began are not
// lost unless the deadline forces it — the zero-loss SIGTERM property
// vnetpd builds on. Returns what was flushed and what the deadline
// abandoned; the error is ctx's if the deadline cut the flush short,
// or Close's.
func (n *Node) Drain(ctx context.Context) (DrainStats, error) {
	start := time.Now()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return DrainStats{}, errors.New("overlay: node closed")
	}
	n.mu.Unlock()
	if !n.draining.CompareAndSwap(false, true) {
		return DrainStats{}, errors.New("overlay: drain already in progress")
	}
	n.log.Info("drain started", "node", n.name, "queued", n.queued())

	// Flush phase: poll until nothing is pending (twice, a settle
	// interval apart, so a batch the sender has swapped out but not yet
	// written also makes it out) or the deadline expires.
	const settle = time.Millisecond
	pending := n.queued()
	var flushErr error
	emptyStreak := 0
	for {
		if ctx.Err() != nil {
			flushErr = ctx.Err()
			break
		}
		if n.queued() == 0 {
			emptyStreak++
			if emptyStreak >= 2 {
				break
			}
		} else {
			emptyStreak = 0
		}
		select {
		case <-ctx.Done():
			flushErr = ctx.Err()
		case <-time.After(settle):
		}
		if flushErr != nil {
			break
		}
	}

	var st DrainStats
	if remaining := n.queued(); pending > remaining {
		st.FramesFlushed = pending - remaining
	}
	st.PartialsDropped = n.pendingReassemblies()

	// Close stops the senders and charges what each left pending to
	// tx_teardown (stopSender): accepted frames that never reached the
	// wire, exactly what FramesDropped promises to report.
	dropsBase := n.ledger.Count(dropTxTeardown)
	closeErr := n.Close()
	st.FramesDropped = n.ledger.Count(dropTxTeardown) - dropsBase
	st.Elapsed = time.Since(start)
	if flushErr == nil {
		flushErr = closeErr
	}
	n.log.Info("drain complete", "node", n.name,
		"frames_flushed", st.FramesFlushed,
		"frames_dropped", st.FramesDropped,
		"partials_dropped", st.PartialsDropped,
		"elapsed", st.Elapsed)
	return st, flushErr
}

// Draining reports whether Drain has begun (admission stopped).
func (n *Node) Draining() bool { return n.draining.Load() }
