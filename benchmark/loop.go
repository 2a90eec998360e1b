package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vnetp/internal/ethernet"
)

// nic is what the traffic engine drives: *overlay.Endpoint for the
// system under test, udpNIC for the bare-socket native bar.
type nic interface {
	Send(*ethernet.Frame) error
	Recv(time.Duration) (*ethernet.Frame, bool)
}

const (
	creditChunk = 16 // frames per credit the sink returns
	// No credit for this long: write the window off. Linux's minimum TCP
	// retransmission timeout. (30 ms was tried: when this VM freezes for
	// 50 ms or more, which it does about once in 50 rounds, the timer
	// has expired by the time the process resumes, the sender reopens a
	// window the receiver was about to credit, and two such reopenings
	// overflow the 512-deep dispatcher ring: loss made by the harness.)
	stallTimeout = 200 * time.Millisecond
	sinkPoll     = 50 * time.Millisecond // sink Recv timeout, so it notices shutdown
	echoTimeout  = 100 * time.Millisecond
	traceEvery   = 64 // traced runs record spans for 1 frame in traceEvery

	// An echo slice is at least this long and holds at least this many
	// round trips, so its 99th percentile has ten samples beyond it.
	echoSliceLen = 100 * time.Millisecond
	echoSliceMin = 1000
)

// checks counts output-check failures. Any nonzero count fails the run
// rather than lowering a number.
type checks struct {
	corrupt      atomic.Uint64 // bad magic, length or byte pattern
	duplicate    atomic.Uint64 // a (flow, seq) delivered twice
	misdelivered atomic.Uint64 // wrong destination MAC or another flow's frame
	canary       atomic.Uint64 // frames seen by endpoints that must stay silent
	sendErrs     atomic.Uint64 // Send returned an error
}

func (c *checks) failures() []string {
	var out []string
	for _, kv := range []struct {
		name string
		n    uint64
	}{
		{"corrupt", c.corrupt.Load()}, {"duplicate", c.duplicate.Load()},
		{"misdelivered", c.misdelivered.Load()}, {"canary", c.canary.Load()},
		{"send_errors", c.sendErrs.Load()},
	} {
		if kv.n > 0 {
			out = append(out, fmt.Sprintf("%s=%d", kv.name, kv.n))
		}
	}
	return out
}

// seqSet remembers which sequence numbers a sink has seen.
type seqSet struct{ bits []uint64 }

// maxSeq bounds the set: no run sends this many frames on one flow, so
// a larger seq is corruption, not a reason to allocate.
const maxSeq = 1 << 31

// add records seq and reports whether it was new.
func (s *seqSet) add(seq uint64) bool {
	w := int(seq >> 6)
	for len(s.bits) <= w {
		s.bits = append(s.bits, 0)
	}
	m := uint64(1) << (seq & 63)
	if s.bits[w]&m != 0 {
		return false
	}
	s.bits[w] |= m
	return true
}

// verify checks one delivered frame end to end: addressed to this sink,
// intact, this flow's, and not seen before.
func verify(f *ethernet.Frame, dst ethernet.MAC, flow int, seen *seqSet, c *checks) (seq uint64, ok bool) {
	gotFlow, seq, good := checkPayload(f.Payload)
	switch {
	case !good || seq >= maxSeq:
		c.corrupt.Add(1)
	case f.Dst != dst || gotFlow != flow:
		c.misdelivered.Add(1)
	case !seen.add(seq):
		c.duplicate.Add(1)
	default:
		return seq, true
	}
	return seq, false
}

// Raw span material, one record per sampled frame, joined into spans
// when the trace file is written. Times are ns since the round's clock.
type sendRec struct {
	seq    uint64
	t0, t1 int64 // Send call, Send return
}
type recvRec struct {
	seq uint64
	t   int64 // sink Recv return
}

// flow is one closed-loop flow: a sender goroutine on tx, a sink
// goroutine on rx, and the credit channel between them.
type flow struct {
	id  int
	tx  nic
	rx  nic
	gen *generator
	dst ethernet.MAC

	win     window
	credits chan int
	sent    atomic.Uint64

	_         [64]byte // keep the sink's counters off the sender's cache line
	delivered atomic.Uint64
	bytes     atomic.Uint64
	seen      seqSet

	sends []sendRec // sender-owned
	recvs []recvRec // sink-owned
}

// stream runs a set of flows as a closed loop until stopped.
type stream struct {
	flows     []*flow
	checks    *checks
	clock     time.Time
	traced    bool
	measuring atomic.Bool // spans are recorded only inside the timed window

	firstAt   atomic.Int64 // ns since clock of the first delivery, 0 = none yet
	stopSend  chan struct{}
	sinksDone atomic.Bool
	senders   sync.WaitGroup
	sinks     sync.WaitGroup
}

func newStream(flows []*flow, c *checks, clock time.Time, traced bool) *stream {
	for _, fl := range flows {
		// Deep enough for every credit a full window plus its stalled
		// predecessors can produce; the sink never blocks on it.
		fl.credits = make(chan int, 1024)
		if traced {
			fl.sends = make([]sendRec, 0, 1<<13)
			fl.recvs = make([]recvRec, 0, 1<<13)
		}
	}
	return &stream{flows: flows, checks: c, clock: clock, traced: traced, stopSend: make(chan struct{})}
}

func (s *stream) start() {
	for _, fl := range s.flows {
		fl := fl
		s.sinks.Add(1)
		go func() { defer s.sinks.Done(); s.sink(fl) }()
	}
	for _, fl := range s.flows {
		fl := fl
		s.senders.Add(1)
		go func() { defer s.senders.Done(); s.sender(fl) }()
	}
}

func (s *stream) sender(fl *flow) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		for fl.win.full() {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(stallTimeout)
			select {
			case n := <-fl.credits:
				fl.win.credit(n)
			case <-timer.C:
				fl.win.stall()
			case <-s.stopSend:
				return
			}
		}
		select {
		case <-s.stopSend:
			return
		default:
		}
		f := fl.gen.next()
		seq := fl.gen.seq - 1
		sampled := s.traced && seq%traceEvery == 0 && s.measuring.Load()
		var t0 time.Duration
		if sampled {
			t0 = time.Since(s.clock)
		}
		if err := fl.tx.Send(f); err != nil {
			s.checks.sendErrs.Add(1)
		}
		if sampled {
			fl.sends = append(fl.sends, sendRec{seq, int64(t0), int64(time.Since(s.clock))})
		}
		fl.sent.Add(1)
		fl.win.sent()
	}
}

func (s *stream) sink(fl *flow) {
	pending := 0
	for {
		f, ok := fl.rx.Recv(sinkPoll)
		if !ok {
			if s.sinksDone.Load() {
				return
			}
			continue
		}
		seq, good := verify(f, fl.dst, fl.id, &fl.seen, s.checks)
		if !good {
			continue
		}
		if s.traced && seq%traceEvery == 0 && s.measuring.Load() {
			fl.recvs = append(fl.recvs, recvRec{seq, int64(time.Since(s.clock))})
		}
		fl.bytes.Add(uint64(len(f.Payload)))
		if fl.delivered.Add(1) == 1 {
			s.firstAt.CompareAndSwap(0, int64(time.Since(s.clock)))
		}
		if pending++; pending == creditChunk {
			select {
			case fl.credits <- pending:
			default:
			}
			pending = 0
		}
	}
}

// totals sums the flows' counters. Reads race with the goroutines by at
// most the frames in flight, which is what a mark in a live stream means.
func (s *stream) totals() (sent, delivered, bytes uint64) {
	for _, fl := range s.flows {
		sent += fl.sent.Load()
		delivered += fl.delivered.Load()
		bytes += fl.bytes.Load()
	}
	return
}

// sample is one reading of a live stream's counters and the process's
// resource usage.
type sample struct {
	at                     time.Time
	sent, delivered, bytes uint64
	ru                     syscall.Rusage
}

func (s *stream) sample() sample {
	var sm sample
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &sm.ru)
	sm.sent, sm.delivered, sm.bytes = s.totals()
	sm.at = time.Now()
	return sm
}

// cpuS is the process's user and system CPU seconds at the sample.
func (sm *sample) cpuS() (user, sys float64) {
	return float64(sm.ru.Utime.Sec) + float64(sm.ru.Utime.Usec)/1e6,
		float64(sm.ru.Stime.Sec) + float64(sm.ru.Stime.Usec)/1e6
}

// The timed window of a stream is sampled every sampleEvery, and
// throughput is read from sliding slices of sliceSamples consecutive
// samples: ~200 ms. Measured here on six runs per length: shorter slices
// pick out lucky moments (no GC cycle, a flow cache just refilled) and
// repeated to 3 to 5 %, 200 ms to 2 to 3 %, and longer ones start to
// straddle this machine's slow spells.
const (
	sampleEvery  = 50 * time.Millisecond
	sliceSamples = 4
)

// sampleFor samples the running stream for dur.
func (s *stream) sampleFor(dur time.Duration) []sample {
	out := []sample{s.sample()}
	for end := out[0].at.Add(dur); time.Now().Before(end); {
		time.Sleep(sampleEvery)
		out = append(out, s.sample())
	}
	return out
}

// bestSlice returns the best ~200 ms slice of a sampled window: payload
// MB per wall-second, frames per wall-second, and frames per process
// CPU-second (each its own best).
func bestSlice(samples []sample) (mbps, fps, fpc float64) {
	for i := sliceSamples; i < len(samples); i++ {
		from, to := &samples[i-sliceSamples], &samples[i]
		if dt := to.at.Sub(from.at).Seconds(); dt > 0 {
			mbps = max(mbps, float64(to.bytes-from.bytes)/1e6/dt)
			fps = max(fps, float64(to.delivered-from.delivered)/dt)
		}
		fu, fs := from.cpuS()
		tu, ts := to.cpuS()
		if dc := tu + ts - fu - fs; dc > 0 {
			fpc = max(fpc, float64(to.delivered-from.delivered)/dc)
		}
	}
	return
}

// stopAndDrain stops the senders, waits for in-flight frames to land
// (until everything sent is delivered, or nothing new arrives for
// quiet), then stops the sinks. After it returns the counters are final.
func (s *stream) stopAndDrain(quiet time.Duration) {
	close(s.stopSend)
	s.senders.Wait()
	last, lastAt := uint64(0), time.Now()
	for {
		sent, delivered, _ := s.totals()
		if delivered >= sent {
			break
		}
		if delivered != last {
			last, lastAt = delivered, time.Now()
		} else if time.Since(lastAt) > quiet {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.sinksDone.Store(true)
	s.sinks.Wait()
}

func (s *stream) stalls() (n int) {
	for _, fl := range s.flows {
		n += fl.win.stalls
	}
	return
}

// echoRec and turnRec are the echo phase's raw span material.
type echoRec struct {
	seq        uint64
	t0, t1, t3 int64 // Send call, Send return, reply Recv return
}
type turnRec struct {
	seq    uint64
	r0, r1 int64 // echo endpoint Recv return, its Send return
}

type echoResult struct {
	sent, replies   uint64    // requests sent, replies the client got back
	srvRecv, srvErr uint64    // requests the echo endpoint saw / failed to reflect
	rtts            []float64 // µs, ascending
	// The phase cut into slices of at least echoSliceLen and
	// echoSliceMin samples: each slice's median and 99th percentile.
	sliceP50, sliceP99 []float64
	recs               []echoRec
	turns              []turnRec
}

// runEcho is the ping-pong phase: one frame outstanding, zero think
// time, answered by an echo endpoint that swaps the MACs.
func runEcho(cli, srv nic, gen *generator, dur time.Duration, c *checks, clock time.Time, traced bool) echoResult {
	var res echoResult
	var srvRecv, srvErr atomic.Uint64
	var stop atomic.Bool
	var wg sync.WaitGroup
	var turns []turnRec
	wg.Add(1)
	go func() {
		defer wg.Done()
		var seen seqSet
		for !stop.Load() {
			f, ok := srv.Recv(sinkPoll)
			if !ok {
				continue
			}
			r0 := time.Since(clock)
			seq, good := verify(f, echoSrvMAC, echoFlow, &seen, c)
			if !good {
				continue
			}
			srvRecv.Add(1)
			f.Dst, f.Src = f.Src, f.Dst
			if err := srv.Send(f); err != nil {
				srvErr.Add(1)
				c.sendErrs.Add(1)
			}
			if traced && seq%traceEvery == 0 {
				turns = append(turns, turnRec{seq, int64(r0), int64(time.Since(clock))})
			}
		}
	}()

	var seen seqSet
	res.rtts = make([]float64, 0, 1<<17)
	sliceFrom, sliceAt := 0, time.Now()
	closeSlice := func() {
		sl := append([]float64(nil), res.rtts[sliceFrom:]...)
		sort.Float64s(sl)
		res.sliceP50 = append(res.sliceP50, percentile(sl, 50))
		res.sliceP99 = append(res.sliceP99, percentile(sl, 99))
		sliceFrom, sliceAt = len(res.rtts), time.Now()
	}
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
		f := gen.next()
		want := gen.seq - 1
		t0 := time.Since(clock)
		if err := cli.Send(f); err != nil {
			c.sendErrs.Add(1)
		}
		t1 := time.Since(clock)
		res.sent++
		for {
			r, ok := cli.Recv(echoTimeout)
			if !ok {
				break // lost: the request, the reply, or the echo endpoint
			}
			seq, good := verify(r, echoCliMAC, echoFlow, &seen, c)
			if !good {
				continue
			}
			res.replies++
			if seq != want {
				continue // a reply that outlived its timeout
			}
			t3 := time.Since(clock)
			res.rtts = append(res.rtts, float64(t3-t0)/1e3)
			if len(res.rtts)-sliceFrom >= echoSliceMin && len(res.rtts)%64 == 0 && time.Since(sliceAt) >= echoSliceLen {
				closeSlice()
			}
			if traced && seq%traceEvery == 0 {
				res.recs = append(res.recs, echoRec{seq, int64(t0), int64(t1), int64(t3)})
			}
			break
		}
	}
	if len(res.sliceP50) == 0 && len(res.rtts) > 0 {
		closeSlice() // a phase too short for one full slice is one slice
	}
	// Drain: a reply that outlived its timeout is late, not lost.
	for tries := 0; res.replies < res.sent && tries < 3; tries++ {
		if r, ok := cli.Recv(echoTimeout); ok {
			if _, good := verify(r, echoCliMAC, echoFlow, &seen, c); good {
				res.replies++
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	res.srvRecv, res.srvErr = srvRecv.Load(), srvErr.Load()
	res.turns = turns
	sort.Float64s(res.rtts)
	return res
}
