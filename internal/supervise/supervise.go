// Package supervise keeps the node's long-lived datapath goroutines
// alive: every dispatcher worker, per-link TX sender, heartbeat monitor
// and reassembly evictor runs under a Supervisor that contains panics
// (one crashing worker must not take the node down), relaunches the
// component with capped, jittered exponential backoff, and watches a
// progress heartbeat so a stalled loop — stuck on a hung syscall or a
// livelocked dependency — is detected and superseded by a fresh
// instance. The model follows the operated-infrastructure argument of
// NetKernel and the self-healing behavior IPOP demonstrates for virtual
// networks: the overlay is a service that recovers without operator
// action, and every recovery is counted (vnetp_panics_recovered_total,
// vnetp_component_restarts_total, vnetp_watchdog_stalls_total) and
// logged with a component label so chaos tests and dashboards can
// observe it.
//
// Goroutines cannot be killed, so a "restart" of a stalled component is
// a supersession: the stuck instance's quit channel is closed (it exits
// whenever it unblocks and notices) and a replacement instance is
// launched over the same shared state — rings and reassembly shards
// survive; only the loop goroutine is replaced.
package supervise

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vnetp/internal/telemetry"
)

// Config tunes a Supervisor.
type Config struct {
	// BackoffMin is the first restart delay after a panic. Default 5ms.
	BackoffMin time.Duration
	// BackoffMax caps the exponential restart backoff. Default 1s.
	BackoffMax time.Duration
	// BackoffReset: an instance that ran healthy at least this long
	// resets its worker's backoff to BackoffMin. Default 5s.
	BackoffReset time.Duration
	// StallTimeout is how long a component may sit inside one work item
	// (between Working and Idle) before the watchdog declares it stalled
	// and supersedes it. Default 2s; negative disables the watchdog.
	StallTimeout time.Duration
	// WatchdogInterval is the watchdog's check period. Default
	// StallTimeout/4 (at least 10ms).
	WatchdogInterval time.Duration
}

func (c *Config) normalize() {
	if c.BackoffMin <= 0 {
		c.BackoffMin = 5 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = time.Second
		if c.BackoffMax < c.BackoffMin {
			c.BackoffMax = c.BackoffMin
		}
	}
	if c.BackoffReset <= 0 {
		c.BackoffReset = 5 * time.Second
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 2 * time.Second
	}
	if c.WatchdogInterval <= 0 {
		c.WatchdogInterval = c.StallTimeout / 4
		if c.WatchdogInterval < 10*time.Millisecond {
			c.WatchdogInterval = 10 * time.Millisecond
		}
	}
}

// Metrics are the counter families recoveries land in, labeled by
// component name. Any nil field is simply not counted, so unit tests
// can run a Supervisor without a registry.
type Metrics struct {
	// Panics counts panics recovered per component
	// (vnetp_panics_recovered_total).
	Panics *telemetry.CounterVec
	// Restarts counts instance relaunches per component, whether after
	// a panic or a watchdog supersession
	// (vnetp_component_restarts_total).
	Restarts *telemetry.CounterVec
	// Stalls counts watchdog stall detections per component
	// (vnetp_watchdog_stalls_total).
	Stalls *telemetry.CounterVec
}

// Supervisor owns a set of named workers and the watchdog that guards
// their progress.
type Supervisor struct {
	name string
	cfg  Config
	log  *slog.Logger
	m    Metrics

	// epoch anchors the stall clock (stamp): busy stamps and sweeps are
	// both read on the monotonic clock, so a step of the wall clock can
	// neither fake a stall nor hide one.
	epoch time.Time

	mu      sync.Mutex
	workers map[string]*Worker
	stopped bool
	quit    chan struct{}
	wg      sync.WaitGroup
}

// New builds a Supervisor. log may be nil (discard); see Metrics for
// counter wiring.
func New(name string, cfg Config, log *slog.Logger, m Metrics) *Supervisor {
	cfg.normalize()
	if log == nil {
		log = slog.New(nopHandler{})
	}
	s := &Supervisor{
		name:    name,
		cfg:     cfg,
		log:     log,
		m:       m,
		workers: make(map[string]*Worker),
		quit:    make(chan struct{}),
		epoch:   time.Now(),
	}
	if cfg.StallTimeout > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return s
}

// Worker is one supervised component: a name, a run function, and the
// currently live Instance executing it.
type Worker struct {
	sup  *Supervisor
	name string
	run  func(*Instance)

	// guarded by sup.mu
	cur     *Instance
	backoff time.Duration
	started time.Time
	stopped bool

	restarts atomic.Uint64

	// chaos injection (test hooks): armed faults fire at the component's
	// next Working call.
	panicArmed atomic.Bool
	stallNanos atomic.Int64
}

// Name returns the worker's component name.
func (w *Worker) Name() string { return w.name }

// Restarts reports how many times this worker has been relaunched
// (panic recoveries plus watchdog supersessions).
func (w *Worker) Restarts() uint64 { return w.restarts.Load() }

// InjectPanic arms a one-shot chaos fault: the component's next Working
// call panics. The supervisor recovers and restarts it — this is the
// runtime-level analogue of a faultnet drop conduit.
func (w *Worker) InjectPanic() { w.panicArmed.Store(true) }

// InjectStall arms a one-shot chaos fault: the component's next Working
// call blocks for d (or until the instance is superseded or stopped),
// simulating a hung dependency so the watchdog path can be exercised
// under live traffic.
func (w *Worker) InjectStall(d time.Duration) { w.stallNanos.Store(int64(d)) }

// Stop signals the worker's live instance to exit and removes the
// worker from the supervisor. It does not wait: the instance exits at
// its next quit check (Supervisor.Stop waits for everything).
func (w *Worker) Stop() {
	s := w.sup
	s.mu.Lock()
	w.stopped = true
	inst := w.cur
	if s.workers[w.name] == w {
		delete(s.workers, w.name)
	}
	s.mu.Unlock()
	if inst != nil {
		inst.close()
	}
}

// Instance is one live execution of a worker's run function. The run
// function must return promptly once Quit is closed, and should bracket
// each unit of work with Working / Idle so the watchdog can tell a
// blocked-waiting loop (idle: fine) from a stuck one (working too long:
// stalled).
type Instance struct {
	w        *Worker
	quit     chan struct{}
	quitOnce sync.Once
	busy     atomic.Int64 // the stamp the current work item started at; 0 = idle
}

// Quit is closed when this instance must exit: supervisor or worker
// stop, or the watchdog superseding a stalled instance.
func (i *Instance) Quit() <-chan struct{} { return i.quit }

func (i *Instance) close() { i.quitOnce.Do(func() { close(i.quit) }) }

// Working marks the start of one unit of work (arming the stall clock)
// and fires any chaos fault a test armed on the worker. Its cost while
// no fault is armed is three atomic operations.
func (i *Instance) Working() {
	i.busy.Store(i.w.sup.stamp())
	w := i.w
	if w.panicArmed.CompareAndSwap(true, false) {
		panic(fmt.Sprintf("supervise: injected panic in %q", w.name))
	}
	if d := w.stallNanos.Swap(0); d > 0 {
		t := time.NewTimer(time.Duration(d))
		defer t.Stop()
		select {
		case <-t.C:
		case <-i.quit:
		}
	}
}

// Idle marks the end of the current unit of work (the progress
// heartbeat the watchdog reads).
func (i *Instance) Idle() { i.busy.Store(0) }

// Go launches run as a supervised component under the given name. run
// receives the live Instance; it must select on Instance.Quit and
// return when it closes. A panic inside run is recovered, counted, and
// run is relaunched after backoff; a clean return retires the worker
// (no restart). Returns the Worker handle (for Stop and chaos
// injection). Reusing a name replaces the map entry — the caller must
// Stop the previous worker itself.
func (s *Supervisor) Go(name string, run func(*Instance)) *Worker {
	w := &Worker{sup: s, name: name, run: run}
	s.mu.Lock()
	if s.stopped {
		w.stopped = true
		s.mu.Unlock()
		return w
	}
	s.workers[name] = w
	w.started = time.Now()
	s.launchLocked(w, 0)
	s.mu.Unlock()
	return w
}

// Worker looks up a live worker by component name (nil if absent).
func (s *Supervisor) Worker(name string) *Worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers[name]
}

// Components lists the live component names (for status surfaces and
// tests).
func (s *Supervisor) Components() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.workers))
	for name := range s.workers {
		out = append(out, name)
	}
	return out
}

// Stop signals every instance and the watchdog, then waits for all
// supervised goroutines to exit. Idempotent.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.quit)
		for _, w := range s.workers {
			w.stopped = true
			if w.cur != nil {
				w.cur.close()
			}
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// launchLocked starts a fresh instance of w after delay. Caller holds
// s.mu and has already decided this launch is valid.
func (s *Supervisor) launchLocked(w *Worker, delay time.Duration) {
	inst := &Instance{w: w, quit: make(chan struct{})}
	w.cur = inst
	s.wg.Add(1)
	go s.runInstance(w, inst, delay)
}

// runInstance is the supervised goroutine: optional backoff delay, the
// run function under a recover, then the restart decision.
func (s *Supervisor) runInstance(w *Worker, inst *Instance, delay time.Duration) {
	defer s.wg.Done()
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-inst.quit:
			t.Stop()
			return
		case <-s.quit:
			t.Stop()
			return
		}
	}
	launched := time.Now()
	if !s.runOnce(w, inst) {
		// Clean return: the component finished on its own (stop, or a
		// naturally terminating loop like a socket reader whose socket
		// closed). Retire it — restarting a cleanly-exited loop would
		// spin.
		return
	}
	// Panicked. Relaunch with capped jittered backoff — unless this
	// instance was already superseded or stopped in the meantime.
	s.mu.Lock()
	if w.stopped || s.stopped || w.cur != inst {
		s.mu.Unlock()
		return
	}
	if time.Since(launched) >= s.cfg.BackoffReset {
		w.backoff = 0
	}
	if w.backoff == 0 {
		w.backoff = s.cfg.BackoffMin
	} else {
		w.backoff *= 2
		if w.backoff > s.cfg.BackoffMax {
			w.backoff = s.cfg.BackoffMax
		}
	}
	d := jitter(w.backoff)
	w.started = time.Now()
	w.restarts.Add(1)
	s.launchLocked(w, d)
	s.mu.Unlock()
	count(s.m.Restarts, w.name)
	s.log.Info("supervised component restarting",
		"supervisor", s.name, "component", w.name, "backoff", d)
}

// runOnce executes one instance under a recover; reports whether it
// panicked.
func (s *Supervisor) runOnce(w *Worker, inst *Instance) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			count(s.m.Panics, w.name)
			s.log.Error("supervised component panicked",
				"supervisor", s.name, "component", w.name,
				"panic", fmt.Sprint(r), "stack", string(debug.Stack()))
		}
	}()
	w.run(inst)
	return false
}

// watchdog periodically sweeps the workers for instances stuck inside
// one unit of work longer than StallTimeout and supersedes them.
func (s *Supervisor) watchdog() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.WatchdogInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.sweep()
		}
	}
}

// stamp reads the stall clock: the time since the supervisor was
// created, on the monotonic clock.
func (s *Supervisor) stamp() int64 { return stampAfter(time.Since(s.epoch)) }

// stampAfter is the stamp of a moment elapsed after the supervisor's
// creation: its nanoseconds plus one, so that no stamp is 0 (idle).
func stampAfter(elapsed time.Duration) int64 { return int64(elapsed) + 1 }

func (s *Supervisor) sweep() {
	now := s.stamp()
	type stalled struct {
		name string
		age  time.Duration
	}
	var hits []stalled
	s.mu.Lock()
	for _, w := range s.workers {
		if w.stopped || w.cur == nil {
			continue
		}
		inst := w.cur
		busy := inst.busy.Load()
		if busy == 0 || now-busy < int64(s.cfg.StallTimeout) {
			continue
		}
		// Stalled: abandon this instance (it exits when it unblocks)
		// and launch a replacement over the same shared state.
		inst.close()
		w.started = time.Now()
		w.restarts.Add(1)
		s.launchLocked(w, 0)
		hits = append(hits, stalled{w.name, time.Duration(now - busy)})
	}
	s.mu.Unlock()
	for _, h := range hits {
		count(s.m.Stalls, h.name)
		count(s.m.Restarts, h.name)
		s.log.Warn("supervised component stalled; superseding",
			"supervisor", s.name, "component", h.name, "stalled_for", h.age)
	}
}

// jitter spreads a backoff over [d/2, 3d/2) so restarting components
// don't thundering-herd on a shared dependency.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

func count(v *telemetry.CounterVec, component string) {
	if v != nil {
		v.With(component).Inc()
	}
}

// nopHandler discards log records (a nil-logger default without
// importing the logging package, which would be an odd dependency
// direction for a leaf utility).
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }
