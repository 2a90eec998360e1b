package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vnetp/internal/control"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/telemetry"
)

// roundSpec is what the harness hands a child process: one round of one
// workload.
type roundSpec struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmup_s"`
	StreamS    float64 `json:"stream_s"`
	EchoS      float64 `json:"echo_s"`
	Traced     bool    `json:"traced"`
	TraceFile  string  `json:"trace_file,omitempty"`  // write this round's spans here
	ProbeIters int     `json:"probe_iters,omitempty"` // >0: no traffic phases; run the layer probes instead
	// StartUnixNano is when the parent started this child: set-up is
	// timed from there, so process start and package init are inside it.
	StartUnixNano int64 `json:"start_unix_nano"`
}

// roundResult is what the child reports back. Layers carries every
// per-layer measurement this round produced, by metric name; the parent
// aggregates them across rounds (metrics.go says how).
type roundResult struct {
	Error    string   `json:"error,omitempty"`
	Failures []string `json:"failures,omitempty"` // output checks that failed

	SetupS float64 `json:"setup_s"`
	Frames float64 `json:"frames"` // delivered to node B's endpoints inside the stream window
	Bytes  float64 `json:"bytes"`  // their payload bytes
	WallS  float64 `json:"wall_s"` // stream window, wall clock
	// The window's best ~200 ms slice: payload MB per wall-second, and
	// frames per process CPU-second.
	BestSliceMBps float64 `json:"best_slice_MBps"`
	BestSliceFPC  float64 `json:"best_slice_frames_per_cpu_s"`
	// The echo phase cut into slices (>= 100 ms and >= 1000 round trips
	// each): every slice's median and 99th percentile.
	SliceRTTp50 []float64 `json:"slice_rtt_p50_us"`
	SliceRTTp99 []float64 `json:"slice_rtt_p99_us"`
	CPUS        float64   `json:"cpu_s"` // stream window, process user+sys
	RTTp50      float64   `json:"rtt_p50_us"`
	RTTp99      float64   `json:"rtt_p99_us"`
	Echoes      int       `json:"echoes"` // RTT samples behind the percentiles
	Sent        uint64    `json:"sent"`   // frames handed to Send: warm-up, stream and echo requests
	Lost        uint64    `json:"lost"`   // of those, not delivered intact after the drain

	Layers map[string]float64 `json:"layers"`
}

// topo is the system under test: two live nodes on loopback UDP joined
// by one link each way.
type topo struct {
	a, b     *overlay.Node
	src      []*overlay.Endpoint // node A, one per flow
	sink     []*overlay.Endpoint // node B, one per flow
	echoCli  *overlay.Endpoint   // node A
	echoSrv  *overlay.Endpoint   // node B
	canaries []*overlay.Endpoint // node B, must never receive
	daemon   *control.Daemon     // node A's console, churn workloads only
	client   *control.Client
}

func (t *topo) close() {
	if t.daemon != nil {
		t.daemon.Close()
	}
	if t.a != nil {
		t.a.Close()
	}
	if t.b != nil {
		t.b.Close()
	}
}

// seedKey derives the sealed workload's tenant key from the seed.
func seedKey(seed int64) []byte {
	r := newRNG(seed, 0x6b6579)
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(r.next())
	}
	return key
}

func linkRoute(dst ethernet.MAC, link string, tenant uint32) core.Route {
	return core.Route{
		DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: link}, Tenant: tenant,
	}
}

// buildTopo constructs everything setup_s pays for: nodes, tenant keys,
// endpoints, links, routes, and the control console where the workload
// uses one.
func buildTopo(wl workload, seed int64, flows int) (*topo, error) {
	t := &topo{}
	cfg := overlay.NodeConfig{}
	cfg.Adaptive.Enabled = wl.Adaptive
	var err error
	if t.a, err = overlay.NewNodeWithConfig("e2e-a", "127.0.0.1:0", cfg); err != nil {
		return t, fmt.Errorf("no loopback UDP on this host: %w", err)
	}
	if t.b, err = overlay.NewNodeWithConfig("e2e-b", "127.0.0.1:0", cfg); err != nil {
		return t, fmt.Errorf("no loopback UDP on this host: %w", err)
	}
	tn := wl.Tenant
	if tn != 0 {
		key := seedKey(seed)
		for _, n := range []*overlay.Node{t.a, t.b} {
			if err := n.AddTenant(tn, key); err != nil {
				return t, err
			}
		}
	}
	attach := func(n *overlay.Node, name string, mac ethernet.MAC, tenant uint32) (*overlay.Endpoint, error) {
		return n.AttachEndpointTenant(name, mac, ethernet.JumboMTU, tenant)
	}
	for f := 0; f < flows; f++ {
		ep, err := attach(t.a, fmt.Sprintf("src%d", f), srcMAC(f), tn)
		if err != nil {
			return t, err
		}
		t.src = append(t.src, ep)
		if ep, err = attach(t.b, fmt.Sprintf("sink%d", f), sinkMAC(f), tn); err != nil {
			return t, err
		}
		t.sink = append(t.sink, ep)
	}
	if t.echoCli, err = attach(t.a, "echo-cli", echoCliMAC, tn); err != nil {
		return t, err
	}
	if t.echoSrv, err = attach(t.b, "echo-srv", echoSrvMAC, tn); err != nil {
		return t, err
	}
	// Canaries: sink 0's MAC in a different tenant, and an address in the
	// traffic's own tenant that nothing sends to.
	for _, c := range []struct {
		name   string
		mac    ethernet.MAC
		tenant uint32
	}{{"canary-tenant", sinkMAC(0), tn + 2}, {"canary-mac", canaryMAC, tn}} {
		ep, err := attach(t.b, c.name, c.mac, c.tenant)
		if err != nil {
			return t, err
		}
		t.canaries = append(t.canaries, ep)
	}
	if err := t.a.AddLinkTenant("to-b", t.b.Addr(), "udp", tn); err != nil {
		return t, err
	}
	if err := t.b.AddLinkTenant("to-a", t.a.Addr(), "udp", tn); err != nil {
		return t, err
	}
	for f := 0; f < flows; f++ {
		if err := t.a.AddRoute(linkRoute(sinkMAC(f), "to-b", tn)); err != nil {
			return t, err
		}
	}
	if err := t.a.AddRoute(linkRoute(echoSrvMAC, "to-b", tn)); err != nil {
		return t, err
	}
	if err := t.b.AddRoute(linkRoute(echoCliMAC, "to-a", tn)); err != nil {
		return t, err
	}
	if wl.ChurnHz > 0 {
		if t.daemon, err = control.NewDaemon(t.a, "127.0.0.1:0"); err != nil {
			return t, err
		}
		t.client = control.NewClient(t.daemon.Addr(), control.ClientConfig{})
	}
	return t, nil
}

// generatorRing sizes a flow's frame ring for the node's transmit leg
// (see newGenerator): the batched leg holds frames in a 1024-deep TX
// ring plus one 32-frame batch.
func generatorRing(wl workload) int {
	if wl.Adaptive {
		return 2*wl.Window + 1024 + 32
	}
	return 2 * wl.Window
}

// churner issues ADD ROUTE / DEL ROUTE for unrelated MACs through the
// node's real control console; each op bumps the flow epoch.
type churner struct {
	client *control.Client
	hz     int
	clock  time.Time
	stop   chan struct{}
	wg     sync.WaitGroup
	errs   atomic.Uint64
	ops    []opRec // owned by the goroutine until wait returns
}

type opRec struct {
	line   string
	t0, t1 int64
}

func (c *churner) start() {
	c.stop = make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(time.Second / time.Duration(c.hz))
		defer tick.Stop()
		for k := 0; ; k++ {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			verb := "ADD"
			if k%2 == 1 {
				verb = "DEL"
			}
			line := fmt.Sprintf("%s ROUTE %s any link to-b", verb, ethernet.LocalMAC(churnMACBase+uint32(k/2)))
			t0 := time.Since(c.clock)
			if _, err := c.client.Do(line); err != nil {
				c.errs.Add(1)
			}
			c.ops = append(c.ops, opRec{line, int64(t0), int64(time.Since(c.clock))})
		}
	}()
}

func (c *churner) wait() { close(c.stop); c.wg.Wait() }

// mark is a snapshot of every counter the stream window is measured
// between.
type mark struct {
	sample
	mem                    runtime.MemStats
	fcHits, fcMisses, fcEv uint64
	rxBatchSum             float64
	rxBatchCount           uint64
}

// takeMark snapshots the counters. The sample (clock, frame counters,
// rusage) is read on the window's side of the slower bookkeeping
// (memstats, telemetry gather), so neither mark's own cost lands inside
// the window.
func takeMark(s *stream, t *topo, opening bool) mark {
	var m mark
	if !opening {
		m.sample = s.sample()
	}
	runtime.ReadMemStats(&m.mem)
	for _, n := range []*overlay.Node{t.a, t.b} {
		h, mi, ev, _ := n.FlowCacheStats()
		m.fcHits, m.fcMisses, m.fcEv = m.fcHits+h, m.fcMisses+mi, m.fcEv+ev
	}
	if fam := family(t.b.Telemetry().Gather(), "vnetp_rx_batch_size"); fam != nil && len(fam.Samples) > 0 {
		m.rxBatchSum, m.rxBatchCount = fam.Samples[0].Hist.Sum, fam.Samples[0].Hist.Count
	}
	if opening {
		m.sample = s.sample()
	}
	return m
}

func family(snap []telemetry.FamilySnapshot, name string) *telemetry.FamilySnapshot {
	for i := range snap {
		if snap[i].Name == name {
			return &snap[i]
		}
	}
	return nil
}

func familySum(snap []telemetry.FamilySnapshot, name string) float64 {
	t := 0.0
	if fam := family(snap, name); fam != nil {
		for _, s := range fam.Samples {
			t += s.Value
		}
	}
	return t
}

// ledgerReasons are the drop reasons reported one by one; the rest of
// the ledger's vocabulary is still inside drops_total.
var ledgerReasons = []string{
	"seal_reject", "dispatcher_ring", "endpoint_ring", "tx_ring",
	"reassembly_evict", "no_route", "bad_packet", "cross_tenant",
}

// runRound executes one round in this process and never panics out: a
// failure is a result with Error set.
func runRound(spec roundSpec) (res roundResult) {
	roundStart := time.Now()
	// What the parent's clock says passed before this line ran: process
	// start, runtime and package initialisation.
	var spawnLag time.Duration
	if spec.StartUnixNano != 0 {
		spawnLag = roundStart.Sub(time.Unix(0, spec.StartUnixNano))
	}
	res.Layers = map[string]float64{}
	defer func() {
		if p := recover(); p != nil {
			res.Error = fmt.Sprintf("panic: %v", p)
		}
	}()
	wl, err := findWorkload(spec.Workload)
	if err != nil {
		res.Error = err.Error()
		return
	}
	nflows := wl.Flows
	if c := runtime.NumCPU(); nflows > c {
		nflows = c
	}
	if spec.ProbeIters > 0 {
		if err := runProbes(wl, spec, nflows, res.Layers); err != nil {
			res.Error = "probes: " + err.Error()
		}
		return
	}

	// --- set-up ---
	t, err := buildTopo(wl, spec.Seed, nflows)
	defer t.close()
	if err != nil {
		res.Error = err.Error()
		return
	}
	var chk checks
	flows := make([]*flow, nflows)
	for f := range flows {
		g := newGenerator(wl, spec.Seed, f, srcMAC(f), sinkMAC(f), generatorRing(wl))
		if wl.SrcPool > 0 {
			g.useSourcePool(spec.Seed, wl.SrcPool, nflows)
		}
		flows[f] = &flow{id: f, tx: t.src[f], rx: t.sink[f], gen: g, dst: sinkMAC(f), win: window{limit: wl.Window}}
	}
	st := newStream(flows, &chk, roundStart, spec.Traced)
	var churn *churner
	if wl.ChurnHz > 0 {
		churn = &churner{client: t.client, hz: wl.ChurnHz, clock: roundStart}
		churn.start()
	}
	st.start()
	for st.firstAt.Load() == 0 {
		if time.Since(roundStart) > 5*time.Second {
			res.Error = "no frame reached node B within 5 s of set-up"
			st.stopAndDrain(0)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	res.SetupS = (spawnLag + time.Duration(st.firstAt.Load())).Seconds()

	// --- warm-up, then the timed stream window ---
	time.Sleep(time.Duration(spec.WarmupS * float64(time.Second)))
	m0 := takeMark(st, t, true)
	st.measuring.Store(true)
	// The window is also sampled for slices: this machine's speed swings
	// by tens of percent from one second to the next, and only ever
	// downwards from what the code can do; the best slice is the
	// steadiest view of that, where a whole round's mean is not.
	samples := st.sampleFor(time.Duration(spec.StreamS * float64(time.Second)))
	st.measuring.Store(false)
	m1 := takeMark(st, t, false)
	goroutines := runtime.NumGoroutine()
	st.stopAndDrain(150 * time.Millisecond)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	// --- echo ---
	echoGen := newGenerator(wl, spec.Seed, echoFlow, echoCliMAC, echoSrvMAC, generatorRing(wl))
	echo := runEcho(t.echoCli, t.echoSrv, echoGen, time.Duration(spec.EchoS*float64(time.Second)), &chk, roundStart, spec.Traced)
	if churn != nil {
		churn.wait()
		if n := churn.errs.Load(); n > 0 {
			res.Failures = append(res.Failures, fmt.Sprintf("control_errors=%d", n))
		}
	}

	// --- reconcile ---
	for _, c := range t.canaries {
		for {
			if _, ok := c.TryRecv(); !ok {
				break
			}
			chk.canary.Add(1)
		}
	}
	res.Failures = append(res.Failures, chk.failures()...)
	sent, delivered, _ := st.totals()
	res.Sent = sent + echo.sent
	res.Lost = (sent - delivered) + (echo.sent - min(echo.replies, echo.sent))
	res.Frames = float64(m1.delivered - m0.delivered)
	res.Bytes = float64(m1.bytes - m0.bytes)
	res.WallS = m1.at.Sub(m0.at).Seconds()
	res.BestSliceMBps, _, res.BestSliceFPC = bestSlice(samples)
	u0, s0 := m0.cpuS()
	u1, s1 := m1.cpuS()
	res.CPUS = (u1 - u0) + (s1 - s0)
	res.RTTp50, res.RTTp99, res.Echoes = percentile(echo.rtts, 50), percentile(echo.rtts, 99), len(echo.rtts)
	res.SliceRTTp50, res.SliceRTTp99 = echo.sliceP50, echo.sliceP99

	L := res.Layers
	stalls := st.stalls()
	L["bench.credit_stalls"] = float64(stalls)
	L["bench.round_goodput_MBps"] = res.goodput()

	// Conservation: every frame admitted on either node is delivered or
	// in a ledger. Ledger reasons that fire per datagram (rings, seal)
	// can over-explain a lost fragmented frame, so unexplained may go
	// negative there; the expected value everywhere is 0.
	admitted := float64(sent + echo.sent + echo.srvRecv - echo.srvErr)
	arrived := float64(delivered + echo.srvRecv + echo.replies)
	drops := 0.0
	for _, n := range []*overlay.Node{t.a, t.b} {
		drops += float64(n.Ledger().Total())
	}
	for _, r := range ledgerReasons {
		L["overlay.drop_"+r] = float64(t.a.Ledger().Count(r) + t.b.Ledger().Count(r))
	}
	L["overlay.drops_total"] = drops
	L["overlay.drops_unexplained"] = admitted - arrived - drops

	frames := res.Frames
	if frames > 0 {
		perK := 1000 / frames
		L["overlay.flowcache_hit_ratio"] = ratio(float64(m1.fcHits-m0.fcHits), float64(m1.fcHits-m0.fcHits+m1.fcMisses-m0.fcMisses))
		L["overlay.flowcache_evictions_per_kframe"] = float64(m1.fcEv-m0.fcEv) * perK
		L["overlay.rx_batch_mean"] = ratio(m1.rxBatchSum-m0.rxBatchSum, float64(m1.rxBatchCount-m0.rxBatchCount))
		L["proc.cpu_ns_per_frame"] = res.CPUS * 1e9 / frames
		L["proc.cpu_util"] = res.CPUS / res.WallS
		L["proc.user_share"] = ratio(u1-u0, res.CPUS)
		L["proc.allocs_per_frame"] = float64(m1.mem.Mallocs-m0.mem.Mallocs) / frames
		L["proc.alloc_bytes_per_frame"] = float64(m1.mem.TotalAlloc-m0.mem.TotalAlloc) / frames
		L["proc.gc_cycles_per_s"] = float64(m1.mem.NumGC-m0.mem.NumGC) / res.WallS
		L["proc.gc_pause_ms_per_s"] = float64(m1.mem.PauseTotalNs-m0.mem.PauseTotalNs) / 1e6 / res.WallS
		L["proc.vcsw_per_kframe"] = float64(m1.ru.Nvcsw-m0.ru.Nvcsw) * perK
	}
	L["proc.live_heap_MB"] = float64(live.HeapAlloc) / 1e6
	L["proc.rss_MB"] = float64(m1.ru.Maxrss) / 1e3 // ru_maxrss is in kB on Linux; peak, not current
	L["proc.goroutines"] = float64(goroutines)
	switches := 0.0
	for _, n := range []*overlay.Node{t.a, t.b} {
		switches += familySum(n.Telemetry().Gather(), "vnetp_dispatch_mode_switches_total")
	}
	L["overlay.mode_switches"] = switches
	L["overlay.rtt_p50_round_us"], L["overlay.rtt_p99_round_us"] = res.RTTp50, res.RTTp99
	L["overlay.rtt_p90_us"] = percentile(echo.rtts, 90)
	L["overlay.rtt_max_us"] = percentile(echo.rtts, 100)

	var ops []opRec
	if churn != nil {
		ops = churn.ops
	}
	if spec.Traced {
		tr := buildTrace(spec, st, echo, ops)
		tr.layerMetrics(L)
		tr.Counts = map[string]float64{
			"sent": float64(res.Sent), "delivered": float64(res.Sent - res.Lost),
			"credit_stalls": float64(stalls), "drops_total": drops,
		}
		for _, r := range ledgerReasons {
			tr.Counts["drop_"+r] = L["overlay.drop_"+r]
		}
		if spec.TraceFile != "" {
			if err := tr.write(spec.TraceFile); err != nil {
				res.Error = "trace file: " + err.Error()
				return
			}
		}
	}
	if len(ops) > 0 {
		var us []float64
		for _, o := range ops {
			us = append(us, float64(o.t1-o.t0)/1e3)
		}
		sort.Float64s(us)
		L["control.op_p50_us"], L["control.op_p99_us"] = percentile(us, 50), percentile(us, 99)
	}
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
