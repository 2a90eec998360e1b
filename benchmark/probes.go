package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/control"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/seal"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
	"vnetp/internal/virtio"
)

// datagramBudget is the overlay's per-datagram UDP payload budget
// (overlay.maxDatagram is unexported; the probes must fragment alike).
const datagramBudget = 1400

// Probe results are parked here so the compiler cannot discard the
// calls. keep takes pointers only: boxing a slice or an integer into an
// interface allocates, and that would be timed.
var (
	keep      any
	keepBytes []byte
	keepDests []core.Destination
	keepSnap  []telemetry.FamilySnapshot
	keepID    uint64
)

// probeBatches is how many equal batches a probe's iterations run in.
// The fastest batch is reported: as everywhere in this benchmark,
// interference only ever slows a batch.
const probeBatches = 5

// perOp times n calls of fn (a multiple of probeBatches) in one
// goroutine and returns ns per call in the fastest batch.
func perOp(n int, fn func()) float64 {
	per := max(n/probeBatches, 1)
	fastest := math.Inf(1)
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		fastest = min(fastest, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	return fastest
}

// perOpAllocs is perOp that also reports heap allocations per call.
func perOpAllocs(n int, fn func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns = perOp(n, fn)
	runtime.ReadMemStats(&m1)
	return ns, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probeFrame is one entry of the workload's size cycle, pre-encoded at
// every stage so each probe times only its own layer.
type probeFrame struct {
	f     *ethernet.Frame
	inner []byte                // marshalled Ethernet frame
	wire  [][]byte              // encapsulation datagrams as the link carries them (sealed if the workload is)
	heads []*bridge.EncapHeader // plaintext encapsulation, parsed: the reassembler's input
	parts [][]byte
}

// runProbes measures each layer's public functions in isolation, with
// the workload's own frame sizes, and the native bare-socket bar. It
// runs in a child of its own. Per-datagram probes say so; the rest are
// per inner frame.
func runProbes(wl workload, spec roundSpec, flows int, L map[string]float64) error {
	// Iteration counts are whole numbers of size cycles per batch, so
	// every batch sees the same frames.
	cyc := len(wl.Sizes)
	unit := cyc * probeBatches
	n := max(spec.ProbeIters-spec.ProbeIters%unit, unit)
	slow := func(div int) int { return max(n/div-(n/div)%unit, unit) } // iteration count for a probe div times dearer

	// --- pre-encode the size cycle ---
	var enc bridge.Encapsulator
	plain := bridge.NewEncapTemplate(nil)
	var sealer *seal.Sealer
	var opener *seal.Keyring
	linkTmpl := plain
	if wl.Tenant != 0 {
		key := seedKey(spec.Seed)
		kr := seal.NewKeyring(1)
		opener = seal.NewKeyring(2)
		if err := errors.Join(kr.AddTenant(wl.Tenant, key), opener.AddTenant(wl.Tenant, key)); err != nil {
			return err
		}
		var err error
		if sealer, err = kr.Sealer(wl.Tenant); err != nil {
			return err
		}
		linkTmpl = bridge.NewEncapTemplate(sealer)
	}
	var linkSealer bridge.LinkSealer // stays a nil interface on plaintext workloads
	if sealer != nil {
		linkSealer = sealer
	}
	frames := make([]probeFrame, cyc)
	datagrams := 0
	for i, size := range wl.Sizes {
		pf := &frames[i]
		pf.f = &ethernet.Frame{Dst: sinkMAC(0), Src: srcMAC(0), Type: ethernet.TypeTest, Payload: make([]byte, size)}
		fillPayload(pf.f.Payload, 0, uint64(i))
		var err error
		if pf.inner, err = pf.f.Marshal(nil); err != nil {
			return err
		}
		pkt, err := enc.EncapsulateTemplate(pf.f, uint32(i+1), datagramBudget, plain, nil)
		if err != nil {
			return err
		}
		for _, d := range pkt.Datagrams {
			h, part, err := bridge.ParseEncap(append([]byte(nil), d...))
			if err != nil {
				return err
			}
			pf.heads, pf.parts = append(pf.heads, h), append(pf.parts, part)
		}
		pkt.Release()
		if pkt, err = enc.EncapsulateTemplate(pf.f, uint32(i+1), datagramBudget, linkTmpl, linkSealer); err != nil {
			return err
		}
		for _, d := range pkt.Datagrams {
			pf.wire = append(pf.wire, append([]byte(nil), d...))
		}
		pkt.Release()
		datagrams += len(pf.wire)
	}
	frags := float64(datagrams) / float64(cyc)
	L["bridge.frags_per_frame"] = frags
	i := 0
	nextFrame := func() *probeFrame { pf := &frames[i%cyc]; i++; return pf }
	// Probes whose cost grows with the frame's bytes run fewer frames on
	// fragmented workloads, keeping at least n datagram operations.
	nb := slow(max(1, int(frags)))

	// --- ethernet ---
	var buf []byte
	L["ethernet.marshal_ns"] = perOp(nb, func() { buf, _ = nextFrame().f.Marshal(buf[:0]) })
	L["ethernet.unmarshal_ns"] = perOp(nb, func() { keep, _ = ethernet.Unmarshal(nextFrame().inner) })

	// --- core ---
	tbl := core.NewTable()
	for f := 0; f < 4; f++ {
		tbl.AddRoute(linkRoute(sinkMAC(f), "to-b", 0))
	}
	L["core.lookup_hit_ns"] = perOp(n, func() { keepDests, _, _ = tbl.Lookup(srcMAC(0), sinkMAC(0)) })
	k := uint32(0)
	L["core.lookup_miss_ns"] = perOp(slow(4), func() { k++; keepDests, _, _ = tbl.Lookup(ethernet.LocalMAC(0x20000000+k), sinkMAC(0)) })
	fs := core.NewFlowStats()
	L["core.flowrecord_ns"] = perOp(n, func() {
		fs.Record(srcMAC(0), sinkMAC(0), 64)
		keep = fs.Acquire(srcMAC(0), sinkMAC(0))
	})
	extra := linkRoute(ethernet.LocalMAC(churnMACBase), "to-b", 0)
	L["core.route_update_us"] = perOp(slow(20), func() { tbl.AddRoute(extra); tbl.RemoveRoute(extra) }) / 1e3

	// --- bridge ---
	wireBytes := 0
	id := uint32(0)
	ns, allocs := perOpAllocs(nb, func() {
		id++
		pkt, _ := enc.EncapsulateTemplate(nextFrame().f, id, datagramBudget, plain, nil)
		for _, d := range pkt.Datagrams {
			wireBytes += len(d)
		}
		pkt.Release()
	})
	L["bridge.encap_ns"], L["bridge.encap_allocs"], L["bridge.encap_bytes"] = ns, allocs, float64(wireBytes)/float64(nb)
	L["bridge.parse_ns"] = perOp(nb, func() {
		for _, d := range nextFrame().wire {
			keep, _, _ = bridge.ParseEncap(d)
		}
	}) / frags
	reasm := bridge.NewReassembler()
	ns, allocs = perOpAllocs(nb, func() {
		pf := nextFrame()
		for j, h := range pf.heads {
			keep, _ = reasm.AddParsed("probe", h, pf.parts[j])
		}
	})
	L["bridge.reasm_ns"], L["bridge.reasm_allocs"] = ns, allocs

	// --- seal (per datagram; 0 on plaintext workloads) ---
	L["seal.seal_ns"], L["seal.open_ns"] = 0, 0
	if sealer != nil {
		scratch := make([]byte, datagramBudget+seal.Overhead)
		aad := make([]byte, linkTmpl.WireLen())
		sealOnly := perOp(nb, func() {
			for _, part := range nextFrame().parts {
				keepBytes = sealer.Seal(sealer.NextNonce(), aad, scratch[:len(part)])
			}
		}) / frags
		var openErr error
		pair := perOp(nb, func() {
			for _, part := range nextFrame().parts {
				nonce := sealer.NextNonce()
				ct := sealer.Seal(nonce, aad, scratch[:len(part)])
				if _, err := opener.Open(wl.Tenant, nonce, aad, ct); err != nil {
					openErr = err
				}
			}
		}) / frags
		if openErr != nil {
			return fmt.Errorf("seal probe: %w", openErr)
		}
		L["seal.seal_ns"], L["seal.open_ns"] = sealOnly, pair-sealOnly
	}

	// --- virtio ---
	q := virtio.NewQueue(0)
	batch := make([]*ethernet.Frame, 0, 32)
	L["virtio.pushpop_ns"] = perOp(n, func() {
		q.Push(frames[0].f)
		if q.Len() == 32 {
			batch = q.PopBatchInto(batch[:0], 32)
		}
	})

	// --- wire: the kernel loopback floor under the bridge ---
	if err := wireProbes(frames, slow(4*max(1, int(frags))), L); err != nil {
		return err
	}
	var nat native
	if err := nat.stream(wl, spec.Seed, flows, time.Duration(spec.StreamS/2*float64(time.Second))); err != nil {
		return err
	}
	if err := nat.echo(wl, spec.Seed, time.Duration(spec.EchoS/2*float64(time.Second))); err != nil {
		return err
	}
	L["wire.native_kfps"], L["wire.native_rtt_p50_us"] = nat.FPS/1e3, nat.RTTp50

	// --- overlay: same-node resolve + deliver, and direct route updates,
	// on a live (idle) two-node topology ---
	t, err := buildTopo(wl, spec.Seed, flows)
	defer t.close()
	if err != nil {
		return err
	}
	la, err := t.a.AttachEndpointTenant("probe-a", ethernet.LocalMAC(0x500), ethernet.JumboMTU, wl.Tenant)
	if err != nil {
		return err
	}
	lb, err := t.a.AttachEndpointTenant("probe-b", ethernet.LocalMAC(0x501), ethernet.JumboMTU, wl.Tenant)
	if err != nil {
		return err
	}
	local := make([]*ethernet.Frame, cyc)
	for j := range local {
		local[j] = &ethernet.Frame{Dst: lb.MAC(), Src: la.MAC(), Type: ethernet.TypeTest, Payload: frames[j].f.Payload}
	}
	undelivered := 0
	L["overlay.local_ns"] = perOp(n, func() {
		_ = la.Send(local[i%cyc])
		i++
		if _, ok := lb.TryRecv(); !ok {
			undelivered++
		}
	})
	if undelivered > 0 {
		return fmt.Errorf("overlay.local probe: %d frames not delivered", undelivered)
	}
	t.a.DetachEndpoint("probe-a")
	t.a.DetachEndpoint("probe-b")
	route := linkRoute(ethernet.LocalMAC(churnMACBase+0x10000), "to-b", wl.Tenant)
	var routeErr error
	L["overlay.addroute_us"] = perOp(slow(20), func() {
		routeErr = errors.Join(routeErr, t.a.AddRoute(route), t.a.DelRoute(route))
	}) / 1e3
	if routeErr != nil {
		return routeErr
	}

	// --- control ---
	line := "ADD ROUTE " + ethernet.LocalMAC(churnMACBase).String() + " any link to-b"
	L["control.parse_ns"] = perOp(n, func() { keep, _ = control.Parse(line) })
	if wl.ChurnHz == 0 {
		// No churn ops to time in this workload's rounds: time the same
		// ops on the idle node.
		d, err := control.NewDaemon(t.a, "127.0.0.1:0")
		if err != nil {
			return err
		}
		cl := control.NewClient(d.Addr(), control.ClientConfig{})
		var us []float64
		for j := 0; j < max(20, n/2000); j++ {
			verb := "ADD"
			if j%2 == 1 {
				verb = "DEL"
			}
			t0 := time.Now()
			if _, err := cl.Do(verb + line[3:]); err != nil {
				d.Close()
				return err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		d.Close()
		sort.Float64s(us)
		L["control.op_p50_us"], L["control.op_p99_us"] = percentile(us, 50), percentile(us, 99)
	}

	// --- telemetry: the price of looking ---
	reg := telemetry.NewRegistry()
	ctr := reg.Counter("e2ebench_probe_total", "probe")
	L["telemetry.counter_add_ns"] = perOp(n, func() { ctr.Add(1) })
	ledger := telemetry.NewDropLedger(reg, "probe")
	L["telemetry.ledger_drop_ns"] = perOp(n, func() {
		ledger.Drop("probe", 1, telemetry.DropDetail{Tenant: wl.Tenant, Scope: "probe", Stage: "probe"})
	})
	live := t.a.Telemetry()
	L["telemetry.gather_us"] = perOp(max(20*probeBatches, n/1000), func() { keepSnap = live.Gather() }) / 1e3
	L["telemetry.writetext_us"] = perOp(max(20*probeBatches, n/1000), func() { _ = live.WriteText(io.Discard) }) / 1e3

	// --- trace ---
	tracer := trace.NewLive("probe", 1)
	L["trace.sample_off_ns"] = perOp(n, func() { keepID = tracer.SampleTX(srcMAC(0), sinkMAC(0)) })
	tracer.Start(1)
	L["trace.record_ns"] = perOp(slow(4), func() {
		tracer.Record(tracer.SampleTX(srcMAC(0), sinkMAC(0)), trace.StageWireTx)
	})

	// --- the harness's own generator ---
	g := newGenerator(wl, spec.Seed, 0, srcMAC(0), sinkMAC(0), generatorRing(wl))
	if wl.SrcPool > 0 {
		g.useSourcePool(spec.Seed, wl.SrcPool, flows)
	}
	L["bench.gen_ns_per_frame"] = perOp(nb, func() { keep = g.next() })
	return nil
}

// wireProbes times bare WriteToUDP / ReadFromUDP of the workload's own
// datagrams between two loopback sockets, in one goroutine: each
// frame's datagrams are all written, then all read back, so neither
// call ever blocks. Reported per datagram.
//
// It runs on one P, with no read deadline, on purpose. Whenever the
// runtime has a pending timer (a deadline, a node's tickers, even the
// heap scavenger's) and an idle P, a thread parks in epoll_wait, and
// then every arriving datagram wakes it at the sender's expense: sendto
// reads 5 to 7 us instead of 2.5 to 3.3 here, and which of the two a
// run got was luck. That wake-up is real on the live path whenever a
// core is idle (the echo phase), where it belongs to the unattributed
// share, not to the kernel's floor. A dropped datagram would hang the
// read; the parent's watchdog covers it.
func wireProbes(frames []probeFrame, n int, L map[string]float64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tx, rx, err := udpPair()
	if err != nil {
		return err
	}
	defer tx.Close()
	defer rx.Close()
	to := rx.LocalAddr().(*net.UDPAddr)
	buf := make([]byte, 65536)
	sendBest, recvBest := math.Inf(1), math.Inf(1)
	for b := 0; b < probeBatches; b++ {
		var sendNs, recvNs time.Duration
		datagrams := 0
		for i := 0; i < n/probeBatches; i++ {
			pf := &frames[i%len(frames)]
			t0 := time.Now()
			for _, d := range pf.wire {
				if _, err := tx.WriteToUDP(d, to); err != nil {
					return err
				}
			}
			t1 := time.Now()
			for range pf.wire {
				if _, _, err := rx.ReadFromUDP(buf); err != nil {
					return fmt.Errorf("wire probe: %w", err)
				}
			}
			sendNs += t1.Sub(t0)
			recvNs += time.Since(t1)
			datagrams += len(pf.wire)
		}
		sendBest = min(sendBest, float64(sendNs.Nanoseconds())/float64(datagrams))
		recvBest = min(recvBest, float64(recvNs.Nanoseconds())/float64(datagrams))
	}
	L["wire.sendto_ns"], L["wire.recv_ns"] = sendBest, recvBest
	return nil
}

func udpPair() (a, b *net.UDPConn, err error) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if a, err = net.ListenUDP("udp", lo); err != nil {
		return nil, nil, fmt.Errorf("no loopback UDP on this host: %w", err)
	}
	if b, err = net.ListenUDP("udp", lo); err != nil {
		a.Close()
		return nil, nil, fmt.Errorf("no loopback UDP on this host: %w", err)
	}
	for _, c := range []*net.UDPConn{a, b} {
		_ = c.SetReadBuffer(4 << 20) // as the overlay's sockets
		_ = c.SetWriteBuffer(4 << 20)
	}
	return a, b, nil
}

// udpNIC moves Ethernet frames over a bare UDP socket: the paper's
// "native" bar — same frames, same closed loop, no overlay.
type udpNIC struct {
	conn     *net.UDPConn
	peer     *net.UDPAddr
	out, in  []byte
	deadline time.Time
}

func (u *udpNIC) Send(f *ethernet.Frame) error {
	b, err := f.Marshal(u.out[:0])
	if err != nil {
		return err
	}
	u.out = b
	_, err = u.conn.WriteToUDP(b, u.peer)
	return err
}

// Recv waits between timeout and twice that; the deadline is re-armed
// once per timeout, not per call, to keep the bar's own cost down.
func (u *udpNIC) Recv(timeout time.Duration) (*ethernet.Frame, bool) {
	if now := time.Now(); u.deadline.Sub(now) < timeout {
		u.deadline = now.Add(2 * timeout)
		_ = u.conn.SetReadDeadline(u.deadline)
	}
	n, _, err := u.conn.ReadFromUDP(u.in)
	if err != nil {
		return nil, false
	}
	f, err := ethernet.Unmarshal(u.in[:n])
	return f, err == nil
}

func newUDPNICPair() (a, b *udpNIC, err error) {
	ca, cb, err := udpPair()
	if err != nil {
		return nil, nil, err
	}
	mk := func(c, peer *net.UDPConn) *udpNIC {
		return &udpNIC{conn: c, peer: peer.LocalAddr().(*net.UDPAddr), in: make([]byte, 65536)}
	}
	return mk(ca, cb), mk(cb, ca), nil
}

// native is the paper's "native" bar: bare UDP sockets driven by the
// workload's own closed loop and echo, with the same frames. goodput ÷
// native is the overlay's overhead. No product code runs here, so a
// shift in these numbers flags a noisy machine. (Dividing the overlay's
// numbers by a native bar taken in the same round was tried twice as a
// way to cancel this machine's speed swings, with whole-round means and
// with best slices: the ratio came out noisier than the overlay's own
// numbers, and differed between the machine's fast and slow spells.)
type native struct {
	FPS    float64 // frames delivered per wall-second, best ~200 ms slice
	RTTp50 float64 // us, quietest echo slice
}

func closeNICs(nics []*udpNIC) {
	for _, n := range nics {
		n.conn.Close()
	}
}

// stream runs the workload's closed loop over bare sockets for
// dur (after a short warm-up) and fills in FPS.
func (nat *native) stream(wl workload, seed int64, flows int, dur time.Duration) error {
	var chk checks
	fl := make([]*flow, flows)
	var nics []*udpNIC
	defer func() { closeNICs(nics) }()
	for f := range fl {
		a, b, err := newUDPNICPair()
		if err != nil {
			return err
		}
		nics = append(nics, a, b)
		g := newGenerator(wl, seed, f, srcMAC(f), sinkMAC(f), 2*wl.Window)
		fl[f] = &flow{id: f, tx: a, rx: b, gen: g, dst: sinkMAC(f), win: window{limit: wl.Window}}
	}
	st := newStream(fl, &chk, time.Now(), false)
	st.start()
	time.Sleep(dur / 5)
	samples := st.sampleFor(dur)
	st.stopAndDrain(50 * time.Millisecond)
	if f := chk.failures(); len(f) > 0 {
		return fmt.Errorf("native bar output checks: %v", f)
	}
	_, nat.FPS, _ = bestSlice(samples)
	return nil
}

// echo runs the ping-pong over bare sockets and fills in RTTp50.
func (nat *native) echo(wl workload, seed int64, dur time.Duration) error {
	var chk checks
	cli, srv, err := newUDPNICPair()
	if err != nil {
		return err
	}
	defer closeNICs([]*udpNIC{cli, srv})
	g := newGenerator(wl, seed, echoFlow, echoCliMAC, echoSrvMAC, 2)
	res := runEcho(cli, srv, g, dur, &chk, time.Now(), false)
	if f := chk.failures(); len(f) > 0 {
		return fmt.Errorf("native bar output checks: %v", f)
	}
	nat.RTTp50 = lowest(res.sliceP50)
	return nil
}
