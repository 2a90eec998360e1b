package main

import "sort"

// How a metric's per-round values become the one reported value.
type agg int

const (
	aggMedian  agg = iota // median across the traced rounds that measured it
	aggSum                // total over every round, traced or not
	aggMax                // worst value over the traced rounds
	aggDerived            // computed by the harness from other values
)

type metricDef struct {
	Name, Unit, Better string
	Agg                agg
}

// endToEnd are the metrics a user of the overlay sees, reported on
// every workload from the untraced rounds. Bounds live in
// BENCHMARK.json. (loss_pct sits with the per-layer metrics: it is 0 on
// a healthy run, and a relative bound on 0 is meaningless; it is also
// exported as the run's attempted/failed counts.)
var endToEnd = []metricDef{
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "frames_per_cpu_s", Unit: "frames/s", Better: "higher"},
	{Name: "rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the single-layer metrics, named <layer>.<metric>. Layers
// are this repository's packages, plus wire (the kernel loopback floor),
// proc (the Go runtime and OS process), and budget and bench (the
// harness's own accounting). README.md says which end-to-end metric
// each should move, and on which workload.
var perLayer = []metricDef{
	{"loss_pct", "%", "lower", aggDerived},

	{"ethernet.marshal_ns", "ns", "lower", aggMedian},
	{"ethernet.unmarshal_ns", "ns", "lower", aggMedian},

	{"core.lookup_hit_ns", "ns", "lower", aggMedian},
	{"core.lookup_miss_ns", "ns", "lower", aggMedian},
	{"core.flowrecord_ns", "ns", "lower", aggMedian},
	{"core.route_update_us", "us", "lower", aggMedian},

	{"bridge.encap_ns", "ns", "lower", aggMedian},
	{"bridge.encap_allocs", "count", "lower", aggMedian},
	{"bridge.encap_bytes", "B", "lower", aggMedian},
	{"bridge.parse_ns", "ns", "lower", aggMedian},
	{"bridge.reasm_ns", "ns", "lower", aggMedian},
	{"bridge.reasm_allocs", "count", "lower", aggMedian},
	{"bridge.frags_per_frame", "count", "lower", aggMedian},

	{"seal.seal_ns", "ns", "lower", aggMedian},
	{"seal.open_ns", "ns", "lower", aggMedian},

	{"virtio.pushpop_ns", "ns", "lower", aggMedian},

	{"wire.sendto_ns", "ns", "lower", aggMedian},
	{"wire.recv_ns", "ns", "lower", aggMedian},
	{"wire.native_kfps", "kframes/s", "higher", aggMedian},
	{"wire.native_rtt_p50_us", "us", "lower", aggMedian},

	{"overlay.send_p50_ns", "ns", "lower", aggMedian},
	{"overlay.send_p99_ns", "ns", "lower", aggMedian},
	{"overlay.local_ns", "ns", "lower", aggMedian},
	{"overlay.owd_p50_us", "us", "lower", aggMedian},
	{"overlay.owd_p99_us", "us", "lower", aggMedian},
	{"overlay.rtt_p50_round_us", "us", "lower", aggMedian},
	{"overlay.rtt_p99_round_us", "us", "lower", aggMedian},
	{"overlay.rtt_p90_us", "us", "lower", aggMedian},
	{"overlay.rtt_max_us", "us", "lower", aggMax},
	{"overlay.flowcache_hit_ratio", "ratio", "higher", aggMedian},
	{"overlay.flowcache_evictions_per_kframe", "1/kframe", "lower", aggMedian},
	{"overlay.rx_batch_mean", "count", "higher", aggMedian},
	{"overlay.mode_switches", "count", "lower", aggMedian},
	{"overlay.addroute_us", "us", "lower", aggMedian},
	{"overlay.drops_total", "count", "lower", aggSum},
	{"overlay.drop_seal_reject", "count", "lower", aggSum},
	{"overlay.drop_dispatcher_ring", "count", "lower", aggSum},
	{"overlay.drop_endpoint_ring", "count", "lower", aggSum},
	{"overlay.drop_tx_ring", "count", "lower", aggSum},
	{"overlay.drop_reassembly_evict", "count", "lower", aggSum},
	{"overlay.drop_no_route", "count", "lower", aggSum},
	{"overlay.drop_bad_packet", "count", "lower", aggSum},
	{"overlay.drop_cross_tenant", "count", "lower", aggSum},
	{"overlay.drops_unexplained", "count", "lower", aggSum},

	{"control.op_p50_us", "us", "lower", aggMedian},
	{"control.op_p99_us", "us", "lower", aggMedian},
	{"control.parse_ns", "ns", "lower", aggMedian},

	{"telemetry.counter_add_ns", "ns", "lower", aggMedian},
	{"telemetry.ledger_drop_ns", "ns", "lower", aggMedian},
	{"telemetry.gather_us", "us", "lower", aggMedian},
	{"telemetry.writetext_us", "us", "lower", aggMedian},

	{"trace.sample_off_ns", "ns", "lower", aggMedian},
	{"trace.record_ns", "ns", "lower", aggMedian},

	{"proc.cpu_ns_per_frame", "ns", "lower", aggMedian},
	{"proc.cpu_util", "cores", "lower", aggMedian},
	{"proc.user_share", "ratio", "higher", aggMedian},
	{"proc.allocs_per_frame", "count", "lower", aggMedian},
	{"proc.alloc_bytes_per_frame", "B", "lower", aggMedian},
	{"proc.gc_cycles_per_s", "1/s", "lower", aggMedian},
	{"proc.gc_pause_ms_per_s", "ms/s", "lower", aggMedian},
	{"proc.vcsw_per_kframe", "1/kframe", "lower", aggMedian},
	{"proc.live_heap_MB", "MB", "lower", aggMedian},
	{"proc.rss_MB", "MB", "lower", aggMedian},
	{"proc.goroutines", "count", "lower", aggMedian},

	{"budget.attributed_ns", "ns", "lower", aggDerived},
	{"budget.unattributed_pct", "%", "lower", aggDerived},

	{"bench.trace_overhead_pct", "%", "lower", aggDerived},
	{"bench.gen_ns_per_frame", "ns", "lower", aggMedian},
	{"bench.round_goodput_MBps", "MB/s", "higher", aggMedian},
	{"bench.round_spread_pct", "%", "lower", aggDerived},
	{"bench.credit_stalls", "count", "lower", aggSum},
	{"bench.rounds_failed", "count", "lower", aggDerived},
}

// round is one child's outcome as the parent keeps it.
type round struct {
	traced bool
	probes bool // the layer-probe child: no traffic, only Layers
	res    roundResult
}

// goodput is a round's payload megabytes delivered per wall-second.
func (r roundResult) goodput() float64 { return ratio(r.Bytes/1e6, r.WallS) }

// aggregateEndToEnd reduces the untraced rounds to the end-to-end
// metrics. This machine (a shared VM) changes speed by tens of percent
// from one second to the next, and interference only ever slows the
// program, so whole-round means do not repeat (±20 % between runs)
// while the run's quietest slices do (±2 %). Throughput is the best
// ~200 ms stream slice of any round. Latency comes from the quietest tenth
// of the echo slices, chosen by their median: the median of those
// slices' medians and of their 99th percentiles — choosing by the
// median keeps the 99th percentile from being picked for its own luck.
// Set-up is the median across rounds. The whole-round figures are still
// reported, as per-layer metrics.
func aggregateEndToEnd(rounds []round) map[string]float64 {
	var gp, fpc, setup []float64
	var slices [][2]float64 // each echo slice's {p50, p99}
	for _, r := range rounds {
		if r.traced || r.res.Error != "" {
			continue
		}
		gp = append(gp, r.res.BestSliceMBps)
		fpc = append(fpc, r.res.BestSliceFPC)
		setup = append(setup, r.res.SetupS)
		for i, p50 := range r.res.SliceRTTp50 {
			slices = append(slices, [2]float64{p50, r.res.SliceRTTp99[i]})
		}
	}
	p50, p99 := quietest(slices)
	return map[string]float64{
		"goodput_MBps":     best(gp),
		"frames_per_cpu_s": best(fpc),
		"rtt_p50_us":       p50,
		"rtt_p99_us":       p99,
		"setup_s":          median(setup),
	}
}

// quietest picks the tenth of the echo slices (at least three) with the
// lowest medians and returns the median of their medians and of their
// 99th percentiles.
func quietest(slices [][2]float64) (p50, p99 float64) {
	sort.Slice(slices, func(i, j int) bool { return slices[i][0] < slices[j][0] })
	k := min(max(len(slices)/10, 3), len(slices))
	var a, b []float64
	for _, s := range slices[:k] {
		a, b = append(a, s[0]), append(b, s[1])
	}
	return median(a), median(b)
}

// budgetLines are the probes on a frame's blocking path, each already
// per inner frame or scaled by fragments per frame: encap includes the
// Ethernet marshal and reasm the unmarshal; local is resolve + deliver.
var budgetLines = []struct {
	name        string
	perDatagram bool
}{
	{"bridge.encap_ns", false}, {"seal.seal_ns", true}, {"wire.sendto_ns", true},
	{"wire.recv_ns", true}, {"bridge.parse_ns", true}, {"seal.open_ns", true},
	{"bridge.reasm_ns", false}, {"overlay.local_ns", false},
}

// aggregatePerLayer reduces all rounds to the per-layer metrics.
func aggregatePerLayer(rounds []round) map[string]float64 {
	out := map[string]float64{}
	var sent, lost, failed float64
	var tracedGP, untracedGP []float64     // whole-round goodput
	var tracedBest, untracedBest []float64 // best-slice goodput
	for _, r := range rounds {
		if r.res.Error != "" {
			failed++
			continue
		}
		if r.probes {
			continue
		}
		sent += float64(r.res.Sent)
		lost += float64(r.res.Lost)
		if r.traced {
			tracedGP = append(tracedGP, r.res.goodput())
			tracedBest = append(tracedBest, r.res.BestSliceMBps)
		} else {
			untracedGP = append(untracedGP, r.res.goodput())
			untracedBest = append(untracedBest, r.res.BestSliceMBps)
		}
	}
	for _, d := range perLayer {
		var vs []float64
		for _, r := range rounds {
			if v, ok := r.res.Layers[d.Name]; ok && r.res.Error == "" && (r.traced || d.Agg == aggSum) {
				vs = append(vs, v)
			}
		}
		switch d.Agg {
		case aggMedian:
			out[d.Name] = median(vs)
		case aggSum:
			out[d.Name] = sum(vs)
		case aggMax:
			out[d.Name] = best(vs)
		}
	}
	out["loss_pct"] = ratio(lost, sent) * 100
	out["bench.rounds_failed"] = failed
	// Tracing's cost, on the same estimator the end-to-end goodput uses.
	// Medians, not bests: the two kinds of round differ in number, and a
	// best-of grows with the number it is taken over.
	out["bench.trace_overhead_pct"] = ratio(median(untracedBest)-median(tracedBest), median(untracedBest)) * 100
	// Spread of whole-round goodput (how disturbed the machine was), over
	// the untraced rounds when this run has enough of them.
	if len(untracedGP) >= 3 {
		out["bench.round_spread_pct"] = roundSpread(untracedGP)
	} else {
		out["bench.round_spread_pct"] = roundSpread(tracedGP)
	}
	attributed := 0.0
	for _, b := range budgetLines {
		v := out[b.name]
		if b.perDatagram {
			v *= out["bridge.frags_per_frame"]
		}
		attributed += v
	}
	out["budget.attributed_ns"] = attributed
	out["budget.unattributed_pct"] = ratio(out["proc.cpu_ns_per_frame"]-attributed, out["proc.cpu_ns_per_frame"]) * 100
	return out
}
