package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
)

// The flow sweep answers "what does the per-flow forwarding cache buy
// on the routing stage?" (ISSUE 9's fig. 5 analogue). Each round pairs
// a cached run against an uncached run (NodeConfig.FlowCacheDisabled)
// of the identical shape — four parallel unicast lanes window-paced
// into local endpoints — so machine drift cancels and the record is a
// machine-independent ratio:
//
//	cached_goodput_ratio_<size>_pct = cached MB/s / uncached MB/s × 100
//
// (one sharded read + atomic flow accounting versus tenant-table
// resolve + route-cache probe per frame). Unlike the seal/trace sweeps
// the ratio is NOT capped at 100 — the whole point is to show how far
// above parity the fast path sits — so this file carries its own
// uncapped best-of-rounds helper. The ratio is recorded, not gated
// (unit "pct", not "%"): four spinning senders on a 2-vCPU host put it
// anywhere in 140–270 % run to run, and the benchmark/ module's
// manyflows_churn workload against its bypass small_sync measures the
// cache end to end. Absolute MB/s figures ride along under the ungated
// "MBps" unit.
const (
	flowBenchFrames  = 400000 // total frames per run, across all lanes
	flowBenchSenders = 4
)

var flowBenchSizes = []int{64, 1500}

// CollectFlowBench runs the paired cached-vs-uncached goodput sweep.
// Like the other live sweeps it reports the best of three rounds and
// returns nil rather than failing the bench run on a sandboxed host
// without loopback sockets.
func CollectFlowBench() []Record {
	// Warm-up pass absorbs first-run socket and scheduler costs.
	if _, err := flowBenchRun(flowBenchSizes[0], false); err != nil {
		return nil
	}
	const rounds = 3
	var recs []Record
	for _, size := range flowBenchSizes {
		var ratios []float64
		var lastCached, lastUncached float64
		for round := 0; round < rounds; round++ {
			cached, err := flowBenchRun(size, false)
			if err != nil {
				return nil
			}
			uncached, err := flowBenchRun(size, true)
			if err != nil || uncached <= 0 {
				return nil
			}
			ratios = append(ratios, cached/uncached*100)
			lastCached, lastUncached = cached, uncached
		}
		label := fmt.Sprintf("%db", size)
		recs = append(recs,
			Record{ID: "flowbench", Metric: "cached_goodput_ratio_" + label + "_pct",
				Value: bestUncapped(ratios), Unit: "pct"},
			// "MBps", not "MB/s": loopback absolutes stay informational.
			Record{ID: "flowbench", Metric: "cached_goodput_" + label,
				Value: lastCached, Unit: "MBps"},
			Record{ID: "flowbench", Metric: "uncached_goodput_" + label,
				Value: lastUncached, Unit: "MBps"},
		)
	}
	return recs
}

// bestUncapped returns the largest ratio with no ceiling — a cache that
// beats the uncached path by 1.7× is the result, not noise.
func bestUncapped(vs []float64) float64 {
	best := 0.0
	for _, v := range vs {
		if v > best {
			best = v
		}
	}
	return best
}

// flowBenchRun measures routing-stage goodput for payload-byte frames
// across flowBenchSenders parallel unicast lanes on one node, with the
// flow cache enabled or disabled. Delivery is to local endpoints, so
// the measured stage is exactly what the cache shortcuts: route
// resolution and tenancy checks, not the wire. Window pacing stays
// strictly under the endpoint RX ring so no frame is dropped and
// goodput counts every frame.
func flowBenchRun(payload int, disabled bool) (throughputMBs float64, err error) {
	n, err := overlay.NewNodeWithConfig("flowbench", "127.0.0.1:0",
		overlay.NodeConfig{FlowCacheDisabled: disabled})
	if err != nil {
		return 0, err
	}
	defer n.Close()

	const window = 128
	type lane struct {
		src, dst  *overlay.Endpoint
		delivered atomic.Uint64
	}
	lanes := make([]*lane, flowBenchSenders)
	quit := make(chan struct{})
	var drains sync.WaitGroup
	defer drains.Wait()
	for i := 0; i < flowBenchSenders; i++ {
		l := &lane{}
		if l.src, err = n.AttachEndpoint(fmt.Sprintf("src%d", i), ethernet.LocalMAC(uint32(1+i)), ethernet.JumboMTU); err != nil {
			return 0, err
		}
		if l.dst, err = n.AttachEndpoint(fmt.Sprintf("dst%d", i), ethernet.LocalMAC(uint32(100+i)), ethernet.JumboMTU); err != nil {
			return 0, err
		}
		if err := n.AddRoute(core.Route{DstMAC: l.dst.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestInterface, ID: fmt.Sprintf("dst%d", i)}}); err != nil {
			return 0, err
		}
		lanes[i] = l
		drains.Add(1)
		go func(l *lane) {
			defer drains.Done()
			for {
				if _, ok := l.dst.TryRecv(); ok {
					l.delivered.Add(1)
					continue
				}
				select {
				case <-quit:
					return
				default:
					runtime.Gosched()
				}
			}
		}(l)
	}
	defer close(quit)

	per := flowBenchFrames / flowBenchSenders
	start := time.Now()
	var senders sync.WaitGroup
	errs := make(chan error, flowBenchSenders)
	for _, l := range lanes {
		senders.Add(1)
		go func(l *lane) {
			defer senders.Done()
			const chunk = 32
			batch := make([]*ethernet.Frame, chunk)
			for i := range batch {
				batch[i] = &ethernet.Frame{Dst: l.dst.MAC(), Src: l.src.MAC(),
					Type: ethernet.TypeTest, Payload: make([]byte, payload)}
			}
			for k := 0; k < per; k += chunk {
				m := chunk
				if per-k < m {
					m = per - k
				}
				for uint64(k)-l.delivered.Load() >= window-chunk {
					runtime.Gosched()
				}
				if err := l.src.SendBatch(batch[:m]); err != nil {
					errs <- err
					return
				}
			}
			deadline := time.Now().Add(20 * time.Second)
			for l.delivered.Load() < uint64(per) {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("flowbench: lane stalled at %d of %d frames",
						l.delivered.Load(), per)
					return
				}
				runtime.Gosched()
			}
		}(l)
	}
	senders.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("flowbench: zero elapsed time")
	}
	total := float64(per * flowBenchSenders)
	return total * float64(payload) / elapsed / 1e6, nil
}
