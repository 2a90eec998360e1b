package overlay

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
)

// BenchmarkOverlayFlowCache is the fast path's fig. 5 analogue: parallel
// senders each driving a distinct unicast flow through one node's
// routing stage into local endpoints, cached vs uncached (the ablation
// NodeConfig.FlowCacheDisabled exists for). The uncached path pays the
// tenant-table resolve and a rule scan under the table's read lock per
// frame; the cached path pays one flow-cache slot read.
func BenchmarkOverlayFlowCache(b *testing.B) {
	for _, mode := range []struct {
		name     string
		disabled bool
	}{{"cached", false}, {"uncached", true}} {
		for _, payload := range []int{64, 1500} {
			b.Run(fmt.Sprintf("%s/%dB", mode.name, payload), func(b *testing.B) {
				benchFlowPath(b, payload, mode.disabled)
			})
		}
	}
}

func benchFlowPath(b *testing.B, payload int, disabled bool) {
	n, err := NewNodeWithConfig("flowbench", "127.0.0.1:0",
		NodeConfig{FlowCacheDisabled: disabled})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()

	const senders = 4
	// Window strictly under the endpoint RX ring (256): the ring never
	// overruns, so no frame drops and goodput counts every frame.
	const window = 128
	type lane struct {
		src, dst  *Endpoint
		delivered atomic.Uint64
	}
	lanes := make([]*lane, senders)
	quit := make(chan struct{})
	var drains sync.WaitGroup
	for i := 0; i < senders; i++ {
		l := &lane{}
		if l.src, err = n.AttachEndpoint(fmt.Sprintf("src%d", i), ethernet.LocalMAC(uint32(1+i)), ethernet.JumboMTU); err != nil {
			b.Fatal(err)
		}
		if l.dst, err = n.AttachEndpoint(fmt.Sprintf("dst%d", i), ethernet.LocalMAC(uint32(100+i)), ethernet.JumboMTU); err != nil {
			b.Fatal(err)
		}
		n.AddRoute(core.Route{DstMAC: l.dst.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestInterface, ID: fmt.Sprintf("dst%d", i)}})
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

	per := (b.N + senders - 1) / senders
	b.SetBytes(int64(payload))
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			// Batched sends (a virtio ring drain's shape): per-frame cost is
			// the routing stage itself, not Send's per-call bookkeeping.
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
				// Window pacing on this lane's delivery counter.
				for uint64(k)-l.delivered.Load() >= window-chunk {
					runtime.Gosched()
				}
				if err := l.src.SendBatch(batch[:m]); err != nil {
					b.Error(err)
					return
				}
			}
			for l.delivered.Load() < uint64(per) {
				runtime.Gosched()
			}
		}(l)
	}
	wg.Wait()
	b.StopTimer()
	close(quit)
	drains.Wait()
}
