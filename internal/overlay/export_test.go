package overlay

import (
	"slices"
	"testing"
	"time"

	"vnetp/internal/ethernet"
	"vnetp/internal/supervise"
)

// StatRows hands the external tests the node's LIST STATS table, so the
// scrape cross-check ranges over the rows the renderer does.
func (n *Node) StatRows() []statRow { return n.statRows() }

// RaceEnabled reports a -race build to the external tests.
const RaceEnabled = raceEnabled

// TxBatchMax is the most frames one record train carries.
const TxBatchMax = txBatchMax

// flushFrames builds one batch of frames with add and flushes it, as a
// link's sender flushes what it found pending: the deterministic batch that
// tests pin wire shapes and accounting against. A frame that cannot be
// encoded fails the test.
func (n *Node) flushFrames(t testing.TB, lk *link, frames ...*ethernet.Frame) {
	t.Helper()
	var s txScratch
	for _, f := range frames {
		if err := n.add(lk, &s, f, true); err != nil {
			t.Fatal(err)
		}
	}
	n.flush(lk, &s)
}

// WaitIdle and Idle hand the external tests waitIdle and link.idle for
// the link named id.
func (n *Node) WaitIdle(t testing.TB, id string) { waitIdle(t, n.topo.Load().links[id]) }

func (n *Node) Idle(id string) bool { return n.topo.Load().links[id].idle() }

// WithDispatchers, WithTxRing, WithEvictInterval and WithSupervise hand
// the external tests NodeConfig's seams: a receive worker count, a small
// TX ring, a fast eviction clock, a supervisor tuned for chaos.
func (c NodeConfig) WithDispatchers(workers int) NodeConfig { c.dispatchers = workers; return c }

func (c NodeConfig) WithTxRing(depth int) NodeConfig { c.txRing = depth; return c }

func (c NodeConfig) WithEvictInterval(d time.Duration) NodeConfig { c.evictInterval = d; return c }

func (c NodeConfig) WithSupervise(s supervise.Config) NodeConfig { c.supervise = s; return c }

// Metric reads one family by its public name from the node's registry,
// as a scrape would: the child with exactly these label values, or with
// none given the sum of every child. The family must exist.
func Metric(t testing.TB, n *Node, family string, labelValues ...string) uint64 {
	t.Helper()
	for _, f := range n.Telemetry().Gather() {
		if f.Name != family {
			continue
		}
		var sum float64
		for _, s := range f.Samples {
			if len(labelValues) == 0 || slices.Equal(s.LabelValues, labelValues) {
				sum += s.Value
			}
		}
		return uint64(sum)
	}
	t.Fatalf("no family %s in the registry", family)
	return 0
}
