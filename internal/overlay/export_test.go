package overlay

import (
	"slices"
	"testing"
	"time"

	"vnetp/internal/supervise"
)

// StatRows hands the external tests the node's LIST STATS table, so the
// scrape cross-check ranges over the rows the renderer does.
func (n *Node) StatRows() []statRow { return n.statRows() }

// TxBatchMax is the most frames the TX ring's sender takes per wakeup.
const TxBatchMax = txBatchMax

// RingConfig is a node configuration whose links run the TX ring.
func RingConfig() NodeConfig { return NodeConfig{Adaptive: AdaptiveConfig{Enabled: true}} }

// WithTxRing, WithEvictInterval and WithSupervise hand the external tests
// NodeConfig's seams: a small TX ring, a fast eviction clock, a
// supervisor tuned for chaos.
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
