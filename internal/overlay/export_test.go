package overlay

import (
	"slices"
	"testing"
)

// StatRows hands the external tests the node's LIST STATS table, so the
// scrape cross-check ranges over the rows the renderer does.
func (n *Node) StatRows() []statRow { return n.statRows() }

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
