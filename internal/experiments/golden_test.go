package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from this run")

const (
	goldenPath = "testdata/figures.golden"
	// goldenTol is the relative tolerance on every series, both ways. The
	// simulation is deterministic (TestExperimentsDeterministic), so the
	// slack only has to absorb last-bit float differences between
	// architectures (fused multiply-add), not noise.
	goldenTol = 1e-6
)

// series is one pinned number of a figure.
type series struct {
	Name  string // "fig8 tcp Native-1G"
	Value float64
	Unit  string
}

// figureSeries runs the fig5 dispatcher sweep, the fig8 throughput chart
// and the fig9 latency sweep and flattens every point into one series.
func figureSeries() []series {
	var out []series
	for _, r := range measureFig5() {
		out = append(out, series{fmt.Sprintf("fig5 udp cores=%d", r.Cores), mbps(r.Goodput), "MB/s"})
	}
	for _, r := range measureFig8() {
		out = append(out,
			series{"fig8 tcp " + r.Label, mbps(r.TCP), "MB/s"},
			series{"fig8 udp " + r.Label, mbps(r.UDP), "MB/s"})
	}
	for _, r := range measureFig9() {
		for _, c := range []struct {
			net string
			rtt float64
		}{
			{"Native-1G", us(r.Native1G)},
			{"VNET/P-1G", us(r.VNETP1G)},
			{"Native-10G", us(r.Native10G)},
			{"VNET/P-10G", us(r.VNETP10G)},
		} {
			out = append(out, series{fmt.Sprintf("fig9 rtt %s %dB", c.net, r.Size), c.rtt, "us"})
		}
	}
	return out
}

// compareSeries returns one line per disagreement between a run and the
// golden set: a value further than tol (relative) from its golden one in
// either direction, a changed unit, a golden series the run lacks, a
// series the golden set does not know.
func compareSeries(got, want []series, tol float64) []string {
	have := make(map[string]series, len(got))
	for _, s := range got {
		have[s.Name] = s
	}
	var diffs []string
	for _, w := range want {
		g, ok := have[w.Name]
		delete(have, w.Name)
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("missing: %s", w.Name))
		case g.Unit != w.Unit:
			diffs = append(diffs, fmt.Sprintf("unit: %s is in %s, golden %s", w.Name, g.Unit, w.Unit))
		case math.IsNaN(g.Value) || math.Abs(g.Value-w.Value) > tol*math.Abs(w.Value):
			diffs = append(diffs, fmt.Sprintf("value: %s = %v %s, golden %v", w.Name, g.Value, g.Unit, w.Value))
		}
	}
	for _, s := range got { // got's order, so the report is stable
		if _, extra := have[s.Name]; extra {
			diffs = append(diffs, fmt.Sprintf("unexpected: %s", s.Name))
		}
	}
	return diffs
}

// The golden file is one series a line: value, unit, then the name (which
// may hold spaces) to the end of the line.
func writeGolden(path string, ss []series) error {
	var b strings.Builder
	for _, s := range ss {
		fmt.Fprintf(&b, "%s %s %s\n", strconv.FormatFloat(s.Value, 'g', -1, 64), s.Unit, s.Name)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func readGolden(path string) ([]series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []series
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), " ", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, series{Name: parts[2], Value: v, Unit: parts[1]})
	}
	return out, sc.Err()
}

// TestFiguresGolden pins every point of the deterministic fig5/fig8/fig9
// sweeps against testdata/figures.golden. A change that moves a figure on
// purpose reruns with `go test ./internal/experiments -run FiguresGolden
// -update` and commits the new file with its reason.
func TestFiguresGolden(t *testing.T) {
	got := figureSeries()
	if *update {
		if err := writeGolden(goldenPath, got); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 38 {
		t.Errorf("golden file pins %d series, want 38 (fig5 4 + fig8 14 + fig9 20)", len(want))
	}
	for _, d := range compareSeries(got, want, goldenTol) {
		t.Error(d)
	}
}

// TestCompareSeriesRejects: the comparer behind the golden gate flags a
// value just past the tolerance in either direction, a missing series and
// an unexpected one — and nothing else.
func TestCompareSeriesRejects(t *testing.T) {
	want := []series{{"a", 100, "MB/s"}, {"b", 50, "us"}}
	const tol = 0.01
	for _, tc := range []struct {
		name string
		got  []series
		diff string // "" = accepted
	}{
		{"equal", []series{{"a", 100, "MB/s"}, {"b", 50, "us"}}, ""},
		{"inside tolerance", []series{{"a", 100.9, "MB/s"}, {"b", 49.6, "us"}}, ""},
		{"too high", []series{{"a", 101.1, "MB/s"}, {"b", 50, "us"}}, "value: a"},
		{"too low", []series{{"a", 100, "MB/s"}, {"b", 49.4, "us"}}, "value: b"},
		{"latency is gated too", []series{{"a", 100, "MB/s"}, {"b", 60, "us"}}, "value: b"},
		{"not a number", []series{{"a", math.NaN(), "MB/s"}, {"b", 50, "us"}}, "value: a"},
		{"unit changed", []series{{"a", 100, "MB/s"}, {"b", 50, "ms"}}, "unit: b"},
		{"missing", []series{{"a", 100, "MB/s"}}, "missing: b"},
		{"unexpected", []series{{"a", 100, "MB/s"}, {"b", 50, "us"}, {"c", 1, "us"}}, "unexpected: c"},
	} {
		diffs := compareSeries(tc.got, want, tol)
		switch {
		case tc.diff == "" && len(diffs) != 0:
			t.Errorf("%s: rejected: %v", tc.name, diffs)
		case tc.diff != "" && (len(diffs) != 1 || !strings.HasPrefix(diffs[0], tc.diff)):
			t.Errorf("%s: diffs = %v, want one starting %q", tc.name, diffs, tc.diff)
		}
	}

	// The same on the real set at the real tolerance: nudging any one of
	// the pinned values past goldenTol, up or down, fails the gate.
	golden, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range golden {
		for _, factor := range []float64{1 + 2*goldenTol, 1 - 2*goldenTol} {
			got := append([]series(nil), golden...)
			got[i].Value *= factor
			if diffs := compareSeries(got, golden, goldenTol); len(diffs) != 1 || !strings.HasPrefix(diffs[0], "value: "+s.Name) {
				t.Errorf("%s × %v: diffs = %v, want its value flagged", s.Name, factor, diffs)
			}
		}
	}
}
