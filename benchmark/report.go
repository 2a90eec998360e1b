package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadReport is one workload's aggregated outcome.
type workloadReport struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"` // frames handed to Send, all rounds
	Failed    uint64             `json:"failed"`    // of those, not delivered intact
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// RoundGoodput lists each untraced round's goodput in run order, so
	// the spread behind the best-of is on record.
	RoundGoodput []float64 `json:"round_goodput_MBps,omitempty"`
	Echoes       int       `json:"echoes_per_round,omitempty"` // RTT samples behind each round's percentiles (median round)
}

// report is one invocation's result file.
type report struct {
	Commit    string           `json:"commit"`
	Date      string           `json:"date"`
	Seed      int64            `json:"seed"`
	Nproc     int              `json:"nproc"`
	StreamS   float64          `json:"stream_s_per_round"`
	EchoS     float64          `json:"echo_s_per_round"`
	Rounds    int              `json:"untraced_rounds"`
	Link      string           `json:"link"`
	Workloads []workloadReport `json:"workloads"`
}

func newReport(p plan, rounds map[string][]round) *report {
	rep := &report{
		Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
		Seed: p.seed, Nproc: runtime.NumCPU(), StreamS: p.streamS, EchoS: p.echoS, Rounds: p.untraced,
		Link: "host loopback (127.0.0.1), not a real link",
	}
	for _, wl := range p.workloads {
		rs := rounds[wl.Name]
		w := workloadReport{Workload: wl.Name, Correct: true}
		var echoes []float64
		for i, r := range rs {
			if r.res.Error != "" {
				w.Correct = false
				w.Failures = append(w.Failures, fmt.Sprintf("round %d: %s", i, r.res.Error))
				continue
			}
			if len(r.res.Failures) > 0 {
				w.Correct = false
				w.Failures = append(w.Failures, fmt.Sprintf("round %d: %s", i, strings.Join(r.res.Failures, " ")))
			}
			if r.probes {
				continue
			}
			w.Attempted += r.res.Sent
			w.Failed += r.res.Lost
			if !r.traced {
				w.RoundGoodput = append(w.RoundGoodput, r.res.goodput())
			}
			echoes = append(echoes, float64(r.res.Echoes))
		}
		w.Echoes = int(median(echoes))
		if p.untraced > 0 {
			w.EndToEnd = aggregateEndToEnd(rs)
		}
		if p.traced > 0 {
			w.PerLayer = aggregatePerLayer(rs)
		}
		for name, v := range w.EndToEnd {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				w.Correct = false
				w.Failures = append(w.Failures, fmt.Sprintf("%s = %v: nothing was measured", name, v))
			}
		}
		rep.Workloads = append(rep.Workloads, w)
	}
	return rep
}

func (rep *report) correct() bool {
	for _, w := range rep.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contractLine is the benchmark contract's result object: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func (w workloadReport) contractLine(traced bool) contractResult {
	defs, vals := endToEnd, w.EndToEnd
	if traced {
		defs, vals = perLayer, w.PerLayer
	}
	c := contractResult{Correct: w.Correct, Attempted: max(w.Attempted, 1), Failed: w.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		c.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return c
}

func roundLine(wl workload, r int, traced bool, res roundResult) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	if res.Error != "" {
		return fmt.Sprintf("# %s round %d (%s): FAILED: %s", wl.Name, r, kind, res.Error)
	}
	where := ""
	if res.Lost > 0 {
		// Say where the lost frames went: the ledger reasons that fired.
		for _, name := range []string{"overlay.drops_unexplained", "bench.credit_stalls"} {
			where += fmt.Sprintf(" %s=%.0f", name, res.Layers[name])
		}
		for _, reason := range ledgerReasons {
			if v := res.Layers["overlay.drop_"+reason]; v != 0 {
				where += fmt.Sprintf(" drop_%s=%.0f", reason, v)
			}
		}
	}
	return fmt.Sprintf("# %s round %d (%s): %.2f MB/s (best slice %.2f) %.0f frames/s  rtt p50 %.1f us p99 %.1f us (best slice %.1f / %.1f, %d echoes)  setup %.4f s  lost %d of %d%s %s",
		wl.Name, r, kind, res.goodput(), res.BestSliceMBps, ratio(res.Frames, res.WallS), res.RTTp50, res.RTTp99, lowest(res.SliceRTTp50), lowest(res.SliceRTTp99), res.Echoes,
		res.SetupS, res.Lost, res.Sent, where, strings.Join(res.Failures, " "))
}

// print writes every metric by name with its unit, one line each, and
// the per-layer budget where a traced round ran.
func (rep *report) print(w io.Writer) {
	for _, wr := range rep.Workloads {
		verdict := "ok"
		if !wr.Correct {
			verdict = "FAILED: " + strings.Join(wr.Failures, "; ")
		}
		fmt.Fprintf(w, "%s  output checks %s  attempted %d  failed %d\n", wr.Workload, verdict, wr.Attempted, wr.Failed)
		if wr.EndToEnd != nil {
			for _, d := range endToEnd {
				fmt.Fprintf(w, "%s  %-40s %14.4f %s\n", wr.Workload, d.Name, wr.EndToEnd[d.Name], d.Unit)
			}
			fmt.Fprintf(w, "%s  # throughput: best ~200 ms slice; latency: quietest tenth of the echo slices, ~%d echoes per round\n", wr.Workload, wr.Echoes)
		}
		if wr.PerLayer != nil {
			for _, d := range perLayer {
				fmt.Fprintf(w, "%s  %-40s %14.4f %s\n", wr.Workload, d.Name, wr.PerLayer[d.Name], d.Unit)
			}
			printBudget(w, wr)
		}
	}
}

// printBudget is the live Fig. 7 table: the probes on the blocking path
// against the CPU the process actually spent per delivered frame.
func printBudget(w io.Writer, wr workloadReport) {
	L := wr.PerLayer
	frags := L["bridge.frags_per_frame"]
	fmt.Fprintf(w, "%s  # per-frame budget (ns per inner frame, %.2f datagrams per frame)\n", wr.Workload, frags)
	for _, b := range budgetLines {
		v := L[b.name]
		if b.perDatagram {
			v *= frags
		}
		fmt.Fprintf(w, "%s  #   %-24s %10.0f\n", wr.Workload, b.name, v)
	}
	fmt.Fprintf(w, "%s  #   %-24s %10.0f\n", wr.Workload, "= budget.attributed_ns", L["budget.attributed_ns"])
	fmt.Fprintf(w, "%s  #   %-24s %10.0f  (unattributed %.1f %%: hand-offs, wakeups, GC, locks, the generator's %.0f ns)\n",
		wr.Workload, "proc.cpu_ns_per_frame", L["proc.cpu_ns_per_frame"], L["budget.unattributed_pct"], L["bench.gen_ns_per_frame"])
	// Self time of the Send call: its span minus the probes of the calls
	// it makes inline. Meaningful on the synchronous TX leg only.
	if self := L["overlay.send_p50_ns"] - L["bridge.encap_ns"] - (L["seal.seal_ns"]+L["wire.sendto_ns"])*frags; self > 0 {
		fmt.Fprintf(w, "%s  #   overlay.send p50 %.0f ns, self (minus encap, seal, sendto) %.0f ns\n", wr.Workload, L["overlay.send_p50_ns"], self)
	} else {
		fmt.Fprintf(w, "%s  #   overlay.send p50 %.0f ns (less than its probes: the batched leg only enqueues, or the probes ran in a slower moment)\n", wr.Workload, L["overlay.send_p50_ns"])
	}
}

func (rep *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// appendHistory adds one line per full run — commit, date, seed, nproc
// and every end-to-end value — to the benchmark's trajectory file.
func (rep *report) appendHistory(path string) error {
	line := map[string]any{"commit": rep.Commit, "date": rep.Date, "seed": rep.Seed, "nproc": rep.Nproc}
	for _, w := range rep.Workloads {
		vals := map[string]float64{"loss_pct": w.PerLayer["loss_pct"]}
		for k, v := range w.EndToEnd {
			vals[k] = v
		}
		line[w.Workload] = vals
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitCommit names the commit under test, when there is a git checkout
// and a git to ask.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchmarkJSON is the part of the contract file compare and the tests
// read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// lossBoundPP is loss_pct's regression bound in percentage points: it
// is 0 on a healthy run, so it cannot carry a relative bound.
const lossBoundPP = 0.01

// verdict compares b against a for one metric: "worse" or "better" when
// b differs from a by more than bound (a share of a) in that direction,
// "agree" otherwise.
func verdict(a, b, bound float64, better string) string {
	delta := b - a
	if better == "higher" {
		delta = -delta
	}
	switch limit := bound * math.Abs(a); {
	case delta > limit:
		return "worse"
	case delta < -limit:
		return "better"
	}
	return "agree"
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <a.json> <b.json>")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	contract, err := loadBenchmarkJSON(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	var reps [2]report
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", path, err)
			return 2
		}
	}
	worse := compareReports(os.Stdout, contract, &reps[0], &reps[1])
	if worse > 0 {
		fmt.Printf("%d metric(s) worse than the bound allows\n", worse)
		return 1
	}
	return 0
}

// compareReports prints, per workload and end-to-end metric, both
// values, the change, the bound and a verdict, and returns how many
// were worse.
func compareReports(w io.Writer, contract *benchmarkJSON, a, b *report) (worse int) {
	fmt.Fprintf(w, "a: commit %s seed %d   b: commit %s seed %d\n", a.Commit, a.Seed, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %8s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	row := func(wl, metric string, va, vb float64, change, bound, v string) {
		fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %9s %8s  %s\n", wl, metric, va, vb, change, bound, v)
		if v == "worse" {
			worse++
		}
	}
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-16s missing from b\n", wa.Workload)
			worse++
			continue
		}
		for _, m := range contract.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			row(wa.Workload, m.Name, va, vb, fmt.Sprintf("%+.1f%%", ratio(vb-va, va)*100),
				fmt.Sprintf("%.0f%%", m.Bound*100), verdict(va, vb, m.Bound, m.Better))
		}
		la, lb := wa.PerLayer["loss_pct"], wb.PerLayer["loss_pct"]
		v := "agree"
		if lb-la > lossBoundPP {
			v = "worse"
		} else if la-lb > lossBoundPP {
			v = "better"
		}
		row(wa.Workload, "loss_pct", la, lb, fmt.Sprintf("%+.3fpp", lb-la), fmt.Sprintf("%.2fpp", lossBoundPP), v)
	}
	return worse
}
