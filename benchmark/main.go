// Command e2ebench is the repository's benchmark: two live overlay nodes
// on loopback UDP, the clock stopped at the receiving endpoint, and a
// per-layer cost budget beside the end-to-end numbers. README.md has
// the definitions; BENCHMARK.json at the repository root is the
// contract later changes are judged against.
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	e2ebench -all [-seed n] [-seconds s] [-quick] [-out result.json]
//	e2ebench compare <a.json> <b.json>
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// childEnv carries a roundSpec to a re-exec'd child. Each round runs in
// a fresh process so no round inherits another's heap, pools, sockets
// or scheduler state, and a wedged node can be killed.
const childEnv = "E2EBENCH_ROUND"

// rounds per workload in one run. Fewer, longer rounds would spread
// more: best-of and median-of need several to work with.
const roundsPerRun = 5

func main() {
	if runChild() {
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// runChild runs one round and prints its result if this process was
// started as a round child; it reports whether it was.
func runChild() bool {
	raw := os.Getenv(childEnv)
	if raw == "" {
		return false
	}
	var spec roundSpec
	var res roundResult
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		res.Error = "bad round spec: " + err.Error()
	} else {
		res = runRound(spec)
	}
	_ = json.NewEncoder(os.Stdout).Encode(res)
	return true
}

// plan is one invocation's work: which workloads, how many untraced and
// traced rounds of each, and how long each round's phases last.
type plan struct {
	workloads        []workload
	untraced, traced int
	seed             int64
	warmupS          float64
	streamS          float64
	echoS            float64
	probeIters       int
	outDir           string // trace files go here
}

// newPlan splits seconds of measuring across roundsPerRun rounds, each
// ~73 % stream and ~27 % echo (the 4 s : 1.5 s shape the estimators
// were validated on).
func newPlan(wls []workload, seed int64, seconds float64, quick bool) plan {
	per := seconds / roundsPerRun
	p := plan{workloads: wls, seed: seed, streamS: per * 8 / 11, echoS: per * 3 / 11, probeIters: 200_000}
	p.warmupS = min(0.5, p.streamS/4)
	if quick {
		p.warmupS, p.streamS, p.echoS, p.probeIters = 0.2, 0.6, 0.3, 20_000
	}
	return p
}

// spec is the plan's round for a workload; the caller marks it traced,
// gives it a trace file, or turns it into the probe child.
func (p plan) spec(wl workload) roundSpec {
	return roundSpec{Workload: wl.Name, Seed: p.seed, WarmupS: p.warmupS, StreamS: p.streamS, EchoS: p.echoS}
}

// spawn runs one round (or the layer probes) in a child process. A
// child that outlives its phases by more than the watchdog allowance is
// killed and reported as a failed round.
func spawn(spec roundSpec) roundResult {
	allowance := 20 * time.Second
	if spec.ProbeIters > 0 {
		allowance += 60 * time.Second
	}
	self, err := os.Executable()
	if err != nil {
		return roundResult{Error: err.Error()}
	}
	limit := time.Duration((spec.WarmupS+spec.StreamS+spec.EchoS)*float64(time.Second)) + allowance
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self)
	spec.StartUnixNano = time.Now().UnixNano()
	raw, _ := json.Marshal(spec)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.WaitDelay = 2 * time.Second
	runErr := cmd.Run() // waits for the child, killed or not
	var res roundResult
	if ctx.Err() != nil {
		return roundResult{Error: fmt.Sprintf("round wedged: killed after %v", limit)}
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		return roundResult{Error: fmt.Sprintf("round died: %v (%v)", runErr, err)}
	}
	return res
}

// run executes the plan, rounds interleaved round-robin across the
// workloads so slow machine drift hits all of them alike. The last
// traced round of a workload writes the trace file and is followed by
// the probe child.
func (p plan) run(progress func(string)) map[string][]round {
	out := map[string][]round{}
	for r := 0; r < max(p.untraced, p.traced); r++ {
		for _, wl := range p.workloads {
			if r < p.traced {
				spec := p.spec(wl)
				spec.Traced = true
				if r == p.traced-1 {
					spec.TraceFile = filepath.Join(p.outDir, wl.Name+".trace.json")
				}
				res := spawn(spec)
				out[wl.Name] = append(out[wl.Name], round{traced: true, res: res})
				progress(roundLine(wl, r, true, res))
			}
			if r < p.untraced {
				res := spawn(p.spec(wl))
				out[wl.Name] = append(out[wl.Name], round{res: res})
				progress(roundLine(wl, r, false, res))
			}
			if r == p.traced-1 {
				spec := p.spec(wl)
				spec.ProbeIters = p.probeIters
				res := spawn(spec)
				out[wl.Name] = append(out[wl.Name], round{traced: true, probes: true, res: res})
				if res.Error != "" {
					progress(fmt.Sprintf("# %s layer probes: FAILED: %s", wl.Name, res.Error))
				}
			}
		}
	}
	return out
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (the benchmark contract's mode)")
	all := fs.Bool("all", false, "run every workload, untraced and traced, and print every metric")
	seed := fs.Int64("seed", 1, "drives every random choice: IMIX sizes, MAC draws, the tenant key")
	seconds := fs.Float64("seconds", 20, "seconds of measuring per workload, split across the rounds")
	traceMode := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	quick := fs.Bool("quick", false, "with -all: 1 short round each way and 20k-iteration probes (a smoke test, not a measurement)")
	outPath := fs.String("out", "", "with -all: also write the results to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error, code int) int {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return code
	}
	root, err := findRoot()
	if err != nil {
		return fail(err, 2)
	}

	var p plan
	switch {
	case *all:
		p = newPlan(workloads, *seed, *seconds, *quick)
		p.untraced, p.traced = roundsPerRun, 3
		if *quick {
			p.untraced, p.traced = 1, 1
		}
	case *name != "":
		wl, err := findWorkload(*name)
		if err != nil {
			return fail(err, 2)
		}
		p = newPlan([]workload{wl}, *seed, *seconds, false)
		p.untraced, p.traced = roundsPerRun, 0
		if *traceMode == 1 {
			p.untraced, p.traced = 2, 3
		}
	default:
		fs.Usage()
		return 2
	}
	p.outDir = filepath.Join(root, "benchmark", "out")
	fmt.Println(loopbackNote)
	rep := newReport(p, p.run(func(s string) { fmt.Println(s) }))
	rep.print(os.Stdout)
	if *all {
		rep.Commit = gitCommit(root)
		if *outPath != "" {
			if err := rep.write(*outPath); err != nil {
				return fail(err, 1)
			}
		}
		if !*quick {
			if err := rep.appendHistory(filepath.Join(root, "benchmark", "history.jsonl")); err != nil {
				return fail(err, 1)
			}
		}
	} else {
		// The contract's last line: one JSON object, end-to-end metrics
		// untraced, per-layer metrics traced.
		line, _ := json.Marshal(rep.Workloads[0].contractLine(*traceMode == 1))
		fmt.Println(string(line))
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

const loopbackNote = "# two live overlay nodes in one process; traffic crosses this host's loopback interface, not a real link"

// findRoot locates the repository root (the directory holding
// BENCHMARK.json) from the working directory: the launcher runs the
// benchmark from the root, go test from benchmark/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root")
}
