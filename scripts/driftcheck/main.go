// Command driftcheck keeps DESIGN.md and the code in lockstep on the
// two observability vocabularies tooling depends on:
//
//   - DESIGN.md's metrics index, the block between the metrics-index
//     markers, is generated: one line per family a node registers, from
//     the registry's own name, type, label names and help. driftcheck
//     boots a node, renders the block and fails when DESIGN.md's differs;
//     with -write (`make metrics-index`) it rewrites it instead;
//   - every trace stage constant in internal/trace must appear on the
//     "Stages:" line of DESIGN.md's tracing section, and vice versa (a
//     text scan of the package's sources).
//
// Run by `make verify` and CI, so adding, renaming or re-describing a
// metric, or adding a stage, without updating the documentation fails
// the gate. The node binds a loopback UDP port; nothing leaves the host.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"vnetp/internal/overlay"
	"vnetp/internal/telemetry"
)

const (
	indexBegin = "<!-- metrics-index:begin -->\n"
	indexEnd   = "<!-- metrics-index:end -->\n"
)

var (
	stageConstRe = regexp.MustCompile(`Stage[A-Za-z]+\s*=\s*"([a-z_]+)"`)
	stageTokenRe = regexp.MustCompile("`([a-z_]+)`")
)

func main() {
	write := flag.Bool("write", false, "rewrite DESIGN.md's metrics index instead of checking it")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	designPath := filepath.Join(root, "DESIGN.md")
	design, err := os.ReadFile(designPath)
	if err != nil {
		fatal(err)
	}
	head, rest, okBegin := strings.Cut(string(design), indexBegin)
	docIndex, tail, okEnd := strings.Cut(rest, indexEnd)
	if !okBegin || !okEnd {
		fatal(fmt.Errorf("DESIGN.md has no metrics-index:begin/end markers"))
	}
	n, err := overlay.NewNode("driftcheck", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	fams := n.Telemetry().Gather()
	n.Close()
	index := metricsIndex(fams)
	if *write {
		if err := os.WriteFile(designPath, []byte(head+indexBegin+index+indexEnd+tail), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("driftcheck: wrote %d metric families to DESIGN.md\n", len(fams))
		return
	}

	codeStages, err := collectCodeStages(filepath.Join(root, "internal", "trace"))
	if err != nil {
		fatal(err)
	}
	docStages, err := collectDesignStages(string(design))
	if err != nil {
		fatal(err)
	}
	failures := 0
	failures += diff("metrics index line", "the registry", "DESIGN.md (run `make metrics-index`)", lineSet(index), lineSet(docIndex))
	failures += diff("metrics index line", "DESIGN.md", "the registry (run `make metrics-index`)", lineSet(docIndex), lineSet(index))
	failures += diff("stage", "code", "DESIGN.md", codeStages, docStages)
	failures += diff("stage", "DESIGN.md", "code", docStages, codeStages)
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "driftcheck: %d line(s) or name(s) drifted between code and DESIGN.md\n", failures)
		os.Exit(1)
	}
	fmt.Printf("driftcheck: %d metric families and %d trace stages in sync\n",
		len(fams), len(codeStages))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "driftcheck: %v\n", err)
	os.Exit(1)
}

// metricsIndex renders the generated block: a line per family, sorted by
// name as Gather returns them.
func metricsIndex(fams []telemetry.FamilySnapshot) string {
	var b strings.Builder
	for _, f := range fams {
		labels := ""
		if len(f.LabelNames) > 0 {
			labels = "{" + strings.Join(f.LabelNames, ",") + "}"
		}
		fmt.Fprintf(&b, "* `%s%s` (%s): %s\n", f.Name, labels, f.Type, f.Help)
	}
	return b.String()
}

func lineSet(block string) map[string]bool {
	lines := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(block, "\n"), "\n") {
		lines[l] = true
	}
	return lines
}

// diff reports every name in a that is missing from b.
func diff(kind, aName, bName string, a, b map[string]bool) int {
	var missing []string
	for name := range a {
		if !b[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "driftcheck: %s %q is in %s but not in %s\n", kind, name, aName, bName)
	}
	return len(missing)
}

// collectCodeStages pulls the Stage* string constants from the trace
// package sources.
func collectCodeStages(dir string) (map[string]bool, error) {
	stages := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, m := range stageConstRe.FindAllStringSubmatch(string(b), -1) {
			stages[m[1]] = true
		}
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("no Stage constants found under %s", dir)
	}
	return stages, nil
}

// collectDesignStages parses the "Stages:" sentence of the tracing
// section: every backticked token up to the terminating period.
func collectDesignStages(design string) (map[string]bool, error) {
	idx := strings.Index(design, "Stages:")
	if idx < 0 {
		return nil, fmt.Errorf(`DESIGN.md has no "Stages:" line`)
	}
	rest := design[idx:]
	end := strings.Index(rest, ".")
	if end < 0 {
		end = len(rest)
	}
	stages := map[string]bool{}
	for _, m := range stageTokenRe.FindAllStringSubmatch(rest[:end], -1) {
		stages[m[1]] = true
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf(`DESIGN.md "Stages:" line lists no stages`)
	}
	return stages, nil
}
