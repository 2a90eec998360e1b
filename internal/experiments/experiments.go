// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index in DESIGN.md): each runner builds
// the matching testbed(s), executes the workload, and prints rows shaped
// like the paper's. The cmd/vnetbench binary and the repository-root
// benchmarks both drive this package.
//
// Everything here is simulation: the package imports no live-node
// package (the real-socket overlay is measured by benchmark/), and
// TestFiguresGolden pins the fig5/fig8/fig9 series to testdata.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

// Experiment is one reproducible evaluation item.
type Experiment struct {
	ID    string // "fig8", "fig14", ...
	Title string
	Run   func(w io.Writer) error
}

var registry []Experiment

func register(id, title string, run func(w io.Writer) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the experiments in registration (paper) order.
func All() []Experiment { return registry }

// IDs returns the known experiment IDs.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Run executes one experiment by ID.
func Run(id string, w io.Writer) error {
	for _, e := range registry {
		if e.ID == id {
			fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
			return e.Run(w)
		}
	}
	known := IDs()
	sort.Strings(known)
	return fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}

// RunAll executes every experiment.
func RunAll(w io.Writer) error {
	for _, e := range registry {
		fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
		if err := e.Run(w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// --- shared testbed builders ---

func vnetpPair(dev phys.Device) *lab.Testbed {
	return lab.NewVNETPTestbed(sim.New(), lab.Config{Dev: dev, N: 2, Params: vnetpsim.DefaultParams()})
}

func nativePair(dev phys.Device) *lab.Testbed {
	return lab.NewNativeTestbed(sim.New(), dev, 2)
}

func mbps(bps float64) float64 { return bps / 1e6 }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
