package npb

import (
	"time"

	"vnetp/internal/lab"
	"vnetp/internal/netstack"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

// Row is one line of the Fig. 14 table.
type Row struct {
	ID         string
	Native1G   float64 // Mop/s total
	VNETP1G    float64
	Ratio1G    float64
	Native10G  float64
	VNETP10G   float64
	Ratio10G   float64
	MopsAnchor float64 // nominal total Mop count used for all four columns
}

// PaperNative10G holds the paper's Native-10G Mop/s totals (Fig. 14),
// used to anchor each row's nominal op count; all other columns are
// simulation outputs.
var PaperNative10G = map[string]float64{
	"ep.B.8":  102.18,
	"ep.B.16": 208,
	"ep.C.8":  103.13,
	"ep.C.16": 206.22,
	"mg.B.8":  5110.29,
	"mg.B.16": 9137.26,
	"cg.B.8":  2096.64,
	"cg.B.16": 592.08,
	"ft.B.16": 1432.3,
	"is.B.8":  59.15,
	"is.B.16": 23.09,
	"is.C.8":  132.08,
	"is.C.16": 77.77,
	"lu.B.8":  7173.65,
	"lu.B.16": 12981.86,
	"sp.B.9":  2634.53,
	"sp.B.16": 3010.71,
	"bt.B.9":  5229.01,
	"bt.B.16": 6315.11,
}

// Rows lists the Fig. 14 table rows in paper order.
var Rows = []struct {
	Name  string
	Class byte
	Procs int
}{
	{"ep", 'B', 8}, {"ep", 'B', 16}, {"ep", 'C', 8}, {"ep", 'C', 16},
	{"mg", 'B', 8}, {"mg", 'B', 16},
	{"cg", 'B', 8}, {"cg", 'B', 16},
	{"ft", 'B', 16},
	{"is", 'B', 8}, {"is", 'B', 16}, {"is", 'C', 8}, {"is", 'C', 16},
	{"lu", 'B', 8}, {"lu", 'B', 16},
	{"sp", 'B', 9}, {"sp", 'B', 16},
	{"bt", 'B', 9}, {"bt", 'B', 16},
}

// vmLayout maps procs to the paper's VM/process layout (Sect. 5.5): 8
// procs = 2 VMs x 4; 9 procs = 4 VMs with 2-3 each; 16 procs = 4 VMs x 4.
func vmLayout(procs int) []int {
	switch procs {
	case 8:
		return []int{4, 4}
	case 9:
		return []int{3, 2, 2, 2}
	case 16:
		return []int{4, 4, 4, 4}
	default:
		// One VM per 4 procs, remainder spread.
		var l []int
		for p := procs; p > 0; p -= 4 {
			if p >= 4 {
				l = append(l, 4)
			} else {
				l = append(l, p)
			}
		}
		return l
	}
}

// stacksFor builds per-rank stacks in the paper's layout over the given
// device, virtualized (VNET/P) or native.
func stacksFor(eng *sim.Engine, dev phys.Device, procs int, virtualized bool) []*netstack.Stack {
	layout := vmLayout(procs)
	var out []*netstack.Stack
	if virtualized {
		tb := lab.NewVNETPTestbed(eng, lab.Config{Dev: dev, N: len(layout), Params: vnetpsim.DefaultParams()})
		for i, k := range layout {
			for j := 0; j < k; j++ {
				out = append(out, tb.Stacks[i])
			}
		}
		return out
	}
	tb := lab.NewNativeTestbed(eng, dev, len(layout))
	for i, k := range layout {
		for j := 0; j < k; j++ {
			out = append(out, tb.Stacks[i])
		}
	}
	return out
}

// RunConfig measures one benchmark under one configuration, returning the
// elapsed simulated time.
func RunConfig(name string, class byte, procs int, dev phys.Device, virtualized bool) time.Duration {
	spec := Specs(name, class, procs)
	if spec == nil {
		panic("npb: unknown benchmark " + name)
	}
	eng := sim.New()
	stacks := stacksFor(eng, dev, procs, virtualized)
	return Run(eng, stacks, spec)
}

// Table regenerates Fig. 14: every row under Native/VNET-P x 1G/10G.
func Table() []Row {
	out := make([]Row, 0, len(Rows))
	for _, rw := range Rows {
		spec := Specs(rw.Name, rw.Class, rw.Procs)
		id := spec.ID()
		n10 := RunConfig(rw.Name, rw.Class, rw.Procs, phys.Eth10G, false)
		v10 := RunConfig(rw.Name, rw.Class, rw.Procs, phys.Eth10G, true)
		n1 := RunConfig(rw.Name, rw.Class, rw.Procs, phys.Eth1G, false)
		v1 := RunConfig(rw.Name, rw.Class, rw.Procs, phys.Eth1G, true)
		// Anchor the nominal Mop count on the paper's Native-10G rate.
		mops := PaperNative10G[id] * n10.Seconds()
		row := Row{
			ID:         id,
			MopsAnchor: mops,
			Native10G:  mops / n10.Seconds(),
			VNETP10G:   mops / v10.Seconds(),
			Native1G:   mops / n1.Seconds(),
			VNETP1G:    mops / v1.Seconds(),
		}
		row.Ratio10G = row.VNETP10G / row.Native10G
		row.Ratio1G = row.VNETP1G / row.Native1G
		out = append(out, row)
	}
	return out
}
