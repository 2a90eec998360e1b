package experiments

import (
	"fmt"
	"io"

	"vnetp/internal/hpcc"
	"vnetp/internal/lab"
	"vnetp/internal/netstack"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func init() {
	register("collectives", "MPI collective completion times: Native vs VNET/P vs VNET/P+ (supports the Fig 14 analysis)", runCollectives)
}

func runCollectives(w io.Writer) error {
	const (
		hosts = 4
		perVM = 4
		size  = 8192
		reps  = 8
	)
	measure := func(kind string) []hpcc.CollectiveResult {
		e := sim.New()
		var base []*netstack.Stack
		switch kind {
		case "native":
			base = lab.NewNativeTestbed(e, phys.Eth10G, hosts).Stacks
		case "vnetp":
			base = lab.NewVNETPTestbed(e, lab.Config{Dev: phys.Eth10G, N: hosts, Params: vnetpsim.DefaultParams()}).Stacks
		case "vnetp+":
			base = lab.NewVNETPTestbed(e, lab.Config{Dev: phys.Eth10G, N: hosts, Params: vnetpsim.PlusParams()}).Stacks
		}
		var ranks []*netstack.Stack
		for i := 0; i < hosts; i++ {
			for k := 0; k < perVM; k++ {
				ranks = append(ranks, base[i])
			}
		}
		return hpcc.Collectives(e, ranks, size, reps)
	}
	nat := measure("native")
	vnp := measure("vnetp")
	vpp := measure("vnetp+")
	fmt.Fprintf(w, "%d ranks (%d hosts x %d), %d-byte payloads, 10G:\n", hosts*perVM, hosts, perVM, size)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %10s\n", "collective", "Native", "VNET/P", "VNET/P+", "P/native")
	for i := range nat {
		fmt.Fprintf(w, "%-12s %9.1fus %9.1fus %9.1fus %9.2fx\n",
			nat[i].Op, us(nat[i].PerOp), us(vnp[i].PerOp), us(vpp[i].PerOp),
			float64(vnp[i].PerOp)/float64(nat[i].PerOp))
	}
	return nil
}
