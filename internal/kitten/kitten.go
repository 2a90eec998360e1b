// Package kitten models the VNET/P port to the Kitten lightweight kernel
// (paper Sect. 6.3): Palacios embedded in Kitten is a type-I VMM with a
// minimal in-kernel service set, so the bridge runs in a privileged
// *service VM* ("bridge VM") with direct InfiniBand access, and Ethernet
// frames map onto InfiniBand frames rather than UDP datagrams.
//
// Architecturally the guest-visible abstraction is identical to the Linux
// embedding; the datapath differs by the bridge-VM hop, modeled as an
// extra per-packet cost on the bridge path (tap crossings into the
// service VM, a world switch, and the Ethernet-to-IB frame mapping).
package kitten

import (
	"time"

	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

// BridgeVMExtra is the per-packet cost of routing through the bridge VM:
// two tap crossings, a world switch into the service VM, and IB frame
// mapping. Calibrated so the 8900-byte ttcp measurement lands at the
// paper's 4.0 Gbps against 6.5 Gbps native IPoIB-RC.
const BridgeVMExtra = 13 * time.Microsecond

// NewTestbed builds an n-node Kitten/InfiniBand VNET/P testbed: the
// standard cluster on the Kitten-IB fabric with every bridge paying the
// service-VM hop.
func NewTestbed(eng *sim.Engine, n int) *lab.Testbed {
	tb := lab.NewVNETPTestbed(eng, lab.Config{
		Dev: phys.KittenIB, N: n, Params: vnetpsim.DefaultParams(),
	})
	for _, node := range tb.VNETP.Nodes {
		node.Bridge.Extra = BridgeVMExtra
	}
	return tb
}

// NewNativeTestbed builds the native comparator: IP-over-InfiniBand in
// reliable-connected mode on the same fabric, no virtualization.
func NewNativeTestbed(eng *sim.Engine, n int) *lab.Testbed {
	return lab.NewNativeTestbed(eng, phys.KittenIB, n)
}
