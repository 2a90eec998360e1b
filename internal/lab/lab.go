// Package lab assembles simulated testbeds: clusters of hosts running
// VNET/P-connected VMs, mirroring the paper's experimental setups (two
// directly connected machines for the microbenchmarks, a six-node switched
// cluster for HPCC/NAS). The same builders serve tests, benchmarks, and
// the experiment harness.
package lab

import (
	"fmt"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/ipv4"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/virtio"
	"vnetp/internal/vmm"
	"vnetp/internal/vnetpsim"
)

// EncapOverhead is the per-datagram byte overhead of carrying a guest
// frame across the overlay (inner Ethernet header + outer IP/UDP +
// encapsulation header; the outer Ethernet framing is additional wire
// cost).
const EncapOverhead = ethernet.HeaderLen + ipv4.Overhead + bridge.EncapHeaderLen

// GuestMTUFor returns the largest guest MTU whose encapsulated packets
// still fit in one physical-MTU datagram — the adjustment the paper makes
// for the jumbo-frame experiments ("we adjusted the VNET/P MTU so that the
// ultimate encapsulated packets will fit into these frames without
// fragmentation").
func GuestMTUFor(dev phys.Device) int {
	mtu := dev.MTU - EncapOverhead
	if mtu > ethernet.MaxMTU {
		mtu = ethernet.MaxMTU
	}
	return mtu
}

// Node is one cluster member: a host running one VM whose virtio NIC is
// registered with the host's VNET/P core.
type Node struct {
	Index  int
	Host   *vmm.Host
	VM     *vmm.VM
	NIC    *virtio.NIC
	Core   *vnetpsim.VNETP
	Bridge *vnetpsim.Bridge
	Iface  *vnetpsim.Iface
}

// MAC returns the node's guest MAC address.
func (n *Node) MAC() ethernet.MAC { return n.NIC.MAC }

// Cluster is a set of VNET/P nodes on one interconnect with a full mesh
// of overlay links and per-MAC routes.
type Cluster struct {
	Eng   *sim.Engine
	Dev   phys.Device
	Net   *vmm.Network
	Model *phys.CostModel
	Nodes []*Node
}

// Config parameterizes a cluster build.
type Config struct {
	Dev      phys.Device
	N        int
	Params   vnetpsim.Params
	Model    *phys.CostModel // nil selects phys.DefaultModel
	GuestMTU int             // 0 selects GuestMTUFor(Dev)
	// BridgeSharesDispatcher co-locates the bridge thread with the first
	// packet dispatcher on one core (the 1-core point of the paper's
	// Fig. 5 scaling experiment).
	BridgeSharesDispatcher bool
}

func hostName(i int) string { return fmt.Sprintf("host%d", i) }

// LinkID names the overlay link from one host toward another.
func LinkID(to int) string { return fmt.Sprintf("to-%d", to) }

// IfaceName is the interface name each node registers its guest NIC
// under.
const IfaceName = "nic0"

// NewCluster builds an n-node VNET/P cluster: one host per node, one VM
// per host (as in the paper's cluster tests), virtio NICs registered with
// each host's VNET/P core, a full mesh of UDP overlay links, and unicast
// routes for every guest MAC.
func NewCluster(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.Model == nil {
		cfg.Model = phys.DefaultModel()
	}
	if cfg.GuestMTU == 0 {
		cfg.GuestMTU = GuestMTUFor(cfg.Dev)
	}
	c := &Cluster{Eng: eng, Dev: cfg.Dev, Model: cfg.Model, Net: vmm.NewNetwork(eng, cfg.Dev)}
	wc := sim.WorkerConfig{Yield: cfg.Params.Yield, TSleep: cfg.Params.TSleep, TNoWork: cfg.Params.TNoWork}
	for i := 0; i < cfg.N; i++ {
		host := c.Net.AddHost(hostName(i), cfg.Model)
		vm := vmm.NewVM(host, fmt.Sprintf("vm%d", i))
		nic := virtio.NewNIC(ethernet.LocalMAC(uint32(i+1)), cfg.GuestMTU)
		vcore := vnetpsim.New(host, cfg.Params)
		var shared *sim.Worker
		if cfg.BridgeSharesDispatcher {
			shared = vcore.Dispatchers()[0]
		}
		br := vnetpsim.NewBridge(host, wc, shared)
		br.CutThrough = cfg.Params.CutThrough
		br.Deliver = vcore.DeliverFromWire
		vcore.Bridge = br
		ifc := vcore.Register(IfaceName, vm, nic)
		c.Nodes = append(c.Nodes, &Node{
			Index: i, Host: host, VM: vm, NIC: nic,
			Core: vcore, Bridge: br, Iface: ifc,
		})
	}
	// Full mesh of links and routes.
	for i, ni := range c.Nodes {
		// Local guest's own MAC terminates here.
		ni.Core.Table.AddRoute(core.Route{
			DstMAC: ni.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestInterface, ID: IfaceName},
		})
		for j, nj := range c.Nodes {
			if i == j {
				continue
			}
			ni.Bridge.AddLink(vnetpsim.LinkConfig{ID: LinkID(j), RemoteHost: hostName(j), Proto: vnetpsim.UDP})
			ni.Core.Table.AddRoute(core.Route{
				DstMAC: nj.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
				Dest: core.Destination{Type: core.DestLink, ID: LinkID(j)},
			})
		}
	}
	return c
}

// routeToIface builds the unicast route delivering mac to a local
// interface.
func routeToIface(mac ethernet.MAC, iface string) core.Route {
	return core.Route{
		DstMAC: mac, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: iface},
	}
}

// routeToLink builds the unicast route forwarding mac over a link.
func routeToLink(mac ethernet.MAC, link string) core.Route {
	return core.Route{
		DstMAC: mac, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: link},
	}
}

// NewPair builds the two directly connected machines used for the
// microbenchmarks (paper Sect. 5.1).
func NewPair(eng *sim.Engine, dev phys.Device, params vnetpsim.Params) *Cluster {
	return NewCluster(eng, Config{Dev: dev, N: 2, Params: params})
}
