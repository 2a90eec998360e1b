// Package vnetp is a Go reproduction of VNET/P (Xia et al., HPDC 2012):
// fast VMM-embedded overlay networking that bridges cloud and HPC
// resources by giving a set of VMs a single flat Ethernet LAN, carried as
// UDP-encapsulated frames over whatever the physical interconnect is.
//
// The library has two cooperating halves:
//
//   - A functional overlay (NewNode/Endpoint) that routes real Ethernet
//     frames between in-process endpoints and remote nodes over real UDP
//     sockets, using MAC-indexed routing tables with a routing cache,
//     VNET/U-compatible encapsulation with fragmentation/reassembly, and
//     a control-language console for dynamic reconfiguration.
//
//   - A deterministic performance simulation (NewSimEngine plus the
//     Cluster/Testbed builders) that models the full virtualization
//     datapath — VM exits, virtio rings, packet dispatchers in
//     guest-driven/VMM-driven/adaptive modes, the host bridge, and
//     physical interconnects from 1G Ethernet to Cray Gemini — and
//     regenerates every table and figure of the paper's evaluation
//     (RunExperiment).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-versus-measured results.
package vnetp

import (
	"io"

	"vnetp/internal/control"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/experiments"
	"vnetp/internal/faultnet"
	"vnetp/internal/lab"
	"vnetp/internal/overlay"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

// --- Layer-2 fundamentals ---

// MAC is a 48-bit Ethernet address.
type MAC = ethernet.MAC

// Frame is an Ethernet-II frame.
type Frame = ethernet.Frame

// Broadcast is the all-ones MAC address.
var Broadcast = ethernet.Broadcast

// ParseMAC parses "aa:bb:cc:dd:ee:ff".
func ParseMAC(s string) (MAC, error) { return ethernet.ParseMAC(s) }

// LocalMAC deterministically derives a locally administered unicast MAC
// from an id.
func LocalMAC(id uint32) MAC { return ethernet.LocalMAC(id) }

// --- Routing ---

// Route is one VNET routing rule; Destination its target.
type (
	Route       = core.Route
	Destination = core.Destination
	Qualifier   = core.Qualifier
	DestType    = core.DestType
)

// Route qualifier and destination-type values.
const (
	QualExact     = core.QualExact
	QualAny       = core.QualAny
	QualNot       = core.QualNot
	DestInterface = core.DestInterface
	DestLink      = core.DestLink
)

// NewRoutingTable returns a standalone VNET routing table (linear rules
// plus the hash routing cache).
func NewRoutingTable() *core.Table { return core.NewTable() }

// --- Functional overlay (real UDP sockets) ---

// Node is an overlay routing node; Endpoint an in-process guest NIC
// attached to one. NodeConfig tunes the datapath (flow cache, tracing,
// logging, anomaly watchdog).
type (
	Node       = overlay.Node
	Endpoint   = overlay.Endpoint
	NodeConfig = overlay.NodeConfig
)

// NewNode binds an overlay node to a UDP address with the default
// datapath configuration. Either way the node runs min(4, GOMAXPROCS)
// packet dispatchers — the real-socket analogue of the paper's
// multiple-packet-dispatcher VMM-driven mode (Sect. 4.3, Fig. 5).
func NewNode(name, bindAddr string) (*Node, error) { return overlay.NewNode(name, bindAddr) }

// NewNodeWithConfig binds an overlay node with an explicit datapath
// configuration.
func NewNodeWithConfig(name, bindAddr string, cfg NodeConfig) (*Node, error) {
	return overlay.NewNodeWithConfig(name, bindAddr, cfg)
}

// --- Link health and fault injection ---

// HealthConfig tunes a node's link health monitor (Node.EnableHealth);
// LinkState is a monitored link's liveness verdict.
type (
	HealthConfig = overlay.HealthConfig
	LinkState    = overlay.LinkState
)

// Link liveness states.
const (
	LinkUp       = overlay.LinkUp
	LinkDegraded = overlay.LinkDegraded
	LinkDown     = overlay.LinkDown
)

// DefaultHealthConfig returns moderate production-style heartbeat
// thresholds.
func DefaultHealthConfig() HealthConfig { return overlay.DefaultHealthConfig() }

// FaultConduit injects faults (loss, duplication, reordering, delay,
// partition) into a packet path; FaultConfig parameterizes it. Install
// one on an overlay link with Node.SetLinkFault or on a simulated host
// wire with vmm.Host.SetFault.
type (
	FaultConduit = faultnet.Conduit
	FaultConfig  = faultnet.Config
)

// NewFaultConduit builds a real-time fault conduit.
func NewFaultConduit(cfg FaultConfig) *FaultConduit { return faultnet.New(cfg) }

// NewControlDaemon exposes a node (or any control.Target) on a TCP
// control console speaking the VNET/U configuration language.
func NewControlDaemon(target control.Target, addr string) (*control.Daemon, error) {
	return control.NewDaemon(target, addr)
}

// ApplyConfig applies a configuration script to a node.
func ApplyConfig(target control.Target, script io.Reader) error {
	return control.RunScript(target, script)
}

// --- Performance simulation ---

// SimEngine is the deterministic discrete-event engine behind the
// performance half.
type SimEngine = sim.Engine

// NewSimEngine returns a fresh engine with the clock at zero.
func NewSimEngine() *SimEngine { return sim.New() }

// Params are VNET/P's tuning parameters (paper Table 1 defaults via
// DefaultParams).
type Params = vnetpsim.Params

// DefaultParams returns the paper's Table 1 configuration.
func DefaultParams() Params { return vnetpsim.DefaultParams() }

// Dispatch modes (paper Sect. 4.3).
const (
	GuestDriven = vnetpsim.GuestDriven
	VMMDriven   = vnetpsim.VMMDriven
	Adaptive    = vnetpsim.Adaptive
)

// Device models a physical interconnect; the presets cover the paper's
// testbeds.
type Device = phys.Device

// Interconnect presets.
var (
	Eth1G     = phys.Eth1G
	Eth10G    = phys.Eth10G
	Eth10GStd = phys.Eth10GStd
	IPoIB     = phys.IPoIB
	Gemini    = phys.Gemini
)

// Testbed is a simulated cluster with per-node transport stacks, in one
// of the three software configurations the paper compares.
type Testbed = lab.Testbed

// ClusterConfig parameterizes a simulated VNET/P cluster.
type ClusterConfig = lab.Config

// NewVNETPTestbed builds a simulated VNET/P cluster (one VM per host,
// full-mesh overlay) with attached guest stacks.
func NewVNETPTestbed(eng *SimEngine, cfg ClusterConfig) *Testbed {
	return lab.NewVNETPTestbed(eng, cfg)
}

// NewNativeTestbed builds the non-virtualized comparator cluster.
func NewNativeTestbed(eng *SimEngine, dev Device, n int) *Testbed {
	return lab.NewNativeTestbed(eng, dev, n)
}

// --- Evaluation ---

// RunExperiment regenerates one of the paper's tables or figures by ID
// (e.g. "fig8", "fig14"; see Experiments for the index), writing rows to
// w.
func RunExperiment(id string, w io.Writer) error { return experiments.Run(id, w) }

// RunAllExperiments regenerates the complete evaluation.
func RunAllExperiments(w io.Writer) error { return experiments.RunAll(w) }

// Experiments lists the available experiment IDs and titles.
func Experiments() []experiments.Experiment { return experiments.All() }
