package adapt_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"vnetp/internal/adapt"
	"vnetp/internal/control"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/topo"
)

func TestPlanFindsHeavyInterNodePair(t *testing.T) {
	m1, m2, m3, m4 := ethernet.LocalMAC(1), ethernet.LocalMAC(2), ethernet.LocalMAC(3), ethernet.LocalMAC(4)
	pl := adapt.Placement{
		HostOf: map[ethernet.MAC]string{m1: "a", m2: "b", m3: "b", m4: "a"},
		AddrOf: map[string]string{"a": "1.1.1.1:1", "b": "2.2.2.2:1"},
	}
	flows := []core.Flow{
		{Src: m1, Dst: m2, Bytes: 1 << 30}, // heavy cross-node
		{Src: m2, Dst: m1, Bytes: 1 << 29},
		{Src: m1, Dst: m4, Bytes: 1 << 40}, // same node: irrelevant
		{Src: m4, Dst: m3, Bytes: 1 << 10}, // light cross-node (same pair a-b)
	}
	scs := adapt.Plan(flows, pl, nil, 0)
	if len(scs) != 1 {
		t.Fatalf("plans = %+v, want 1 (one node pair)", scs)
	}
	sc := scs[0]
	if sc.A != "a" || sc.B != "b" {
		t.Fatalf("pair = %s-%s", sc.A, sc.B)
	}
	if sc.Bytes != 1<<30+1<<29+1<<10 {
		t.Fatalf("bytes = %d", sc.Bytes)
	}
	if len(sc.AMACs) != 2 || len(sc.BMACs) != 2 {
		t.Fatalf("macs = %v / %v", sc.AMACs, sc.BMACs)
	}
}

func TestPlanSkipsExistingLinks(t *testing.T) {
	m1, m2 := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	pl := adapt.Placement{
		HostOf: map[ethernet.MAC]string{m1: "a", m2: "b"},
		AddrOf: map[string]string{"a": "x:1", "b": "y:1"},
	}
	flows := []core.Flow{{Src: m1, Dst: m2, Bytes: 100}}
	scs := adapt.Plan(flows, pl, func(a, b string) bool { return true }, 0)
	if len(scs) != 0 {
		t.Fatalf("planned %v despite existing links", scs)
	}
}

func TestPlanCapsAndOrders(t *testing.T) {
	pl := adapt.Placement{HostOf: map[ethernet.MAC]string{}, AddrOf: map[string]string{}}
	var flows []core.Flow
	for i := 0; i < 6; i++ {
		src := ethernet.LocalMAC(uint32(10 + i))
		dst := ethernet.LocalMAC(uint32(20 + i))
		pl.HostOf[src] = fmt.Sprintf("h%d", i)
		pl.HostOf[dst] = fmt.Sprintf("g%d", i)
		flows = append(flows, core.Flow{Src: src, Dst: dst, Bytes: uint64(1000 * (i + 1))})
	}
	scs := adapt.Plan(flows, pl, nil, 3)
	if len(scs) != 3 {
		t.Fatalf("%d shortcuts, want cap 3", len(scs))
	}
	for i := 1; i < len(scs); i++ {
		if scs[i].Bytes > scs[i-1].Bytes {
			t.Fatal("shortcuts not ordered by volume")
		}
	}
	if scs[0].Bytes != 6000 {
		t.Fatalf("heaviest = %d", scs[0].Bytes)
	}
}

// The full adaptation loop against real overlay nodes: a star topology
// carries heavy spoke-to-spoke traffic through the hub; the planner
// observes the flows, installs a shortcut, and the hub drops out of the
// path.
func TestAdaptationLoopOnStar(t *testing.T) {
	const n = 3 // hub + two spokes
	nodes := make([]*overlay.Node, n)
	eps := make([]*overlay.Endpoint, n)
	hosts := make([]topo.Host, n)
	names := []string{"hub", "s1", "s2"}
	pl := adapt.Placement{HostOf: map[ethernet.MAC]string{}, AddrOf: map[string]string{}}
	for i := 0; i < n; i++ {
		node, err := overlay.NewNode(names[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		mac := ethernet.LocalMAC(uint32(i + 1))
		ep, err := node.AttachEndpoint("nic0", mac, 1500)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], eps[i] = node, ep
		hosts[i] = topo.Host{Name: names[i], Addr: node.Addr(), MACs: []ethernet.MAC{mac}}
		pl.HostOf[mac] = names[i]
		pl.AddrOf[names[i]] = node.Addr()
	}
	scripts, err := topo.Scripts(topo.Star, hosts, 0, "udp")
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		if err := control.RunScript(node, strings.NewReader(strings.Join(scripts[names[i]], "\n"))); err != nil {
			t.Fatal(err)
		}
	}

	// Heavy s1 <-> s2 traffic through the hub.
	exchange := func() {
		eps[1].Send(&ethernet.Frame{Dst: eps[2].MAC(), Src: eps[1].MAC(), Type: ethernet.TypeTest, Payload: make([]byte, 1000)})
		if _, ok := eps[2].Recv(2 * time.Second); !ok {
			t.Fatal("frame lost")
		}
		eps[2].Send(&ethernet.Frame{Dst: eps[1].MAC(), Src: eps[2].MAC(), Type: ethernet.TypeTest, Payload: make([]byte, 1000)})
		if _, ok := eps[1].Recv(2 * time.Second); !ok {
			t.Fatal("frame lost")
		}
	}
	for i := 0; i < 20; i++ {
		exchange()
	}
	// The hub counts a forward after its send returns, which the frame's
	// receiver can outrun: let it finish counting the 40 it carried.
	for deadline := time.Now().Add(2 * time.Second); nodes[0].EncapSent.Load() < 40 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	hubBefore := nodes[0].EncapSent.Load()
	if hubBefore == 0 {
		t.Fatal("star traffic did not transit the hub")
	}

	// --- Observe: merge each node's flow observations. ---
	var flows []core.Flow
	for _, node := range nodes {
		flows = append(flows, node.Flows().Top(0)...)
	}
	// --- Plan: the s1-s2 pair must surface. ---
	hasLink := func(a, b string) bool {
		// Only hub links exist.
		return a == "hub" || b == "hub"
	}
	scs := adapt.Plan(flows, pl, hasLink, 1)
	if len(scs) != 1 || scs[0].A != "s1" || scs[0].B != "s2" {
		t.Fatalf("plan = %+v, want s1-s2 shortcut", scs)
	}
	// --- Act: apply the generated commands. ---
	oldRoute := func(nodeName string, mac ethernet.MAC) (core.Route, bool) {
		return core.Route{
			DstMAC: mac, DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: "to-hub"},
		}, true
	}
	cmds := adapt.Commands(scs[0], pl, oldRoute)
	for i, node := range nodes {
		if lines, ok := cmds[names[i]]; ok {
			if err := control.RunScript(node, strings.NewReader(strings.Join(lines, "\n"))); err != nil {
				t.Fatalf("%s: %v\n%s", names[i], err, strings.Join(lines, "\n"))
			}
		}
	}

	// --- Verify: traffic flows direct; the hub sees nothing new. ---
	for i := 0; i < 10; i++ {
		exchange()
	}
	if after := nodes[0].EncapSent.Load(); after != hubBefore {
		t.Fatalf("hub still forwarding after adaptation: %d -> %d", hubBefore, after)
	}
}
