package overlay_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"vnetp/internal/control"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
)

const recvTimeout = 2 * time.Second

// twoNodes builds two loopback nodes with one endpoint each and full
// cross routes.
func twoNodes(t *testing.T) (*overlay.Node, *overlay.Node, *overlay.Endpoint, *overlay.Endpoint) {
	t.Helper()
	na, err := overlay.NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })

	macA, macB := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	epA, err := na.AttachEndpoint("nic0", macA, 9000)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := nb.AttachEndpoint("nic0", macB, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if err := na.AddLink("to-b", nb.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	if err := nb.AddLink("to-a", na.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	nb.AddRoute(core.Route{DstMAC: macA, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-a"}})
	return na, nb, epA, epB
}

func TestFrameAcrossRealUDP(t *testing.T) {
	_, _, epA, epB := twoNodes(t)
	f := &ethernet.Frame{
		Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
		Payload: []byte("hello through the overlay"),
	}
	if err := epA.Send(f); err != nil {
		t.Fatal(err)
	}
	got, ok := epB.Recv(recvTimeout)
	if !ok {
		t.Fatal("frame not delivered")
	}
	if got.Src != epA.MAC() || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("got %v %q", got, got.Payload)
	}
}

func TestRoundTrip(t *testing.T) {
	_, _, epA, epB := twoNodes(t)
	epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("ping")})
	if got, ok := epB.Recv(recvTimeout); !ok || string(got.Payload) != "ping" {
		t.Fatal("ping lost")
	}
	epB.Send(&ethernet.Frame{Dst: epA.MAC(), Src: epB.MAC(), Type: ethernet.TypeTest, Payload: []byte("pong")})
	if got, ok := epA.Recv(recvTimeout); !ok || string(got.Payload) != "pong" {
		t.Fatal("pong lost")
	}
}

func TestLargeFrameFragmentation(t *testing.T) {
	// An 8900-byte frame must fragment into ~7 datagrams and reassemble.
	_, _, epA, epB := twoNodes(t)
	payload := bytes.Repeat([]byte{0xc5}, 8900)
	if err := epA.Send(&ethernet.Frame{
		Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	got, ok := epB.Recv(recvTimeout)
	if !ok {
		t.Fatal("large frame not delivered")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("payload corrupted in fragmentation/reassembly")
	}
}

func TestManyFramesInOrderPerFlow(t *testing.T) {
	_, nb, epA, epB := twoNodes(t)
	const n = 100
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("frame-%03d", i))
		if err := epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, ok := epB.Recv(recvTimeout)
		if !ok {
			t.Fatalf("frame %d missing (drops=%d)", i, overlay.Metric(t, nb, "vnetp_endpoint_ring_drops_total", epB.Name()))
		}
		want := fmt.Sprintf("frame-%03d", i)
		if string(got.Payload) != want {
			t.Fatalf("frame %d = %q, want %q (UDP loopback should preserve order)", i, got.Payload, want)
		}
	}
}

func TestLocalSwitching(t *testing.T) {
	// Two endpoints on ONE node: frames switch locally, no sockets.
	na, err := overlay.NewNode("solo", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	ep1, _ := na.AttachEndpoint("nic0", ethernet.LocalMAC(1), 1500)
	ep2, _ := na.AttachEndpoint("nic1", ethernet.LocalMAC(2), 1500)
	ep1.Send(&ethernet.Frame{Dst: ep2.MAC(), Src: ep1.MAC(), Type: ethernet.TypeTest, Payload: []byte("local")})
	got, ok := ep2.Recv(recvTimeout)
	if !ok || string(got.Payload) != "local" {
		t.Fatal("local switching failed")
	}
	if na.EncapSent.Load() != 0 {
		t.Fatal("local frame used the wire")
	}
}

func TestNoRouteReturnsError(t *testing.T) {
	na, _ := overlay.NewNode("x", "127.0.0.1:0")
	defer na.Close()
	ep, _ := na.AttachEndpoint("nic0", ethernet.LocalMAC(1), 1500)
	err := ep.Send(&ethernet.Frame{Dst: ethernet.LocalMAC(99), Src: ep.MAC(), Type: ethernet.TypeTest})
	if err == nil {
		t.Fatal("send with no route succeeded")
	}
	if got := overlay.Metric(t, na, "vnetp_no_route_drops_total"); got != 1 {
		t.Fatalf("vnetp_no_route_drops_total = %d", got)
	}
}

func TestMTUEnforced(t *testing.T) {
	na, _ := overlay.NewNode("x", "127.0.0.1:0")
	defer na.Close()
	ep, _ := na.AttachEndpoint("nic0", ethernet.LocalMAC(1), 1500)
	err := ep.Send(&ethernet.Frame{Dst: ethernet.LocalMAC(2), Src: ep.MAC(), Payload: make([]byte, 1501)})
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestMigration(t *testing.T) {
	// The paper's location-independence property: endpoint B "migrates"
	// from node B to node C; updating A's routes restores connectivity
	// with no change on the endpoint side.
	na, nb, epA, epB := twoNodes(t)
	nc, err := overlay.NewNode("c", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	macB := epB.MAC()
	// Detach from B, attach at C (the "VM" keeps its MAC).
	nb.DetachEndpoint("nic0")
	epB2, err := nc.AttachEndpoint("nic0", macB, 9000)
	if err != nil {
		t.Fatal(err)
	}
	// Rewire A: to-c link + route update; give C a path back.
	if err := na.AddLink("to-c", nc.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	na.DelRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-c"}})
	nc.AddLink("to-a", na.Addr(), "udp")
	nc.AddRoute(core.Route{DstMAC: epA.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-a"}})

	epA.Send(&ethernet.Frame{Dst: macB, Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("after-migration")})
	got, ok := epB2.Recv(recvTimeout)
	if !ok || string(got.Payload) != "after-migration" {
		t.Fatal("traffic did not follow the migrated endpoint")
	}
	// And the reverse direction.
	epB2.Send(&ethernet.Frame{Dst: epA.MAC(), Src: macB, Type: ethernet.TypeTest, Payload: []byte("reply")})
	if got, ok := epA.Recv(recvTimeout); !ok || string(got.Payload) != "reply" {
		t.Fatal("reverse traffic failed after migration")
	}
}

func TestControlDaemonDrivesNode(t *testing.T) {
	// Configure a node entirely through the VNET/U-compatible control
	// language over TCP, then pass traffic.
	na, err := overlay.NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	defer nb.Close()
	macA, macB := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	epA, _ := na.AttachEndpoint("nic0", macA, 1500)
	epB, _ := nb.AttachEndpoint("nic0", macB, 1500)

	script := fmt.Sprintf(`
ADD LINK to-b REMOTE %s
ADD ROUTE %s any link to-b
`, nb.Addr(), macB)
	if err := control.RunScript(na, strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	script = fmt.Sprintf("ADD LINK to-a REMOTE %s\nADD ROUTE %s any link to-a\n", na.Addr(), macA)
	if err := control.RunScript(nb, strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	epA.Send(&ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest, Payload: []byte("configured")})
	if got, ok := epB.Recv(recvTimeout); !ok || string(got.Payload) != "configured" {
		t.Fatal("control-configured overlay failed to carry traffic")
	}
}

func TestBroadcastFanout(t *testing.T) {
	na, nb, epA, epB := twoNodes(t)
	_ = na
	// A broadcast route on node A toward both the local second endpoint
	// and the link.
	ep2, _ := na.AttachEndpoint("nic1", ethernet.LocalMAC(3), 1500)
	na.AddRoute(core.Route{DstQual: core.QualAny, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "nic1"}})
	na.AddRoute(core.Route{DstQual: core.QualAny, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	// B needs to accept broadcast too.
	nb.AddRoute(core.Route{DstQual: core.QualAny, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestInterface, ID: "nic0"}})

	epA.Send(&ethernet.Frame{Dst: ethernet.Broadcast, Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("bcast")})
	if got, ok := ep2.Recv(recvTimeout); !ok || string(got.Payload) != "bcast" {
		t.Fatal("local broadcast copy missing")
	}
	if got, ok := epB.Recv(recvTimeout); !ok || string(got.Payload) != "bcast" {
		t.Fatal("remote broadcast copy missing")
	}
	// The sender must not hear its own broadcast.
	if _, ok := epA.TryRecv(); ok {
		t.Fatal("broadcast looped back to sender")
	}
}

func TestNodeStats(t *testing.T) {
	na, _, epA, epB := twoNodes(t)
	epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("x")})
	if _, ok := epB.Recv(recvTimeout); !ok {
		t.Fatal("frame lost")
	}
	na.WaitIdle(t, "to-b") // encap_sent moves once the kernel has taken the datagram
	stats := na.Stats()
	want := map[string]bool{"encap_sent 1": true}
	found := 0
	for _, s := range stats {
		if want[s] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("stats missing expected counters: %v", stats)
	}
	if len(stats) < 5 {
		t.Fatalf("stats too sparse: %v", stats)
	}
}

func TestDetachRemovesRoutes(t *testing.T) {
	na, _ := overlay.NewNode("x", "127.0.0.1:0")
	defer na.Close()
	na.AttachEndpoint("nic0", ethernet.LocalMAC(1), 1500)
	if len(na.Routes()) != 1 || len(na.Interfaces()) != 1 {
		t.Fatal("attach did not install route")
	}
	na.DetachEndpoint("nic0")
	if len(na.Routes()) != 0 || len(na.Interfaces()) != 0 {
		t.Fatal("detach left state behind")
	}
}

func TestDuplicateInterfaceRejected(t *testing.T) {
	na, _ := overlay.NewNode("x", "127.0.0.1:0")
	defer na.Close()
	na.AttachEndpoint("nic0", ethernet.LocalMAC(1), 1500)
	if _, err := na.AttachEndpoint("nic0", ethernet.LocalMAC(2), 1500); err == nil {
		t.Fatal("duplicate interface accepted")
	}
}

func TestUnknownLinkProtoRejected(t *testing.T) {
	na, _ := overlay.NewNode("x", "127.0.0.1:0")
	defer na.Close()
	if err := na.AddLink("l", "127.0.0.1:1", "sctp"); err == nil {
		t.Fatal("bogus link protocol accepted")
	}
}

// tcpNodes builds two loopback nodes connected by TCP encapsulation
// links in both directions.
func tcpNodes(t *testing.T) (*overlay.Node, *overlay.Node, *overlay.Endpoint, *overlay.Endpoint) {
	t.Helper()
	na, err := overlay.NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })
	macA, macB := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	epA, _ := na.AttachEndpoint("nic0", macA, 60000)
	epB, _ := nb.AttachEndpoint("nic0", macB, 60000)
	if err := na.AddLink("to-b", nb.Addr(), "tcp"); err != nil {
		t.Fatal(err)
	}
	if err := nb.AddLink("to-a", na.Addr(), "tcp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	nb.AddRoute(core.Route{DstMAC: macA, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-a"}})
	return na, nb, epA, epB
}

func TestTCPLinkDelivery(t *testing.T) {
	_, _, epA, epB := tcpNodes(t)
	f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
		Payload: []byte("over tcp encapsulation")}
	if err := epA.Send(f); err != nil {
		t.Fatal(err)
	}
	got, ok := epB.Recv(recvTimeout)
	if !ok || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("frame lost over TCP link")
	}
	// And the reverse direction (separate connection).
	epB.Send(&ethernet.Frame{Dst: epA.MAC(), Src: epB.MAC(), Type: ethernet.TypeTest, Payload: []byte("back")})
	if got, ok := epA.Recv(recvTimeout); !ok || string(got.Payload) != "back" {
		t.Fatal("reverse frame lost over TCP link")
	}
}

func TestTCPLinkLargeFrame(t *testing.T) {
	// A 48KB frame crosses a TCP link (multiple encapsulation datagrams
	// on one stream).
	_, _, epA, epB := tcpNodes(t)
	payload := bytes.Repeat([]byte{0x7e}, 48_000)
	if err := epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, ok := epB.Recv(recvTimeout)
	if !ok || !bytes.Equal(got.Payload, payload) {
		t.Fatal("large frame corrupted over TCP link")
	}
}

func TestTCPLinkManyFramesInOrder(t *testing.T) {
	_, _, epA, epB := tcpNodes(t)
	const n = 200
	for i := 0; i < n; i++ {
		if err := epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("tcp-%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, ok := epB.Recv(recvTimeout)
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if want := fmt.Sprintf("tcp-%03d", i); string(got.Payload) != want {
			t.Fatalf("frame %d = %q, want %q", i, got.Payload, want)
		}
	}
}

func TestMixedProtoLinks(t *testing.T) {
	// UDP one way, TCP the other: protocols are per-link.
	na, nb, epA, epB := twoNodes(t)
	// Replace B's return path with TCP.
	if err := nb.DelLink("to-a"); err != nil {
		t.Fatal(err)
	}
	if err := nb.AddLink("to-a", na.Addr(), "tcp"); err != nil {
		t.Fatal(err)
	}
	nb.AddRoute(core.Route{DstMAC: epA.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-a"}})
	epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("via udp")})
	if got, ok := epB.Recv(recvTimeout); !ok || string(got.Payload) != "via udp" {
		t.Fatal("udp direction broken")
	}
	epB.Send(&ethernet.Frame{Dst: epA.MAC(), Src: epB.MAC(), Type: ethernet.TypeTest, Payload: []byte("via tcp")})
	if got, ok := epA.Recv(recvTimeout); !ok || string(got.Payload) != "via tcp" {
		t.Fatal("tcp direction broken")
	}
}
