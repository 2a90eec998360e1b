package overlay_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/trace"
)

// traceNodes builds an A→B overlay where node A samples every
// transmitted frame and both nodes run a flight recorder.
func traceNodes(t testing.TB) (*overlay.Node, *overlay.Node, *overlay.Endpoint, *overlay.Endpoint) {
	t.Helper()
	na, err := overlay.NewNodeWithConfig("alpha", "127.0.0.1:0", overlay.NodeConfig{
		TraceSample: 1, FlightDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNodeWithConfig("beta", "127.0.0.1:0", overlay.NodeConfig{
		FlightDepth: 64,
	})
	if err != nil {
		na.Close()
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
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	return na, nb, epA, epB
}

// TestCrossNodeTrace sends one fragmented UDP frame through a live
// two-node overlay with 1-in-1 sampling on the sender and asserts that a
// single trace ID accumulates at least six distinct stages across both
// nodes: the wire trace extension is what carries the ID over the hop,
// since the receiver has no sampler of its own enabled.
func TestCrossNodeTrace(t *testing.T) {
	na, nb, epA, epB := traceNodes(t)

	// 4000-byte payload fragments at the 1400-byte datagram budget, so
	// the receive side must also exercise reassembly.
	payload := bytes.Repeat([]byte{0xab}, 4000)
	if err := epA.Send(&ethernet.Frame{
		Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	got, ok := epB.Recv(recvTimeout)
	if !ok {
		t.Fatal("frame not delivered")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("payload corrupted")
	}
	na.WaitIdle(t, "to-b") // the sender records wire_tx once the kernel has taken the datagrams

	// The deliver-stage hop is recorded just after the frame lands in
	// the endpoint queue; give the dispatcher a moment to finish.
	var merged map[string]bool
	var id uint64
	deadline := time.Now().Add(2 * time.Second)
	for {
		merged, id = mergedStages(t, na, nb)
		if len(merged) >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %016x has %d distinct stages across both nodes, want >= 6: %v",
				id, len(merged), merged)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, stage := range []string{
		trace.StageVirtioPop, trace.StageRouteLookup, trace.StageEncap, trace.StageWireTx,
		trace.StageRxDispatch, trace.StageReassembly, trace.StageDeliver,
	} {
		if !merged[stage] {
			t.Fatalf("stage %q missing from merged cross-node trace %016x: %v", stage, id, merged)
		}
	}

	// The receiver's flight recorder must have captured the traced
	// datagrams with the same wire-carried ID.
	var flightHits int
	for _, ev := range nb.FlightEvents() {
		if ev.TraceID == id {
			flightHits++
		}
	}
	if flightHits < 2 {
		t.Fatalf("flight recorder on beta saw %d datagrams for trace %016x, want >= 2 (fragmented frame)", flightHits, id)
	}
}

// mergedStages finds the one trace ID present on both nodes and returns
// the union of its stage names. Both halves must agree on the origin
// carried in the wire extension.
func mergedStages(t *testing.T, na, nb *overlay.Node) (map[string]bool, uint64) {
	t.Helper()
	pathsA, pathsB := na.Tracer().Traces(), nb.Tracer().Traces()
	byID := map[uint64]*trace.Path{}
	for _, p := range pathsA {
		byID[p.Tag] = p
	}
	merged := map[string]bool{}
	var id uint64
	for _, pb := range pathsB {
		pa, ok := byID[pb.Tag]
		if !ok {
			continue
		}
		if id != 0 && id != pb.Tag {
			t.Fatalf("more than one cross-node trace ID: %016x and %016x", id, pb.Tag)
		}
		id = pb.Tag
		if pa.Origin != pb.Origin {
			t.Fatalf("origin diverged across the hop: alpha %04x, beta %04x", pa.Origin, pb.Origin)
		}
		if pa.Node != "alpha" || pb.Node != "beta" {
			t.Fatalf("node stamps wrong: %q / %q", pa.Node, pb.Node)
		}
		for _, h := range pa.Hops {
			merged[h.Stage] = true
		}
		for _, h := range pb.Hops {
			merged[h.Stage] = true
		}
	}
	if id == 0 && len(pathsA) > 0 {
		// Sender sampled but the wire extension has not landed yet.
		return merged, pathsA[0].Tag
	}
	return merged, id
}

// TestTraceAndFlightHandlers exercises the HTTP surfaces end to end:
// /trace returns the sampled paths as JSON and /flight?format=pcap
// returns a well-formed capture holding the traced datagrams.
func TestTraceAndFlightHandlers(t *testing.T) {
	na, nb, epA, epB := traceNodes(t)
	if err := epA.Send(&ethernet.Frame{
		Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("observed"),
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := epB.Recv(recvTimeout); !ok {
		t.Fatal("frame not delivered")
	}

	rec := httptest.NewRecorder()
	na.TraceHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace status %d", rec.Code)
	}
	var paths []trace.Path
	if err := json.Unmarshal(rec.Body.Bytes(), &paths); err != nil {
		t.Fatalf("/trace body is not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(paths) == 0 || len(paths[0].Hops) == 0 {
		t.Fatalf("/trace returned no hops: %s", rec.Body.String())
	}

	// Flight recorder capture from the receiver, in pcap form.
	deadline := time.Now().Add(2 * time.Second)
	for len(nb.FlightEvents()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight recorder on beta captured nothing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec = httptest.NewRecorder()
	nb.FlightHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/flight?format=pcap", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/flight status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/vnd.tcpdump.pcap" {
		t.Fatalf("/flight content type %q", ct)
	}
	body := rec.Body.Bytes()
	if len(body) < 24+16 {
		t.Fatalf("pcap too short: %d bytes", len(body))
	}
	if !bytes.Equal(body[:4], []byte{0xa1, 0xb2, 0xc3, 0xd4}) {
		t.Fatalf("pcap magic = % x", body[:4])
	}
}

// BenchmarkOverlayTraceSampling measures the transmit path of the
// acceptance gate: disabled sampling must cost nothing (0 allocs/op
// delta, throughput within noise of the untraced baseline), and the
// 1-in-1024 / 1-in-16 settings show the price of turning tracing on.
func BenchmarkOverlayTraceSampling(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		sample uint64
	}{
		{"off", 0},
		{"1in1024", 1024},
		{"1in16", 16},
	} {
		b.Run(fmt.Sprintf("sample=%s", cfg.name), func(b *testing.B) {
			const window = 1024
			na, _, epA, epB := batchNodes(b,
				overlay.NodeConfig{TraceSample: cfg.sample},
				overlay.NodeConfig{}, "udp")
			f := &ethernet.Frame{
				Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
				Payload: make([]byte, 64),
			}
			b.SetBytes(64)
			b.ReportAllocs()
			b.ResetTimer()
			var sent uint64
			for i := 0; i < b.N; i++ {
				for sent-na.EncapSent.Load() >= window {
					runtime.Gosched()
				}
				if err := epA.Send(f); err != nil {
					b.Fatal(err)
				}
				sent++
			}
			deadline := time.Now().Add(10 * time.Second)
			for na.EncapSent.Load() < sent {
				if time.Now().After(deadline) {
					b.Fatalf("stalled: %d of %d frames encapsulated", na.EncapSent.Load(), sent)
				}
				runtime.Gosched()
			}
			b.StopTimer()
		})
	}
}
