package overlay_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
	"vnetp/internal/overlay"
)

// jumboNodes is twoNodes with endpoints at the full 64KB overlay MTU
// (paper Sect. 4.4).
func jumboNodes(t *testing.T) (*overlay.Endpoint, *overlay.Endpoint) {
	t.Helper()
	na, err := overlay.NewNode("ja", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("jb", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })
	macA, macB := ethernet.LocalMAC(0xa), ethernet.LocalMAC(0xb)
	epA, err := na.AttachEndpoint("nic0", macA, ethernet.MaxMTU)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := nb.AttachEndpoint("nic0", macB, ethernet.MaxMTU)
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
	return epA, epB
}

// TestJumboFrameBoundaryOverOverlay is the wire-corruption regression:
// under the v1 header a frame whose marshalled length exceeded 65535
// bytes silently wrapped its 16-bit TotalLen, so every payload near
// ethernet.MaxMTU either corrupted or never reassembled. The v2 32-bit
// header must carry the boundary cases losslessly end to end.
func TestJumboFrameBoundaryOverOverlay(t *testing.T) {
	epA, epB := jumboNodes(t)
	// 65521 is the payload at which the marshalled frame (14-byte
	// Ethernet header) crosses 65535; test both neighbours too.
	for _, size := range []int{65520, 65521, 65522, ethernet.MaxMTU} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		f := &ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: payload}
		if err := epA.Send(f); err != nil {
			t.Fatalf("payload %d: %v", size, err)
		}
		got, ok := epB.Recv(5 * time.Second)
		if !ok {
			t.Fatalf("payload %d: frame never reassembled", size)
		}
		if len(got.Payload) != size {
			t.Fatalf("payload %d: arrived as %d bytes", size, len(got.Payload))
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Fatalf("payload %d: corrupted in flight", size)
		}
	}
}

// TestStatsConcurrentWithProbing hammers every read-side surface (Stats,
// HealthSummary, LinkStatus, CacheStats) while the health monitor probes
// a lossy link and data flows — the Stats-vs-monitor race stays dead
// only if this passes under -race.
func TestStatsConcurrentWithProbing(t *testing.T) {
	na, err := overlay.NewNode("ra", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("rb", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	defer nb.Close()
	macA, macB := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	epA, err := na.AttachEndpoint("nic0", macA, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AttachEndpoint("nic0", macB, 9000); err != nil {
		t.Fatal(err)
	}
	if err := na.AddLink("to-b", nb.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	// Heavy loss keeps the monitor flapping between states while we read.
	if err := na.SetLinkFault("to-b", faultnet.New(faultnet.Config{DropProb: 0.5, Seed: 42})); err != nil {
		t.Fatal(err)
	}
	cfg := overlay.DefaultHealthConfig()
	cfg.Interval = 5 * time.Millisecond
	cfg.FailThreshold = 2
	cfg.RecoverThreshold = 1
	if err := na.EnableHealth(cfg); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				na.Stats()
				na.HealthSummary()
				na.LinkStatus("to-b")
				na.Table().CacheStats()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		f := &ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest, Payload: []byte("load")}
		for {
			select {
			case <-stop:
				return
			default:
			}
			epA.Send(f)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
