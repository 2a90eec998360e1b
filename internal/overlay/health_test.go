package overlay_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"vnetp/internal/control"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
	"vnetp/internal/overlay"
)

// fastHealth returns an aggressive config so tests converge quickly:
// probes every 20ms, Down after 3 misses, Up after 2 replies.
func fastHealth() overlay.HealthConfig {
	cfg := overlay.DefaultHealthConfig()
	cfg.Interval = 20 * time.Millisecond
	cfg.FailThreshold = 3
	cfg.RecoverThreshold = 2
	cfg.RedialMin = 20 * time.Millisecond
	cfg.RedialMax = 200 * time.Millisecond
	return cfg
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func statValue(t *testing.T, lines []string, key string) int {
	t.Helper()
	for _, l := range lines {
		var v int
		if _, err := fmt.Sscanf(l, key+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("stat %q not found in %v", key, lines)
	return 0
}

func TestHealthProbesKeepLinkUp(t *testing.T) {
	na, _, _, _ := twoNodes(t)
	if err := na.EnableHealth(fastHealth()); err != nil {
		t.Fatal(err)
	}
	eventually(t, recvTimeout, "probes to flow", func() bool {
		return statValue(t, na.Stats(), "probes_sent") >= 3
	})
	if st, ok := na.LinkHealth("to-b"); !ok || st != overlay.LinkUp {
		t.Fatalf("link state %v monitored=%v, want up", st, ok)
	}
	lines, err := na.LinkStatus("to-b")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "state up") {
		t.Fatalf("LinkStatus:\n%s", joined)
	}
	if statValue(t, na.Stats(), "probes_lost") > 1 {
		t.Fatalf("healthy loopback link lost probes:\n%s", strings.Join(na.Stats(), "\n"))
	}
}

// TestChaosFailoverAndFailback is the acceptance scenario: a faultnet
// conduit partitions the primary link mid-transfer, the heartbeat
// monitor marks it Down within the probe budget, routes fail over to the
// backup link so the in-flight (ack/retransmit) transfer completes, and
// the link fails back once the partition heals.
func TestChaosFailoverAndFailback(t *testing.T) {
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
	// Two physical paths to B: the primary carries the traffic until the
	// chaos conduit kills it, the backup takes over.
	for _, id := range []string{"primary", "backup"} {
		if err := na.AddLink(id, nb.Addr(), "udp"); err != nil {
			t.Fatal(err)
		}
	}
	if err := nb.AddLink("to-a", na.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{
		DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest:      core.Destination{Type: core.DestLink, ID: "primary"},
		Backup:    core.Destination{Type: core.DestLink, ID: "backup"},
		HasBackup: true,
	})
	nb.AddRoute(core.Route{DstMAC: macA, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-a"}})

	chaos := faultnet.New(faultnet.Config{})
	if err := na.SetLinkFault("primary", chaos); err != nil {
		t.Fatal(err)
	}
	cfg := fastHealth()
	if err := na.EnableHealth(cfg); err != nil {
		t.Fatal(err)
	}

	// Receiver: ack every chunk by echoing its payload.
	go func() {
		for {
			f, ok := epB.Recv(recvTimeout)
			if !ok {
				return
			}
			epB.Send(&ethernet.Frame{Dst: macA, Src: macB, Type: ethernet.TypeTest, Payload: f.Payload})
		}
	}()

	// Sender: stop-and-wait transfer with retransmission — the classic
	// reliable stream the overlay's guests would run. It must survive the
	// mid-transfer partition purely via routing failover.
	const chunks = 30
	sendChunk := func(i int) {
		payload := []byte(fmt.Sprintf("chunk-%03d", i))
		deadline := time.Now().Add(recvTimeout)
		for time.Now().Before(deadline) {
			epA.Send(&ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest, Payload: payload})
			ack, ok := epA.Recv(50 * time.Millisecond)
			if ok && string(ack.Payload) == string(payload) {
				return
			}
		}
		t.Errorf("chunk %d never acknowledged", i)
	}
	for i := 0; i < chunks/3; i++ {
		sendChunk(i)
	}

	// Chaos: hard-partition the primary mid-transfer.
	chaos.Partition(true)

	for i := chunks / 3; i < chunks; i++ {
		sendChunk(i)
	}
	if t.Failed() {
		t.Fatal("transfer did not survive the partition")
	}

	// The monitor must have declared the primary Down within the probe
	// budget (the transfer above already waited well past it).
	probeBudget := time.Duration(cfg.FailThreshold+2) * cfg.Interval * 2
	eventually(t, probeBudget, "primary to go down", func() bool {
		st, _ := na.LinkHealth("primary")
		return st == overlay.LinkDown
	})
	if n := len(na.Table().FailedDests()); n != 1 {
		t.Fatalf("%d failed destinations, want 1", n)
	}
	if got := statValue(t, na.Stats(), "failovers"); got < 1 {
		t.Fatalf("failovers = %d", got)
	}

	// Heal: the link must fail back and traffic return to the primary.
	chaos.Partition(false)
	eventually(t, recvTimeout, "primary to fail back", func() bool {
		st, _ := na.LinkHealth("primary")
		return st == overlay.LinkUp
	})
	if n := len(na.Table().FailedDests()); n != 0 {
		t.Fatalf("%d failed destinations after heal", n)
	}
	if got := statValue(t, na.Stats(), "failbacks"); got < 1 {
		t.Fatalf("failbacks = %d", got)
	}
	sendChunk(chunks) // one more chunk over the restored primary
}

func TestTCPLinkRedialsWithBackoff(t *testing.T) {
	na, err := overlay.NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := overlay.NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })
	addrB := nb.Addr()

	macA, macB := ethernet.LocalMAC(1), ethernet.LocalMAC(2)
	epA, err := na.AttachEndpoint("nic0", macA, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nb.AttachEndpoint("nic0", macB, 9000); err != nil {
		t.Fatal(err)
	}
	if err := na.AddLink("to-b", addrB, "tcp"); err != nil {
		t.Fatal(err)
	}
	na.AddRoute(core.Route{DstMAC: macB, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "to-b"}})
	if err := na.EnableHealth(fastHealth()); err != nil {
		t.Fatal(err)
	}

	// The first probes dial the transport and flow.
	eventually(t, recvTimeout, "tcp link to come up", func() bool {
		return statValue(t, na.Stats(), "probes_sent") >= 2 && na.ActiveTCP() >= 1
	})

	// Kill B: the transport dies, probes miss, the link goes Down and the
	// monitor starts redialing into the void.
	nb.Close()
	eventually(t, recvTimeout, "tcp link to go down", func() bool {
		st, _ := na.LinkHealth("to-b")
		return st == overlay.LinkDown
	})

	// Resurrect a node on the same address; the redial loop must find it
	// and bring the link back without intervention.
	nb2, err := overlay.NewNode("b2", addrB)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrB, err)
	}
	t.Cleanup(func() { nb2.Close() })
	eventually(t, 5*time.Second, "tcp link to recover", func() bool {
		st, _ := na.LinkHealth("to-b")
		return st == overlay.LinkUp
	})
	if got := statValue(t, na.Stats(), "redials"); got < 1 {
		t.Fatalf("redials = %d, want >= 1", got)
	}
	if err := epA.Send(&ethernet.Frame{Dst: macB, Src: macA, Type: ethernet.TypeTest, Payload: []byte("after redial")}); err != nil {
		t.Fatal(err)
	}
}

func TestLossyUDPLinkAutoUpgradesToTCP(t *testing.T) {
	na, nb, _, _ := twoNodes(t)
	_ = nb
	lossy := faultnet.New(faultnet.Config{DropProb: 1, Seed: 3})
	if err := na.SetLinkFault("to-b", lossy); err != nil {
		t.Fatal(err)
	}
	cfg := fastHealth()
	cfg.LossWindow = 8
	cfg.AutoUpgradeLossPct = 0.5
	if err := na.EnableHealth(cfg); err != nil {
		t.Fatal(err)
	}
	eventually(t, recvTimeout, "link to upgrade to tcp", func() bool {
		lines, err := na.LinkStatus("to-b")
		return err == nil && strings.Contains(strings.Join(lines, "\n"), "proto tcp")
	})
	if got := statValue(t, na.Stats(), "link_upgrades"); got != 1 {
		t.Fatalf("link_upgrades = %d, want 1", got)
	}
	// Drop the fault: probes now flow over TCP and the link recovers.
	if err := na.SetLinkFault("to-b", nil); err != nil {
		t.Fatal(err)
	}
	eventually(t, recvTimeout, "upgraded link to come up", func() bool {
		st, _ := na.LinkHealth("to-b")
		return st == overlay.LinkUp
	})
}

func TestDelLinkClosesDialedTCP(t *testing.T) {
	na, _, epA, epB := tcpNodes(t)
	// Force the lazy dial.
	epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("dial")})
	if _, ok := epB.Recv(recvTimeout); !ok {
		t.Fatal("frame not delivered over tcp")
	}
	if na.ActiveTCP() < 1 {
		t.Fatalf("ActiveTCP = %d before DelLink", na.ActiveTCP())
	}
	if err := na.DelLink("to-b"); err != nil {
		t.Fatal(err)
	}
	// The dialed transport (and its read goroutine) must be torn down,
	// not leaked: the old DelLink dropped the link struct but left the
	// connection open forever.
	eventually(t, recvTimeout, "dialed transport to close", func() bool {
		return na.ActiveTCP() == 0
	})
}

func TestControlSurfacesHealth(t *testing.T) {
	na, _, _, _ := twoNodes(t)
	if err := na.EnableHealth(fastHealth()); err != nil {
		t.Fatal(err)
	}
	eventually(t, recvTimeout, "probes to flow", func() bool {
		return statValue(t, na.Stats(), "probes_sent") >= 2
	})
	apply := func(line string) ([]string, error) {
		cmd, err := control.Parse(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return control.Apply(na, cmd)
	}
	out, err := apply("LIST HEALTH")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !strings.Contains(out[0], "to-b") {
		t.Fatalf("LIST HEALTH: %v", out)
	}
	out, err = apply("LINK STATUS to-b")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(out, "\n"), "state ") {
		t.Fatalf("LINK STATUS: %v", out)
	}
	if _, err := apply("LINK STATUS nope"); err == nil {
		t.Fatal("LINK STATUS on unknown link succeeded")
	}
	// Retune the monitor through the control language.
	if _, err := apply("LINK PROBE 50 4 3"); err != nil {
		t.Fatal(err)
	}
	eventually(t, recvTimeout, "retuned probes to flow", func() bool {
		return statValue(t, na.Stats(), "probes_sent") >= 4
	})
}

// TestLinkIDFitsProbe: a probe names its link in a one-byte length field,
// so a link ID longer than 255 bytes is refused — by AddLink and through
// the control console — rather than created and then declared down by
// probes whose replies name no link. A 255-byte ID is accepted and stays
// up under a 20 ms monitor.
func TestLinkIDFitsProbe(t *testing.T) {
	na, nb, _, _ := twoNodes(t)
	d, err := control.NewDaemon(na, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	console := control.NewClient(d.Addr(), control.ClientConfig{})

	long := strings.Repeat("x", 256)
	if err := na.AddLink(long, nb.Addr(), "udp"); err == nil {
		t.Fatal("AddLink took a 256-byte link ID")
	}
	var refused *control.ServerError
	if _, err := console.Do("ADD LINK " + long + " REMOTE " + nb.Addr()); !errors.As(err, &refused) {
		t.Fatalf("ADD LINK with a 256-byte ID: %v, want the console to refuse it", err)
	}
	if _, err := na.LinkStatus(long); err == nil {
		t.Fatal("a refused link exists")
	}

	id := strings.Repeat("y", 255)
	if _, err := console.Do("ADD LINK " + id + " REMOTE " + nb.Addr()); err != nil {
		t.Fatalf("ADD LINK with a 255-byte ID: %v", err)
	}
	if err := na.EnableHealth(fastHealth()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if st, _ := na.LinkHealth(id); st != overlay.LinkUp || overlay.Metric(t, na, "vnetp_link_probe_replies_total", id) == 0 {
		t.Fatalf("the 255-byte link is %v with %d probe replies, want up with some",
			st, overlay.Metric(t, na, "vnetp_link_probe_replies_total", id))
	}
}
