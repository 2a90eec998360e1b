package overlay_test

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"vnetp/internal/control"
	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/telemetry"
)

// scrape fetches and parses a /metrics exposition into a map of
// `name{labels}` → value (histogram _bucket/_sum/_count lines included
// as their own series). It also validates the text format: every
// sample line must parse, and every sample's family must have been
// announced by a preceding # TYPE line.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	typed := map[string]bool{}
	series := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 3 && f[1] == "TYPE" {
				typed[f[2]] = true
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("invalid exposition line %q", line)
		}
		base := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(base, suffix); fam != base && typed[fam] {
				base = fam
				break
			}
		}
		if !typed[base] {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := series[m[1]+m[2]]; dup {
			t.Fatalf("duplicate series %q", m[1]+m[2])
		}
		series[m[1]+m[2]] = v
	}
	return series
}

// sumFamily totals every series of one family (across label values),
// excluding histogram expansion lines.
func sumFamily(series map[string]float64, name string) float64 {
	var s float64
	for k, v := range series {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// TestTelemetryEndToEnd drives traffic through a two-node overlay with
// the health monitor on, scrapes /metrics from a live telemetry server,
// and asserts (1) a valid exposition with ≥25 distinct series, (2) a
// non-empty end-to-end latency histogram, and (3) that every LIST STATS
// value matches the scraped counters exactly.
func TestTelemetryEndToEnd(t *testing.T) {
	na, nb, epA, epB := twoNodes(t)
	cfg := overlay.DefaultHealthConfig()
	cfg.Interval = 30 * time.Millisecond
	if err := na.EnableHealth(cfg); err != nil {
		t.Fatal(err)
	}
	if err := nb.EnableHealth(cfg); err != nil {
		t.Fatal(err)
	}

	const frames = 20
	for i := 0; i < frames; i++ {
		if err := epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest,
			Payload: []byte(fmt.Sprintf("tick-%d", i))}); err != nil {
			t.Fatal(err)
		}
		if _, ok := epB.Recv(recvTimeout); !ok {
			t.Fatalf("frame %d lost", i)
		}
		if err := epB.Send(&ethernet.Frame{Dst: epA.MAC(), Src: epB.MAC(), Type: ethernet.TypeTest,
			Payload: []byte("ack")}); err != nil {
			t.Fatal(err)
		}
		if _, ok := epA.Recv(recvTimeout); !ok {
			t.Fatalf("ack %d lost", i)
		}
	}

	// Let the monitor complete a few probe round trips so the RTT
	// histograms and probe counters are non-trivial.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := na.Stats()
		var probes uint64
		for _, l := range stats {
			fmt.Sscanf(l, "probes_sent %d", &probes)
		}
		if probes >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health monitor produced no probes: %v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Freeze the counters: stop probing on both sides and let in-flight
	// replies land, so the scrape and LIST STATS see identical values.
	na.DisableHealth()
	nb.DisableHealth()
	time.Sleep(150 * time.Millisecond)

	srv, err := telemetry.Serve("127.0.0.1:0", na.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	series := scrape(t, "http://"+srv.Addr()+"/metrics")

	if len(series) < 25 {
		t.Fatalf("only %d distinct series, want >= 25", len(series))
	}
	if rx := series["vnetp_rx_latency_seconds_count"]; rx < frames {
		t.Fatalf("rx latency histogram count = %v, want >= %d", rx, frames)
	}
	if tx := series["vnetp_tx_latency_seconds_count"]; tx < frames {
		t.Fatalf("tx latency histogram count = %v, want >= %d", tx, frames)
	}
	if rtt := sumFamily(series, "vnetp_link_rtt_seconds_count"); rtt < 1 {
		t.Fatal("link RTT histogram is empty")
	}
	if sent := series[`vnetp_link_bytes_sent_total{link="to-b"}`]; sent <= 0 {
		t.Fatalf("bytes_sent{to-b} = %v", sent)
	}
	if recv := series[`vnetp_link_bytes_recv_total{link="to-b"}`]; recv <= 0 {
		t.Fatalf("bytes_recv{to-b} = %v", recv)
	}

	// Every LIST STATS line must agree exactly with the scrape. The
	// control plane renders from the registry, so any mismatch means the
	// two surfaces drifted.
	cmd, err := control.Parse("LIST STATS")
	if err != nil {
		t.Fatal(err)
	}
	lines, err := control.Apply(na, cmd)
	if err != nil {
		t.Fatal(err)
	}
	// The table the renderer walks, read against the scrape: a row totals
	// its family's series, or with a label only those carrying one of the
	// row's values.
	want := map[string]float64{}
	for _, r := range na.StatRows() {
		var sum float64
		for k, v := range series {
			name, labels, _ := strings.Cut(k, "{")
			if name != r.Family {
				continue
			}
			for _, val := range r.Values {
				if strings.Contains(labels, fmt.Sprintf(`%s="%s"`, r.Label, val)) {
					sum += v
				}
			}
			if r.Label == "" {
				sum += v
			}
		}
		want[r.Key] = sum
	}
	if len(lines) != len(want) {
		t.Fatalf("LIST STATS has %d lines, the table read against the scrape gives %d", len(lines), len(want))
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed LIST STATS line %q", line)
		}
		got, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatalf("bad LIST STATS value %q: %v", line, err)
		}
		w, ok := want[f[0]]
		if !ok {
			t.Fatalf("LIST STATS line %q has no scrape mapping", line)
		}
		if got != w {
			t.Fatalf("LIST STATS %s = %v but scrape says %v", f[0], got, w)
		}
	}
	// Traffic went both ways with probing on: the lines it moves are not
	// all zero on both sides of the comparison.
	for _, key := range []string{"encap_sent", "encap_recv", "delivered", "probes_sent", "dispatchers", "flow_cache_hits"} {
		if want[key] == 0 {
			t.Fatalf("LIST STATS %s is zero after traffic", key)
		}
	}
}

// TestListStatsBackcompat pins the exact LIST STATS line set (keys and
// order): VNET/U-era tooling parses this surface, so growing the
// registry must not silently reshape it.
func TestListStatsBackcompat(t *testing.T) {
	n, err := overlay.NewNodeWithConfig("pin", "127.0.0.1:0", overlay.NodeConfig{}.WithDispatchers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	want := []string{
		"encap_sent", "encap_recv", "delivered", "no_route_drops",
		"bad_packets", "send_errors", "route_cache_hits", "route_cache_misses",
		"probes_sent", "probes_lost", "failovers", "failbacks",
		"redials", "link_upgrades", "dispatchers",
		"dispatcher_0_datagrams", "dispatcher_0_frames", "dispatcher_0_drops",
		"dispatcher_1_datagrams", "dispatcher_1_frames", "dispatcher_1_drops",
		// Keys below appended after the original pinned set (growth is
		// append-only; parsers indexing the lines above stay correct).
		"tx_ring_drops", "encap_pool_hits", "encap_pool_misses",
		"sealed_sent", "sealed_opened", "seal_rejects",
		"cross_tenant_drops", "tenants",
		"flow_cache_hits", "flow_cache_misses", "flow_cache_evictions",
		"flow_cache_entries",
		// Unified drop ledger and anomaly watchdog (ISSUE 10): the
		// cross-reason total, one line per ledger reason in datapath
		// order, then the anomaly alert count.
		"drops_total",
		"drops_bad_packet", "drops_dispatcher_ring", "drops_probe_ring",
		"drops_seal_reject", "drops_reassembly_evict", "drops_no_route",
		"drops_cross_tenant", "drops_endpoint_ring",
		"drops_tx_ring", "drops_tx_teardown",
		// Reasons added since join the end of the ledger block (keyed
		// parsers are unaffected).
		"drops_tx_error",
		"anomalies",
		// ISSUE 24: which regime produced the flow-cache hit ratio.
		"flow_cache_source_keyed",
	}
	stats := n.Stats()
	if len(stats) != len(want) {
		t.Fatalf("LIST STATS has %d lines, want %d:\n%s", len(stats), len(want), strings.Join(stats, "\n"))
	}
	for i, line := range stats {
		key := strings.Fields(line)[0]
		if key != want[i] {
			t.Fatalf("LIST STATS line %d key = %q, want %q", i, key, want[i])
		}
	}
}

// TestLinkStatusBytes checks the LINK STATUS surface reports the
// per-link byte counters after traffic in both directions.
func TestLinkStatusBytes(t *testing.T) {
	na, _, epA, epB := twoNodes(t)
	epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(), Type: ethernet.TypeTest, Payload: []byte("out")})
	if _, ok := epB.Recv(recvTimeout); !ok {
		t.Fatal("frame lost")
	}
	epB.Send(&ethernet.Frame{Dst: epA.MAC(), Src: epB.MAC(), Type: ethernet.TypeTest, Payload: []byte("back")})
	if _, ok := epA.Recv(recvTimeout); !ok {
		t.Fatal("reply lost")
	}
	na.WaitIdle(t, "to-b") // bytes_sent moves once the kernel has taken the datagram
	lines, err := na.LinkStatus("to-b")
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]uint64{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 2 {
			if v, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				vals[f[0]] = v
			}
		}
	}
	if vals["bytes_sent"] == 0 {
		t.Fatalf("LINK STATUS bytes_sent missing or zero: %v", lines)
	}
	if vals["bytes_recv"] == 0 {
		t.Fatalf("LINK STATUS bytes_recv missing or zero: %v", lines)
	}
}
