// Diag bundle tests (ISSUE 10 satellite): the schema golden test pins
// the bundle's top-level JSON shape — triage tooling parses this
// document, so a key may be added but never renamed or removed without
// bumping DiagSchema — and the e2e test renders a bundle from a live
// two-node overlay while /metrics is being scraped concurrently,
// asserting the two surfaces tell the same story.
package overlay_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"vnetp/internal/ethernet"
	"vnetp/internal/overlay"
	"vnetp/internal/telemetry"
)

// diagGoldenKeys is the pinned top-level key set (sorted). Additions
// append here; renames and removals bump overlay.DiagSchema.
var diagGoldenKeys = []string{
	"addr",
	"build",
	"config",
	"drops",
	"flow_cache",
	"generated_at",
	"health",
	"metrics",
	"node",
	"runtime",
	"schema",
	"tenants",
	"top_flows",
	"traces",
	"uptime_seconds",
}

// diagSchema is the pinned schema version: 3 since the config document
// lost "adaptive" with the node's last transmit setting.
const diagSchema = 3

// diagConfigKeys is the pinned key set of the config document (sorted).
var diagConfigKeys = []string{
	"anomaly_drop_rate",
	"anomaly_interval",
	"anomaly_watch",
	"dispatchers",
	"flight_depth",
	"flow_cache",
	"flow_cache_size",
	"rx_batch",
	"trace_sample",
}

func fetchDiag(t *testing.T, url string) (overlay.DiagBundle, map[string]json.RawMessage) {
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
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var raw map[string]json.RawMessage
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&raw); err != nil {
		t.Fatalf("diag decode: %v", err)
	}
	blob, _ := json.Marshal(raw)
	var b overlay.DiagBundle
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatalf("diag unmarshal: %v", err)
	}
	return b, raw
}

// TestDiagSchemaGolden pins the bundle's shape on a single node with a
// little local traffic: the exact top-level key set, the schema
// version, and the non-optional sub-documents.
func TestDiagSchemaGolden(t *testing.T) {
	n, err := overlay.NewNode("diag-golden", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), 1500)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.AttachEndpoint("dst", ethernet.LocalMAC(2), 1500)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := src.Send(&ethernet.Frame{Dst: dst.MAC(), Src: src.MAC(),
			Type: ethernet.TypeTest, Payload: []byte("diag")}); err != nil {
			t.Fatal(err)
		}
		if _, ok := dst.Recv(recvTimeout); !ok {
			t.Fatal("frame lost")
		}
	}
	src.Send(&ethernet.Frame{Dst: ethernet.LocalMAC(9), Src: src.MAC(),
		Type: ethernet.TypeTest, Payload: []byte("unrouted")}) // land one drop

	ts := httptest.NewServer(n.DiagHandler())
	defer ts.Close()
	b, raw := fetchDiag(t, ts.URL)

	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, diagGoldenKeys) {
		t.Fatalf("top-level keys drifted:\n got  %v\n want %v", keys, diagGoldenKeys)
	}
	if b.Schema != diagSchema || overlay.DiagSchema != diagSchema {
		t.Fatalf("schema = %d (DiagSchema %d), want %d", b.Schema, overlay.DiagSchema, diagSchema)
	}
	var config map[string]json.RawMessage
	if err := json.Unmarshal(raw["config"], &config); err != nil {
		t.Fatal(err)
	}
	configKeys := make([]string, 0, len(config))
	for k := range config {
		configKeys = append(configKeys, k)
	}
	sort.Strings(configKeys)
	if !reflect.DeepEqual(configKeys, diagConfigKeys) {
		t.Fatalf("config keys drifted:\n got  %v\n want %v", configKeys, diagConfigKeys)
	}
	if b.Node != "diag-golden" || b.Addr == "" {
		t.Fatalf("identity: node=%q addr=%q", b.Node, b.Addr)
	}
	if b.UptimeSeconds <= 0 || b.GeneratedAt.IsZero() {
		t.Fatalf("clock fields: uptime=%v generated_at=%v", b.UptimeSeconds, b.GeneratedAt)
	}
	if b.Build.GoVersion == "" || b.Build.OS == "" || b.Build.Arch == "" {
		t.Fatalf("build doc incomplete: %+v", b.Build)
	}
	if b.Config.Dispatchers <= 0 || b.Config.RxBatch <= 0 {
		t.Fatalf("config not normalized: %+v", b.Config)
	}
	if len(b.Metrics) == 0 {
		t.Fatal("metrics section empty")
	}
	// Summary sections are empty on a linkless, keyless node — but they
	// must be present as arrays, never null.
	for _, key := range []string{"health", "tenants", "traces"} {
		if string(raw[key]) == "null" {
			t.Fatalf("%s section rendered as null", key)
		}
	}
	if b.Drops.Total == 0 || b.Drops.ByReason["no_route"] != b.Drops.Total {
		t.Fatalf("drop ledger not reflected: %+v", b.Drops)
	}
	if len(b.Drops.Tails["no_route"]) == 0 {
		t.Fatal("no_route detail tail empty")
	}
	if len(b.TopFlows["0"]) == 0 {
		t.Fatal("tenant-0 heavy hitters empty after local traffic")
	}
	if len(b.Runtime) == 0 {
		t.Fatal("runtime section empty")
	}
	for _, c := range b.Runtime {
		if c.Name == "" {
			t.Fatalf("unnamed runtime component: %+v", b.Runtime)
		}
	}
	// Rendering the bundle is itself counted.
	_, raw2 := fetchDiag(t, ts.URL)
	var fams []telemetry.FamilySnapshot
	if err := json.Unmarshal(raw2["metrics"], &fams); err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name == "vnetp_diag_renders_total" {
			if len(f.Samples) != 1 || f.Samples[0].Value < 1 {
				t.Fatalf("diag_renders samples = %+v", f.Samples)
			}
			return
		}
	}
	t.Fatal("vnetp_diag_renders_total missing from bundle metrics")
}

// TestDiagEndToEnd renders bundles from a live two-node overlay while a
// goroutine hammers /metrics on the same listener, then checks the
// quiesced bundle agrees with a fresh scrape: same drop totals, same
// per-tenant frame counts, same flow-cache readings.
func TestDiagEndToEnd(t *testing.T) {
	na, _, epA, epB := twoNodes(t)
	srv, err := telemetry.ServeWith("127.0.0.1:0", na.Telemetry(), map[string]http.Handler{
		"/diag":     na.DiagHandler(),
		"/topflows": na.TopFlowsHandler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Concurrent scrape pressure for the whole traffic phase.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := &http.Client{Timeout: 5 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, err := cl.Get(base + "/metrics"); err == nil {
				resp.Body.Close()
			}
		}
	}()

	const frames = 30
	for i := 0; i < frames; i++ {
		if err := epA.Send(&ethernet.Frame{Dst: epB.MAC(), Src: epA.MAC(),
			Type: ethernet.TypeTest, Payload: []byte(fmt.Sprintf("diag-%d", i))}); err != nil {
			t.Fatal(err)
		}
		if _, ok := epB.Recv(recvTimeout); !ok {
			t.Fatalf("frame %d lost", i)
		}
	}
	epA.Send(&ethernet.Frame{Dst: ethernet.LocalMAC(77), Src: epA.MAC(),
		Type: ethernet.TypeTest, Payload: []byte("unrouted")})
	if _, raw := fetchDiag(t, base+"/diag"); len(raw) == 0 {
		t.Fatal("mid-traffic bundle empty")
	}
	close(stop)
	wg.Wait()

	// Quiesced: bundle and scrape must agree exactly.
	b, _ := fetchDiag(t, base+"/diag")
	series := scrape(t, base+"/metrics")
	if got := sumFamily(series, "vnetp_drops_total"); float64(b.Drops.Total) != got {
		t.Fatalf("drops: bundle=%d scrape=%v", b.Drops.Total, got)
	}
	var reasonSum uint64
	for _, v := range b.Drops.ByReason {
		reasonSum += v
	}
	if reasonSum != b.Drops.Total {
		t.Fatalf("bundle drop reasons sum to %d, total %d", reasonSum, b.Drops.Total)
	}
	if got := series[`vnetp_tenant_frames_out_total{tenant="0"}`]; got != frames+1 {
		t.Fatalf("tenant frames_out scrape = %v, want %d", got, frames+1)
	}
	for _, f := range b.Metrics {
		if f.Name != "vnetp_tenant_frames_out_total" {
			continue
		}
		var sum float64
		for _, s := range f.Samples {
			sum += s.Value
		}
		if sum != frames+1 {
			t.Fatalf("bundle tenant frames_out = %v, want %d", sum, frames+1)
		}
	}
	hits, misses, _, _ := na.FlowCacheStats()
	if b.FlowCache.Hits > hits || b.FlowCache.Misses > misses {
		t.Fatalf("flow cache went backwards: bundle=%+v live hits=%d misses=%d",
			b.FlowCache, hits, misses)
	}
	if len(b.TopFlows["0"]) == 0 {
		t.Fatal("heavy hitters empty after overlay traffic")
	}
}
