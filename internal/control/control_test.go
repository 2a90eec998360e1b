package control

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
)

// fakeTarget records applied configuration.
type fakeTarget struct {
	links  map[string]string
	routes []core.Route
	ifaces []string
	failOn string
}

func newFake() *fakeTarget {
	return &fakeTarget{links: map[string]string{}, ifaces: []string{"nic0"}}
}

func (f *fakeTarget) AddLink(id, remote, proto string) error {
	if f.failOn == "addlink" {
		return errors.New("boom")
	}
	f.links[id] = remote + "/" + proto
	return nil
}
func (f *fakeTarget) DelLink(id string) error {
	if _, ok := f.links[id]; !ok {
		return errors.New("no link")
	}
	delete(f.links, id)
	return nil
}
func (f *fakeTarget) AddRoute(r core.Route) error { f.routes = append(f.routes, r); return nil }
func (f *fakeTarget) DelRoute(r core.Route) error {
	for i, have := range f.routes {
		if have == r {
			f.routes = append(f.routes[:i], f.routes[i+1:]...)
			return nil
		}
	}
	return errors.New("no route")
}
func (f *fakeTarget) Routes() []core.Route { return f.routes }
func (f *fakeTarget) Links() []string {
	var out []string
	for id := range f.links {
		out = append(out, id)
	}
	return out
}
func (f *fakeTarget) Interfaces() []string { return f.ifaces }

func TestParseAddLink(t *testing.T) {
	cmd, err := Parse("ADD LINK to-b REMOTE 10.0.0.2:7777 udp")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Verb != "ADD" || cmd.Kind != "LINK" || cmd.LinkID != "to-b" ||
		cmd.Remote != "10.0.0.2:7777" || cmd.Proto != "udp" {
		t.Fatalf("cmd = %+v", cmd)
	}
	// Default proto.
	cmd, err = Parse("add link l1 remote host:1")
	if err != nil || cmd.Proto != "udp" {
		t.Fatalf("default proto: %+v %v", cmd, err)
	}
	cmd, _ = Parse("ADD LINK l2 REMOTE h:2 TCP")
	if cmd.Proto != "tcp" {
		t.Fatalf("tcp proto: %+v", cmd)
	}
}

func TestParseRoute(t *testing.T) {
	mac := ethernet.LocalMAC(5)
	cmd, err := Parse(fmt.Sprintf("ADD ROUTE %s any link to-b", mac))
	if err != nil {
		t.Fatal(err)
	}
	r := cmd.Route
	if r.DstMAC != mac || r.DstQual != core.QualExact || r.SrcQual != core.QualAny ||
		r.Dest != (core.Destination{Type: core.DestLink, ID: "to-b"}) {
		t.Fatalf("route = %+v", r)
	}
	cmd, err = Parse(fmt.Sprintf("ADD ROUTE not-%s %s interface nic0", mac, mac))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Route.DstQual != core.QualNot || cmd.Route.SrcQual != core.QualExact {
		t.Fatalf("quals = %+v", cmd.Route)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"FROB LINK x",
		"ADD LINK",
		"ADD LINK x REMOTE",
		"ADD LINK x REMOTE a:1 SCTP",
		"ADD ROUTE any any nowhere x",
		"ADD ROUTE zz any link x",
		"LIST",
		"LIST NOTHING",
		"ADD WIDGET x",
		"link tune wan auto", // retired with the live rate controller
		"list tuning",
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) succeeded", line)
		}
	}
	for _, line := range []string{"", "   ", "# comment"} {
		if _, err := Parse(line); !errors.Is(err, ErrEmpty) {
			t.Errorf("Parse(%q) = %v, want ErrEmpty", line, err)
		}
	}
}

func TestFormatRouteRoundTrip(t *testing.T) {
	routes := []core.Route{
		{DstMAC: ethernet.LocalMAC(1), DstQual: core.QualExact, SrcQual: core.QualAny,
			Dest: core.Destination{Type: core.DestLink, ID: "l1"}},
		{DstQual: core.QualAny, SrcMAC: ethernet.LocalMAC(2), SrcQual: core.QualNot,
			Dest: core.Destination{Type: core.DestInterface, ID: "nic0"}},
	}
	for _, r := range routes {
		line := "ADD ROUTE " + FormatRoute(r)
		cmd, err := Parse(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if cmd.Route != r {
			t.Fatalf("round trip: %+v vs %+v", cmd.Route, r)
		}
	}
}

// twoLinkScript is the RunScript fixture; FuzzControlParse seeds its
// corpus from its lines.
const twoLinkScript = `
# build a two-link overlay
ADD LINK to-b REMOTE 127.0.0.1:9001
ADD LINK to-c REMOTE 127.0.0.1:9002 tcp

ADD ROUTE 02:56:00:00:00:02 any link to-b
ADD ROUTE 02:56:00:00:00:03 any link to-c
`

func TestRunScript(t *testing.T) {
	f := newFake()
	if err := RunScript(f, strings.NewReader(twoLinkScript)); err != nil {
		t.Fatal(err)
	}
	if len(f.links) != 2 || len(f.routes) != 2 {
		t.Fatalf("links=%v routes=%v", f.links, f.routes)
	}
	// Script with a bad line reports the line number.
	err := RunScript(f, strings.NewReader("ADD LINK ok REMOTE a:1\nGARBAGE\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	f := newFake()
	d, err := NewDaemon(f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	send := func(line string) []string {
		fmt.Fprintln(conn, line)
		var out []string
		for {
			resp, err := rd.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			resp = strings.TrimSpace(resp)
			out = append(out, resp)
			if resp == "OK" || strings.HasPrefix(resp, "ERR") {
				return out
			}
		}
	}

	if got := send("ADD LINK to-b REMOTE 127.0.0.1:9999"); got[len(got)-1] != "OK" {
		t.Fatalf("ADD LINK: %v", got)
	}
	if got := send("ADD ROUTE 02:56:00:00:00:02 any link to-b"); got[len(got)-1] != "OK" {
		t.Fatalf("ADD ROUTE: %v", got)
	}
	got := send("LIST ROUTES")
	if len(got) != 2 || !strings.Contains(got[0], "02:56:00:00:00:02") {
		t.Fatalf("LIST ROUTES: %v", got)
	}
	got = send("LIST LINKS")
	if len(got) != 2 || got[0] != "to-b" {
		t.Fatalf("LIST LINKS: %v", got)
	}
	got = send("LIST INTERFACES")
	if got[0] != "nic0" {
		t.Fatalf("LIST INTERFACES: %v", got)
	}
	if got := send("DEL LINK nothere"); !strings.HasPrefix(got[len(got)-1], "ERR") {
		t.Fatalf("DEL missing link: %v", got)
	}
	if got := send("BOGUS"); !strings.HasPrefix(got[len(got)-1], "ERR") {
		t.Fatalf("bogus command: %v", got)
	}
	if got := send("DEL ROUTE 02:56:00:00:00:02 any link to-b"); got[len(got)-1] != "OK" {
		t.Fatalf("DEL ROUTE: %v", got)
	}
	if len(f.routes) != 0 {
		t.Fatalf("routes remain: %v", f.routes)
	}
	// fakeTarget has no stats: LIST STATS must error, not crash.
	if got := send("LIST STATS"); !strings.HasPrefix(got[len(got)-1], "ERR") {
		t.Fatalf("LIST STATS on statless target: %v", got)
	}
}

// statsTarget adds the optional StatsProvider extension.
type statsTarget struct{ *fakeTarget }

func (statsTarget) Stats() []string { return []string{"frames 42"} }

func TestListStats(t *testing.T) {
	cmd, err := Parse("LIST STATS")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Apply(statsTarget{newFake()}, cmd)
	if err != nil || len(out) != 1 || out[0] != "frames 42" {
		t.Fatalf("stats = %v, %v", out, err)
	}
	if _, err := Apply(newFake(), cmd); err == nil {
		t.Fatal("statless target accepted LIST STATS")
	}
}

func TestParseRouteWithBackup(t *testing.T) {
	mac := ethernet.LocalMAC(5)
	cmd, err := Parse(fmt.Sprintf("ADD ROUTE %s any link primary BACKUP link standby", mac))
	if err != nil {
		t.Fatal(err)
	}
	r := cmd.Route
	if !r.HasBackup || r.Backup != (core.Destination{Type: core.DestLink, ID: "standby"}) {
		t.Fatalf("route = %+v", r)
	}
	if r.Dest.ID != "primary" {
		t.Fatalf("primary dest = %v", r.Dest)
	}
	// Lowercase keyword and interface backup.
	cmd, err = Parse(fmt.Sprintf("DEL ROUTE %s any link l1 backup interface nic1", mac))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Route.Backup.Type != core.DestInterface || cmd.Route.Backup.ID != "nic1" {
		t.Fatalf("backup = %v", cmd.Route.Backup)
	}
	// Malformed BACKUP clauses.
	for _, line := range []string{
		fmt.Sprintf("ADD ROUTE %s any link l1 BACKUP link", mac),
		fmt.Sprintf("ADD ROUTE %s any link l1 FALLBACK link l2", mac),
		fmt.Sprintf("ADD ROUTE %s any link l1 BACKUP tunnel l2", mac),
	} {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) succeeded", line)
		}
	}
}

func TestFormatRouteBackupRoundTrip(t *testing.T) {
	r := core.Route{
		DstMAC: ethernet.LocalMAC(1), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest:      core.Destination{Type: core.DestLink, ID: "primary"},
		Backup:    core.Destination{Type: core.DestLink, ID: "standby"},
		HasBackup: true,
	}
	cmd, err := Parse("ADD ROUTE " + FormatRoute(r))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Route != r {
		t.Fatalf("round trip: %+v vs %+v", cmd.Route, r)
	}
}

func TestParseLinkHealthCommands(t *testing.T) {
	cmd, err := Parse("LINK STATUS to-b")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Verb != "LINK" || cmd.Kind != "STATUS" || cmd.LinkID != "to-b" {
		t.Fatalf("cmd = %+v", cmd)
	}
	cmd, err = Parse("link probe 250 5 3")
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Interval != 250*time.Millisecond || cmd.FailN != 5 || cmd.RecoverN != 3 {
		t.Fatalf("cmd = %+v", cmd)
	}
	cmd, err = Parse("LIST HEALTH")
	if err != nil || cmd.Kind != "HEALTH" {
		t.Fatalf("cmd = %+v, %v", cmd, err)
	}
	for _, line := range []string{
		"LINK",
		"LINK STATUS",
		"LINK STATUS a b",
		"LINK PROBE 100 3",
		"LINK PROBE x 3 2",
		"LINK PROBE 100 -1 2",
		"LINK FROB a",
	} {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q) succeeded", line)
		}
	}
}

// healthTarget adds the optional HealthTarget extension.
type healthTarget struct {
	*fakeTarget
	probeCalls []string
}

func (h *healthTarget) LinkStatus(id string) ([]string, error) {
	if _, ok := h.links[id]; !ok {
		return nil, fmt.Errorf("no link %q", id)
	}
	return []string{"link " + id, "state up"}, nil
}

func (h *healthTarget) HealthSummary() []string {
	var out []string
	for id := range h.links {
		out = append(out, id+" up")
	}
	return out
}

func (h *healthTarget) SetProbeConfig(interval time.Duration, failN, recoverN int) error {
	h.probeCalls = append(h.probeCalls, fmt.Sprintf("%v/%d/%d", interval, failN, recoverN))
	return nil
}

func TestApplyHealthCommands(t *testing.T) {
	h := &healthTarget{fakeTarget: newFake()}
	h.links["to-b"] = "x/udp"
	apply := func(line string) ([]string, error) {
		cmd, err := Parse(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return Apply(h, cmd)
	}
	out, err := apply("LINK STATUS to-b")
	if err != nil || len(out) != 2 || out[1] != "state up" {
		t.Fatalf("LINK STATUS: %v, %v", out, err)
	}
	out, err = apply("LIST HEALTH")
	if err != nil || len(out) != 1 {
		t.Fatalf("LIST HEALTH: %v, %v", out, err)
	}
	if _, err := apply("LINK PROBE 100 4 2"); err != nil {
		t.Fatal(err)
	}
	if len(h.probeCalls) != 1 || h.probeCalls[0] != "100ms/4/2" {
		t.Fatalf("probe calls: %v", h.probeCalls)
	}
	// A target without the extension must refuse, not crash.
	for _, line := range []string{"LINK STATUS x", "LINK PROBE 1 1 1", "LIST HEALTH"} {
		cmd, _ := Parse(line)
		if _, err := Apply(newFake(), cmd); err == nil {
			t.Errorf("healthless target accepted %q", line)
		}
	}
}

func TestDaemonCommandFailsHalfway(t *testing.T) {
	// A command that errors after the daemon started emitting payload
	// lines must still terminate the response with ERR — the client sees
	// the partial payload, then the failure, and the connection stays
	// usable for the next command.
	h := &healthTarget{fakeTarget: newFake()}
	h.links["good"] = "x/udp"
	d, err := NewDaemon(h, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	send := func(line string) []string {
		fmt.Fprintln(conn, line)
		var out []string
		for {
			resp, err := rd.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			resp = strings.TrimSpace(resp)
			out = append(out, resp)
			if resp == "OK" || strings.HasPrefix(resp, "ERR") {
				return out
			}
		}
	}
	// Unknown link: no payload, just the error.
	got := send("LINK STATUS nope")
	if len(got) != 1 || !strings.HasPrefix(got[0], "ERR") {
		t.Fatalf("LINK STATUS nope: %v", got)
	}
	if !strings.Contains(got[0], "nope") {
		t.Fatalf("error does not name the link: %v", got)
	}
	// The session survives the failure.
	got = send("LINK STATUS good")
	if len(got) != 3 || got[len(got)-1] != "OK" {
		t.Fatalf("LINK STATUS good after failure: %v", got)
	}
}

// traceFake extends fakeTarget with the TraceTarget surface.
type traceFake struct {
	*fakeTarget
	started bool
	sampleN uint64
	flow    ethernet.MAC
	hasFlow bool
}

func (f *traceFake) TraceStart(n uint64, flow ethernet.MAC, hasFlow bool) error {
	f.started, f.sampleN, f.flow, f.hasFlow = true, n, flow, hasFlow
	return nil
}
func (f *traceFake) TraceStop() error    { f.started = false; return nil }
func (f *traceFake) TraceDump() []string { return []string{"traces 0"} }

func TestParseTraceCommands(t *testing.T) {
	cases := []struct {
		line    string
		sampleN uint64
		hasFlow bool
		kind    string
	}{
		{"TRACE START", 1, false, "START"},
		{"trace start sample 1024", 1024, false, "START"},
		{"TRACE START FLOW 02:00:00:00:00:09", 0, true, "START"},
		{"TRACE STOP", 0, false, "STOP"},
		{"TRACE DUMP", 0, false, "DUMP"},
	}
	for _, c := range cases {
		cmd, err := Parse(c.line)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.line, err)
		}
		if cmd.Verb != "TRACE" || cmd.Kind != c.kind || cmd.SampleN != c.sampleN || cmd.HasFlow != c.hasFlow {
			t.Fatalf("Parse(%q) = %+v", c.line, cmd)
		}
	}
	for _, bad := range []string{
		"TRACE", "TRACE START SAMPLE 0", "TRACE START SAMPLE x",
		"TRACE START FLOW nonsense", "TRACE START EXTRA", "TRACE STOP now",
		"TRACE PAUSE",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestApplyTraceCommands(t *testing.T) {
	f := &traceFake{fakeTarget: newFake()}
	mustApply := func(line string) []string {
		t.Helper()
		cmd, err := Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Apply(f, cmd)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mustApply("TRACE START SAMPLE 16")
	if !f.started || f.sampleN != 16 {
		t.Fatalf("after START: %+v", f)
	}
	mustApply("TRACE START FLOW 02:00:00:00:00:09")
	wantFlow, err := ethernet.ParseMAC("02:00:00:00:00:09")
	if err != nil {
		t.Fatal(err)
	}
	if !f.hasFlow || f.flow != wantFlow {
		t.Fatalf("after FLOW: %+v", f)
	}
	if out := mustApply("TRACE DUMP"); len(out) != 1 || out[0] != "traces 0" {
		t.Fatalf("DUMP = %v", out)
	}
	mustApply("TRACE STOP")
	if f.started {
		t.Fatal("STOP did not land")
	}
	// A target without tracing support reports a clean error.
	cmd, _ := Parse("TRACE DUMP")
	if _, err := Apply(newFake(), cmd); err == nil {
		t.Fatal("trace on non-TraceTarget accepted")
	}
}
