// Package control implements VNET/P's control plane (paper Sect. 4.6): a
// VNET/U-compatible, line-oriented configuration language for links,
// interfaces and routing rules, and a TCP daemon ("configuration
// console") that applies commands to a running overlay node, so existing
// VNET/U tooling can drive VNET/P.
package control

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/seal"
)

// Target is the overlay node being configured.
type Target interface {
	AddLink(id, remote string, proto string) error
	DelLink(id string) error
	AddRoute(r core.Route) error
	DelRoute(r core.Route) error
	Routes() []core.Route
	Links() []string
	Interfaces() []string
}

// StatsProvider is an optional Target extension: nodes that implement it
// answer LIST STATS with counter lines (the monitoring hook the Virtuoso
// adaptation work built on).
type StatsProvider interface {
	Stats() []string
}

// HealthTarget is an optional Target extension: nodes running the link
// health monitor answer LINK STATUS / LIST HEALTH and accept heartbeat
// tuning via LINK PROBE.
type HealthTarget interface {
	// LinkStatus reports one link's health detail lines.
	LinkStatus(id string) ([]string, error)
	// HealthSummary reports one line per link.
	HealthSummary() []string
	// SetProbeConfig retunes the heartbeat monitor. Zero values keep
	// the current setting.
	SetProbeConfig(interval time.Duration, failN, recoverN int) error
}

// TraceTarget is an optional Target extension: nodes carrying the live
// packet tracer answer the TRACE verbs.
type TraceTarget interface {
	// TraceStart arms tracing: sample 1 in sampleN frames (0 keeps the
	// sampler off) and/or an explicit flow trigger on a MAC.
	TraceStart(sampleN uint64, flow ethernet.MAC, hasFlow bool) error
	// TraceStop disarms sampling and flow triggers.
	TraceStop() error
	// TraceDump renders the recorded trace paths.
	TraceDump() []string
}

// TuneTarget is an optional Target extension: nodes running the batched
// transmit path answer LIST TUNING and accept per-link dispatch-mode
// overrides via LINK TUNE (the operator surface of the paper's Table 1
// adaptive dispatch).
type TuneTarget interface {
	// SetLinkTune retunes one link's dispatch mode: "latency",
	// "throughput", or "auto" (release a pin to the rate controller).
	SetLinkTune(id, mode string) error
	// TuningSummary reports one line per link with its effective
	// dispatch tunables.
	TuningSummary() []string
}

// TenantTarget is an optional Target extension: nodes carrying the seal
// layer accept tenant keys (ADD TENANT), report their tenant set
// (LIST TENANTS — key fingerprints only, never key material), and bind
// links to a tenant so the link's traffic is sealed with that tenant's
// key (ADD LINK ... TENANT <id>).
type TenantTarget interface {
	// AddTenant installs (or rotates) one tenant's AEAD key.
	AddTenant(id uint32, key []byte) error
	// TenantSummary reports one line per configured tenant. Lines carry
	// key fingerprints, never keys.
	TenantSummary() []string
	// AddLinkTenant is AddLink with a tenant binding: the link seals its
	// outbound frames under the tenant's key and only carries that
	// tenant's traffic. Fails when the tenant has no key installed.
	AddLinkTenant(id, remote, proto string, tenant uint32) error
}

// FlowsProvider is an optional Target extension: nodes tracking
// per-tenant heavy-hitter flows answer LIST FLOWS with the top flows by
// live byte count (the inspectable face of the flow accounting the
// VNET adaptation loop consumes).
type FlowsProvider interface {
	// TopFlowSummary reports a "flows N" count line followed by one
	// line per heavy-hitter candidate, ordered by tenant then bytes.
	TopFlowSummary() []string
}

// Command is one parsed control command.
type Command struct {
	Verb string // ADD, DEL, LIST, LINK, TRACE
	Kind string // LINK, ROUTE, TENANT, INTERFACES, LINKS, ROUTES, STATS, HEALTH, TUNING, TENANTS, STATUS, PROBE, TUNE, START, STOP, DUMP

	// Link fields.
	LinkID string
	Remote string
	Proto  string

	// Route fields.
	Route core.Route

	// Probe-tuning fields (LINK PROBE).
	Interval time.Duration
	FailN    int
	RecoverN int

	// Trace fields (TRACE START).
	SampleN uint64
	FlowMAC ethernet.MAC
	HasFlow bool

	// Dispatch-tuning field (LINK TUNE): "latency", "throughput", "auto".
	Tune string

	// Tenant scopes ADD LINK / ADD ROUTE / DEL ROUTE (trailing
	// "TENANT <id>" clause) and names the tenant for ADD TENANT.
	Tenant uint32
	// Key is ADD TENANT's parsed key material. It is never echoed in
	// errors or responses.
	Key []byte
}

// Parse errors.
var (
	ErrEmpty  = errors.New("control: empty command")
	ErrSyntax = errors.New("control: syntax error")
)

// parseMACSpec parses a route endpoint spec: "any", "not-<mac>", or a MAC.
func parseMACSpec(s string) (ethernet.MAC, core.Qualifier, error) {
	switch {
	case strings.EqualFold(s, "any"):
		return ethernet.MAC{}, core.QualAny, nil
	case strings.HasPrefix(strings.ToLower(s), "not-"):
		m, err := ethernet.ParseMAC(s[4:])
		if err != nil {
			return ethernet.MAC{}, 0, err
		}
		return m, core.QualNot, nil
	default:
		m, err := ethernet.ParseMAC(s)
		if err != nil {
			return ethernet.MAC{}, 0, err
		}
		return m, core.QualExact, nil
	}
}

// formatMACSpec is the inverse of parseMACSpec.
func formatMACSpec(m ethernet.MAC, q core.Qualifier) string {
	switch q {
	case core.QualAny:
		return "any"
	case core.QualNot:
		return "not-" + m.String()
	default:
		return m.String()
	}
}

// parseDestType maps "interface"/"link" to a core.DestType.
func parseDestType(s string) (core.DestType, error) {
	switch strings.ToLower(s) {
	case "interface":
		return core.DestInterface, nil
	case "link":
		return core.DestLink, nil
	}
	return 0, fmt.Errorf("%w: bad destination type %q", ErrSyntax, s)
}

// Parse parses one command line. The grammar:
//
//	ADD LINK <id> REMOTE <host:port> [UDP|TCP] [TENANT <id>]
//	DEL LINK <id>
//	ADD ROUTE <dst-spec> <src-spec> {interface|link} <dest-id> [BACKUP {interface|link} <dest-id>] [TENANT <id>]
//	DEL ROUTE <dst-spec> <src-spec> {interface|link} <dest-id> [BACKUP {interface|link} <dest-id>] [TENANT <id>]
//	ADD TENANT <id> KEY <hex>
//	LIST {ROUTES|LINKS|INTERFACES|STATS|HEALTH|TUNING|TENANTS|FLOWS}
//	LINK STATUS <id>
//	LINK PROBE <interval-ms> <fail-threshold> <recover-threshold>
//	LINK TUNE <id> {LATENCY|THROUGHPUT|AUTO}
//	TRACE START [SAMPLE <n> | FLOW <mac>]
//	TRACE STOP
//	TRACE DUMP
//
// where a spec is "any", "not-<mac>", or "<mac>". BACKUP names the
// failover destination used while the primary is marked down by the
// link health monitor. LINK PROBE takes 0 for any value to keep its
// current setting. LINK TUNE pins a link's dispatch mode (LATENCY or
// THROUGHPUT) or returns it to the adaptive rate controller (AUTO);
// LIST TUNING reports every link's effective dispatch tunables.
// TRACE START with no argument samples every frame
// (SAMPLE 1); SAMPLE <n> samples 1 in n; FLOW <mac> traces every frame
// to or from the MAC regardless of the sampler.
//
// ADD TENANT installs (or rotates) a tenant's 64-hex-digit AEAD key; a
// trailing TENANT <id> clause on ADD LINK binds the link to a tenant
// (its traffic is sealed under the tenant's key), and on ADD/DEL ROUTE
// scopes the route to the tenant's private routing table. Tenant 0 is
// the plaintext default and cannot carry a key.
func Parse(line string) (*Command, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil, ErrEmpty
	}
	verb := strings.ToUpper(fields[0])
	switch verb {
	case "LIST":
		if len(fields) != 2 {
			return nil, fmt.Errorf("%w: LIST needs one of ROUTES|LINKS|INTERFACES|STATS|HEALTH|TUNING|TENANTS|FLOWS", ErrSyntax)
		}
		kind := strings.ToUpper(fields[1])
		switch kind {
		case "ROUTES", "LINKS", "INTERFACES", "STATS", "HEALTH", "TUNING", "TENANTS", "FLOWS":
			return &Command{Verb: verb, Kind: kind}, nil
		}
		return nil, fmt.Errorf("%w: unknown LIST target %q", ErrSyntax, fields[1])
	case "LINK":
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: LINK needs STATUS, PROBE, or TUNE", ErrSyntax)
		}
		switch kind := strings.ToUpper(fields[1]); kind {
		case "STATUS":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: LINK STATUS needs a link id", ErrSyntax)
			}
			return &Command{Verb: verb, Kind: kind, LinkID: fields[2]}, nil
		case "PROBE":
			if len(fields) != 5 {
				return nil, fmt.Errorf("%w: LINK PROBE needs interval-ms fail recover", ErrSyntax)
			}
			ms, err := strconv.Atoi(fields[2])
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("%w: bad probe interval %q", ErrSyntax, fields[2])
			}
			failN, err := strconv.Atoi(fields[3])
			if err != nil || failN < 0 {
				return nil, fmt.Errorf("%w: bad fail threshold %q", ErrSyntax, fields[3])
			}
			recoverN, err := strconv.Atoi(fields[4])
			if err != nil || recoverN < 0 {
				return nil, fmt.Errorf("%w: bad recover threshold %q", ErrSyntax, fields[4])
			}
			return &Command{
				Verb: verb, Kind: kind,
				Interval: time.Duration(ms) * time.Millisecond,
				FailN:    failN, RecoverN: recoverN,
			}, nil
		case "TUNE":
			if len(fields) != 4 {
				return nil, fmt.Errorf("%w: LINK TUNE needs a link id and LATENCY|THROUGHPUT|AUTO", ErrSyntax)
			}
			mode := strings.ToLower(fields[3])
			switch mode {
			case "latency", "throughput", "auto":
			default:
				return nil, fmt.Errorf("%w: bad tune mode %q (want LATENCY, THROUGHPUT, or AUTO)", ErrSyntax, fields[3])
			}
			return &Command{Verb: verb, Kind: kind, LinkID: fields[2], Tune: mode}, nil
		}
		return nil, fmt.Errorf("%w: unknown LINK subcommand %q", ErrSyntax, fields[1])
	case "TRACE":
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: TRACE needs START, STOP, or DUMP", ErrSyntax)
		}
		switch kind := strings.ToUpper(fields[1]); kind {
		case "STOP", "DUMP":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%w: TRACE %s takes no arguments", ErrSyntax, kind)
			}
			return &Command{Verb: verb, Kind: kind}, nil
		case "START":
			cmd := &Command{Verb: verb, Kind: kind}
			switch {
			case len(fields) == 2:
				cmd.SampleN = 1 // bare START: trace every frame
				return cmd, nil
			case len(fields) == 4 && strings.EqualFold(fields[2], "SAMPLE"):
				n, err := strconv.ParseUint(fields[3], 10, 64)
				if err != nil || n == 0 {
					return nil, fmt.Errorf("%w: bad sample rate %q", ErrSyntax, fields[3])
				}
				cmd.SampleN = n
				return cmd, nil
			case len(fields) == 4 && strings.EqualFold(fields[2], "FLOW"):
				m, err := ethernet.ParseMAC(fields[3])
				if err != nil {
					return nil, fmt.Errorf("%w: bad flow MAC %q", ErrSyntax, fields[3])
				}
				cmd.FlowMAC = m
				cmd.HasFlow = true
				return cmd, nil
			}
			return nil, fmt.Errorf("%w: TRACE START takes SAMPLE <n> or FLOW <mac>", ErrSyntax)
		}
		return nil, fmt.Errorf("%w: unknown TRACE subcommand %q", ErrSyntax, fields[1])
	case "ADD", "DEL":
	default:
		return nil, fmt.Errorf("%w: unknown verb %q", ErrSyntax, fields[0])
	}
	if len(fields) < 2 {
		return nil, ErrSyntax
	}
	kind := strings.ToUpper(fields[1])

	// Peel a trailing "TENANT <id>" clause off ADD LINK and ADD/DEL
	// ROUTE before the kind-specific arity checks.
	var tenant uint32
	if kind == "LINK" || kind == "ROUTE" {
		if n := len(fields); n >= 2 && strings.EqualFold(fields[n-2], "TENANT") {
			id, err := parseTenantID(fields[n-1])
			if err != nil {
				return nil, err
			}
			tenant = id
			fields = fields[:n-2]
		}
	}

	switch kind {
	case "TENANT":
		// ADD TENANT <id> KEY <hex>
		if verb != "ADD" || len(fields) != 5 || !strings.EqualFold(fields[3], "KEY") {
			return nil, fmt.Errorf("%w: TENANT needs ADD TENANT <id> KEY <hex>", ErrSyntax)
		}
		id, err := parseTenantID(fields[2])
		if err != nil {
			// Not parseTenantID's own error: it quotes its input, and on a
			// line with its arguments transposed that input is the key.
			return nil, fmt.Errorf("%w: bad tenant id in ADD TENANT <id> KEY <hex>", ErrSyntax)
		}
		if id == 0 {
			return nil, fmt.Errorf("%w: tenant 0 is the plaintext default and cannot carry a key", ErrSyntax)
		}
		key, err := seal.ParseKey(fields[4])
		if err != nil {
			// seal.ParseKey's errors never echo the key material.
			return nil, fmt.Errorf("%w: %v", ErrSyntax, err)
		}
		return &Command{Verb: verb, Kind: kind, Tenant: id, Key: key}, nil
	case "LINK":
		cmd := &Command{Verb: verb, Kind: kind, Tenant: tenant}
		switch {
		case verb == "DEL" && len(fields) == 3:
			cmd.LinkID = fields[2]
			return cmd, nil
		case verb == "ADD" && (len(fields) == 5 || len(fields) == 6) && strings.EqualFold(fields[3], "REMOTE"):
			cmd.LinkID = fields[2]
			cmd.Remote = fields[4]
			cmd.Proto = "udp"
			if len(fields) == 6 {
				p := strings.ToLower(fields[5])
				if p != "udp" && p != "tcp" {
					return nil, fmt.Errorf("%w: bad protocol %q", ErrSyntax, fields[5])
				}
				cmd.Proto = p
			}
			return cmd, nil
		}
		return nil, fmt.Errorf("%w: bad LINK command", ErrSyntax)
	case "ROUTE":
		if len(fields) != 6 && len(fields) != 9 {
			return nil, fmt.Errorf("%w: ROUTE needs dst src {interface|link} id [BACKUP {interface|link} id]", ErrSyntax)
		}
		dstMAC, dstQ, err := parseMACSpec(fields[2])
		if err != nil {
			return nil, err
		}
		srcMAC, srcQ, err := parseMACSpec(fields[3])
		if err != nil {
			return nil, err
		}
		dt, err := parseDestType(fields[4])
		if err != nil {
			return nil, err
		}
		r := core.Route{
			DstMAC: dstMAC, DstQual: dstQ,
			SrcMAC: srcMAC, SrcQual: srcQ,
			Dest:   core.Destination{Type: dt, ID: fields[5]},
			Tenant: tenant,
		}
		if len(fields) == 9 {
			if !strings.EqualFold(fields[6], "BACKUP") {
				return nil, fmt.Errorf("%w: expected BACKUP, got %q", ErrSyntax, fields[6])
			}
			bt, err := parseDestType(fields[7])
			if err != nil {
				return nil, err
			}
			r.Backup = core.Destination{Type: bt, ID: fields[8]}
			r.HasBackup = true
		}
		return &Command{Verb: verb, Kind: kind, Route: r, Tenant: tenant}, nil
	}
	return nil, fmt.Errorf("%w: unknown object %q", ErrSyntax, fields[1])
}

// parseTenantID parses a decimal tenant ID.
func parseTenantID(s string) (uint32, error) {
	id, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%w: bad tenant id %q", ErrSyntax, s)
	}
	return uint32(id), nil
}

// FormatRoute renders a route in the language's ROUTE argument form
// (round-trippable through Parse, including the BACKUP clause).
func FormatRoute(r core.Route) string {
	s := fmt.Sprintf("%s %s %s %s",
		formatMACSpec(r.DstMAC, r.DstQual),
		formatMACSpec(r.SrcMAC, r.SrcQual),
		strings.ToLower(r.Dest.Type.String()),
		r.Dest.ID)
	if r.HasBackup {
		s += fmt.Sprintf(" BACKUP %s %s", strings.ToLower(r.Backup.Type.String()), r.Backup.ID)
	}
	if r.Tenant != 0 {
		s += fmt.Sprintf(" TENANT %d", r.Tenant)
	}
	return s
}

// Apply executes a parsed command against a target, returning the
// response lines (without the OK/ERR status).
func Apply(t Target, cmd *Command) ([]string, error) {
	switch cmd.Verb + " " + cmd.Kind {
	case "ADD LINK":
		if cmd.Tenant != 0 {
			if tt, ok := t.(TenantTarget); ok {
				return nil, tt.AddLinkTenant(cmd.LinkID, cmd.Remote, cmd.Proto, cmd.Tenant)
			}
			return nil, fmt.Errorf("control: target does not support tenants")
		}
		return nil, t.AddLink(cmd.LinkID, cmd.Remote, cmd.Proto)
	case "ADD TENANT":
		if tt, ok := t.(TenantTarget); ok {
			return nil, tt.AddTenant(cmd.Tenant, cmd.Key)
		}
		return nil, fmt.Errorf("control: target does not support tenants")
	case "LIST TENANTS":
		if tt, ok := t.(TenantTarget); ok {
			return tt.TenantSummary(), nil
		}
		return nil, fmt.Errorf("control: target does not support tenants")
	case "DEL LINK":
		return nil, t.DelLink(cmd.LinkID)
	case "ADD ROUTE":
		return nil, t.AddRoute(cmd.Route)
	case "DEL ROUTE":
		return nil, t.DelRoute(cmd.Route)
	case "LIST ROUTES":
		var out []string
		for _, r := range t.Routes() {
			out = append(out, FormatRoute(r))
		}
		return out, nil
	case "LIST LINKS":
		return t.Links(), nil
	case "LIST INTERFACES":
		return t.Interfaces(), nil
	case "LIST STATS":
		if sp, ok := t.(StatsProvider); ok {
			return sp.Stats(), nil
		}
		return nil, fmt.Errorf("control: target does not export statistics")
	case "LIST FLOWS":
		if fp, ok := t.(FlowsProvider); ok {
			return fp.TopFlowSummary(), nil
		}
		return nil, fmt.Errorf("control: target does not track flows")
	case "LIST HEALTH":
		if ht, ok := t.(HealthTarget); ok {
			return ht.HealthSummary(), nil
		}
		return nil, fmt.Errorf("control: target does not monitor link health")
	case "LINK STATUS":
		if ht, ok := t.(HealthTarget); ok {
			return ht.LinkStatus(cmd.LinkID)
		}
		return nil, fmt.Errorf("control: target does not monitor link health")
	case "LINK PROBE":
		if ht, ok := t.(HealthTarget); ok {
			return nil, ht.SetProbeConfig(cmd.Interval, cmd.FailN, cmd.RecoverN)
		}
		return nil, fmt.Errorf("control: target does not monitor link health")
	case "LIST TUNING":
		if tt, ok := t.(TuneTarget); ok {
			return tt.TuningSummary(), nil
		}
		return nil, fmt.Errorf("control: target does not support dispatch tuning")
	case "LINK TUNE":
		if tt, ok := t.(TuneTarget); ok {
			return nil, tt.SetLinkTune(cmd.LinkID, cmd.Tune)
		}
		return nil, fmt.Errorf("control: target does not support dispatch tuning")
	case "TRACE START":
		if tt, ok := t.(TraceTarget); ok {
			return nil, tt.TraceStart(cmd.SampleN, cmd.FlowMAC, cmd.HasFlow)
		}
		return nil, fmt.Errorf("control: target does not support tracing")
	case "TRACE STOP":
		if tt, ok := t.(TraceTarget); ok {
			return nil, tt.TraceStop()
		}
		return nil, fmt.Errorf("control: target does not support tracing")
	case "TRACE DUMP":
		if tt, ok := t.(TraceTarget); ok {
			return tt.TraceDump(), nil
		}
		return nil, fmt.Errorf("control: target does not support tracing")
	}
	return nil, fmt.Errorf("control: unsupported command %s %s", cmd.Verb, cmd.Kind)
}

// RunScript applies a newline-separated batch of commands (e.g. a config
// file), ignoring blank lines and comments.
func RunScript(t Target, r io.Reader) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		cmd, err := Parse(sc.Text())
		if errors.Is(err, ErrEmpty) {
			continue
		}
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, err := Apply(t, cmd); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// DaemonConfig bounds the control console's exposure to slow, idle, or
// hostile clients. The console sits on a TCP port next to the datapath;
// an unbounded accept loop or an unbounded line buffer would let one
// misbehaving client pin memory or file descriptors on a node that is
// otherwise healthy. Zero values take the defaults.
type DaemonConfig struct {
	// ReadTimeout is how long the daemon waits for the next command on
	// an established connection before hanging it up (idle cull).
	// Default 2m.
	ReadTimeout time.Duration
	// WriteTimeout bounds flushing one response. Default 10s.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections; excess connections
	// get "ERR control: too many connections" and are closed. Default 32.
	MaxConns int
	// MaxLine is the longest accepted command line in bytes; longer
	// lines get "ERR control: line too long" and the connection is
	// closed (a protocol violation, not a retryable error). Default 4096.
	MaxLine int

	// TLS, when non-nil, wraps the console in mutual TLS (see
	// internal/seal/pki.ServerConfig): every client must present a
	// certificate from the configured CA, and plaintext clients are
	// refused at the handshake — no control-language byte is ever parsed
	// off an unauthenticated connection.
	TLS *tls.Config
}

func (c *DaemonConfig) normalize() {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 32
	}
	if c.MaxLine <= 0 {
		c.MaxLine = 4096
	}
}

// Daemon is the TCP control console: one command per line, responses are
// zero or more payload lines followed by "OK" or "ERR <message>".
type Daemon struct {
	target Target
	ln     net.Listener
	cfg    DaemonConfig
	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	conns  map[net.Conn]struct{}
}

// NewDaemon starts a control daemon listening on addr (e.g.
// "127.0.0.1:0") with the default hardening bounds.
func NewDaemon(target Target, addr string) (*Daemon, error) {
	return NewDaemonWithConfig(target, addr, DaemonConfig{})
}

// NewDaemonWithConfig starts a control daemon with explicit bounds.
func NewDaemonWithConfig(target Target, addr string, cfg DaemonConfig) (*Daemon, error) {
	cfg.normalize()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.TLS != nil {
		ln = tls.NewListener(ln, cfg.TLS)
	}
	d := &Daemon{target: target, ln: ln, cfg: cfg, conns: make(map[net.Conn]struct{})}
	d.wg.Add(1)
	go d.acceptLoop()
	return d, nil
}

// Addr reports the daemon's listen address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Close stops the daemon and waits for its goroutines. Live client
// connections are hung up immediately — shutdown must not wait out an
// idle client's read deadline.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.closed = true
	for c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	err := d.ln.Close()
	d.wg.Wait()
	return err
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return
		}
		if len(d.conns) >= d.cfg.MaxConns {
			d.mu.Unlock()
			// Reject over-cap connections with a parseable error so a
			// well-behaved client can distinguish "console full" from a
			// network failure, without tying up a serve goroutine.
			conn.SetWriteDeadline(time.Now().Add(d.cfg.WriteTimeout))
			fmt.Fprintln(conn, "ERR control: too many connections")
			conn.Close()
			continue
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer conn.Close()
			defer func() {
				d.mu.Lock()
				delete(d.conns, conn)
				d.mu.Unlock()
			}()
			d.serve(conn)
		}()
	}
}

func (d *Daemon) serve(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	// nil initial buffer: the scanner grows toward MaxLine but never past
	// it (a non-nil buf's capacity would override a smaller MaxLine).
	sc.Buffer(nil, d.cfg.MaxLine)
	w := bufio.NewWriter(conn)
	for {
		// Per-command idle deadline: a client that connects and goes
		// silent is hung up rather than holding a console slot forever.
		conn.SetReadDeadline(time.Now().Add(d.cfg.ReadTimeout))
		if !sc.Scan() {
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				// Oversized line: a protocol violation. Report and close —
				// the scanner has lost framing, so the connection cannot
				// be resynchronized.
				conn.SetWriteDeadline(time.Now().Add(d.cfg.WriteTimeout))
				fmt.Fprintln(conn, "ERR control: line too long")
			}
			return
		}
		line := sc.Text()
		cmd, err := Parse(line)
		if errors.Is(err, ErrEmpty) {
			continue
		}
		var payload []string
		if err == nil {
			d.mu.Lock()
			payload, err = Apply(d.target, cmd)
			d.mu.Unlock()
		}
		conn.SetWriteDeadline(time.Now().Add(d.cfg.WriteTimeout))
		for _, l := range payload {
			fmt.Fprintln(w, l)
		}
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
		} else {
			fmt.Fprintln(w, "OK")
		}
		if w.Flush() != nil {
			return
		}
	}
}
