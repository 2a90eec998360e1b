// Package overlay is the functional (real-packet) embodiment of VNET/P:
// a Node carries Ethernet frames between in-process guest endpoints and
// remote nodes over real UDP sockets, using the same routing table
// (internal/core) and encapsulation wire format (internal/bridge) as the
// simulated datapath. Two nodes on one machine (or across a network) form
// a working overlay: endpoints see one flat Ethernet LAN regardless of
// which node they attach to.
package overlay

import (
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/faultnet"
	"vnetp/internal/seal"
	"vnetp/internal/supervise"
	"vnetp/internal/telemetry"
	"vnetp/internal/trace"
)

// maxDatagram is the UDP payload budget per encapsulated datagram,
// conservative enough for any sane path MTU.
const maxDatagram = 1400

// epRingDepth is each endpoint's receive ring size, mirroring the
// virtio RXQ.
const epRingDepth = 256

// Endpoint is an in-process guest NIC attached to a node: whatever a VM's
// virtio NIC would hand to VNET/P, a test or application hands to Send,
// and receives via Recv.
type Endpoint struct {
	node   *Node
	name   string
	mac    ethernet.MAC
	mtu    int
	tenant uint32 // the VNET this endpoint lives in (0 = default)
	rx     chan *ethernet.Frame

	// sli is the owning tenant's per-tenant indicator handles, resolved
	// once at attach so delivery accounting is plain atomic adds.
	sli *tenantSLI
}

// Name returns the interface name the endpoint is registered under.
func (ep *Endpoint) Name() string { return ep.name }

// MAC returns the endpoint's address.
func (ep *Endpoint) MAC() ethernet.MAC { return ep.mac }

// MTU returns the endpoint's MTU.
func (ep *Endpoint) MTU() int { return ep.mtu }

// Tenant reports which tenant the endpoint is bound to (0 = default).
func (ep *Endpoint) Tenant() uint32 { return ep.tenant }

// Send routes a frame into the overlay. The frame's source should be the
// endpoint's MAC (the overlay routes on whatever addresses the frame
// carries, like a real switch). The frame is encoded before Send
// returns: the caller may reuse it at once. Send does not wait for the
// wire, so it never returns a link's transport error: a frame the
// transport refuses lands on the drop ledger as tx_error. Its errors are
// the frame's own (MTU, no route, unknown tenant) and ErrDraining. Send
// reads no clock: a frame's TX latency sample is timed by the batch it
// joins on its link (DESIGN "Latency stages"), and a frame delivered to
// a local endpoint is delivered as a copy.
func (ep *Endpoint) Send(f *ethernet.Frame) error {
	if ep.node.draining.Load() {
		return ErrDraining
	}
	if err := ep.admit(f); err != nil {
		return err
	}
	return ep.node.routeTenantAt(f, ep, true, ep.tenant)
}

// admit checks a frame against the endpoint's MTU and makes the live
// tracer's sampling decision: one atomic load when disabled, a fresh
// trace ID on the frame's Tag when selected. This is the virtio-pop
// analogue — the guest handing the frame over. The Tag is rewritten
// whenever its value must change (selected, or carrying a stale ID from
// a reused/copied frame struct) but never touched on the common untraced
// path, where the frame is only read.
func (ep *Endpoint) admit(f *ethernet.Frame) error {
	if f.PayloadLen() > ep.mtu {
		return fmt.Errorf("overlay: frame payload %d exceeds endpoint MTU %d", f.PayloadLen(), ep.mtu)
	}
	if id := ep.node.tracer.SampleTX(f.Src, f.Dst); id != 0 {
		f.Tag = id
		ep.node.tracer.Record(id, trace.StageVirtioPop)
	} else if f.Tag != 0 {
		f.Tag = 0
	}
	return nil
}

// SendBatch routes a batch of frames in one call — the overlay-side
// mirror of virtio's single-exit multi-packet dequeue. Each frame is
// sent as Send sends it, and per-frame errors (those Send would return)
// are aggregated rather than aborting the rest of the batch.
func (ep *Endpoint) SendBatch(frames []*ethernet.Frame) error {
	if ep.node.draining.Load() {
		return ErrDraining
	}
	var errs []error
	for _, f := range frames {
		err := ep.admit(f)
		if err == nil {
			err = ep.node.routeTenantAt(f, ep, true, ep.tenant)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Recv waits up to timeout for a delivered frame. A frame already in
// the ring returns without arming a timer; an empty ring arms one and
// stops it on the way out, leaving nothing in the runtime's timer heap.
func (ep *Endpoint) Recv(timeout time.Duration) (*ethernet.Frame, bool) {
	if f, ok := ep.TryRecv(); ok {
		return f, true
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case f := <-ep.rx:
		return f, true
	case <-t.C:
		return nil, false
	}
}

// TryRecv returns a delivered frame without waiting.
func (ep *Endpoint) TryRecv() (*ethernet.Frame, bool) {
	select {
	case f := <-ep.rx:
		return f, true
	default:
		return nil, false
	}
}

// deliver hands a frame to the endpoint's receive ring; a full ring
// sheds it onto the ledger instead (vnetp_endpoint_ring_drops_total is
// the funnel's per-interface view of that reason). A frame is delivered
// or dropped, never both: admitted = delivered + Σ ledger.
func (ep *Endpoint) deliver(f *ethernet.Frame) {
	n := ep.node
	select {
	case ep.rx <- f:
		ep.sli.framesIn.Add(1)
		ep.sli.bytesIn.Add(uint64(f.Len()))
		n.Delivered.Add(1)
		if f.Tag != 0 {
			n.tracer.Record(f.Tag, trace.StageDeliver)
			n.log.Debug("traced frame delivered",
				"trace_id", fmt.Sprintf("%016x", f.Tag), "interface", ep.name)
		}
	default:
		n.drop(dropEndpointRing, 1, telemetry.DropDetail{
			Tenant: ep.tenant, Scope: ep.name, Stage: "deliver",
			Flow: core.FlowKey{Tenant: ep.tenant, Src: f.Src, Dst: f.Dst}.String(),
		})
	}
}

// linkTransport is how a link reaches its peer at one instant. A
// published value is never modified: a change — fault conduit installed
// or cleared, UDP→TCP upgrade — publishes a fresh one, so a sender that
// loaded it works from one consistent view without a lock.
type linkTransport struct {
	proto  string            // "udp" or "tcp"
	addr   *net.UDPAddr      // UDP remote (kept after an upgrade to TCP)
	sa     []byte            // addr as a raw sockaddr for sendmmsg; nil when the stdlib must translate it
	fault  *faultnet.Conduit // optional fault injection on the send path
	budget int               // bytes per encapsulation datagram on proto
}

type link struct {
	id     string
	remote string
	health *linkHealth // liveness state, nil until monitored

	// transport is the link's current linkTransport, swapped under n.mu
	// and loaded lock-free by every send. tcp is the dialed TCP transport
	// (nil until a TCP link first sends, and between redials), likewise
	// stored under n.mu and loaded lock-free.
	transport atomic.Pointer[linkTransport]
	tcp       atomic.Pointer[tcpConn]

	// tenant binds the link to one tenant's VNET; sealer is the tenant's
	// per-link AEAD encryptor, which only the link's sender uses (flush),
	// nil on tenant-0 plaintext links — the interface is only assigned
	// when a concrete sealer exists, so a nil check is always valid. Both
	// are immutable after AddLink.
	tenant uint32
	sealer bridge.LinkSealer

	// tmpl is the link's prebuilt encapsulation header template (sealed
	// for tenant links, plain otherwise): the encoder stamps per-fragment
	// fields into a memcpy of it instead of re-marshalling the header per
	// fragment. Immutable after AddLink.
	tmpl *bridge.EncapTemplate

	// comb is the link's one batch (txbatch.go); wake is the one-slot
	// wakeup of the link's sender goroutine (txLoop), which flushes it, and
	// txw the sender's supervision handle (stopSender).
	comb combiner
	wake chan struct{}
	txw  *supervise.Worker

	// sendErrors counts transport send failures on this link, including
	// ones inside an installed fault conduit (whose delivery callback may
	// run on the conduit's own goroutine — hence atomic). The health
	// monitor, LINK STATUS, and /metrics surface it so chaos tests can
	// observe transport failures instead of having them swallowed.
	// bytesSent/bytesRecv account every encapsulation byte the link
	// carries (data and probes alike). All are children of the node's
	// per-link registry families.
	sendErrors *telemetry.Counter
	bytesSent  *telemetry.Counter
	bytesRecv  *telemetry.Counter

	// TCP redial backoff state (capped exponential).
	redialAt      time.Time
	redialBackoff time.Duration
	dialed        bool // a transport existed before, so the next dial is a redial

	// refused is the transport snapshot whose first multi-datagram train
	// the kernel would not segment (sendBatchUDP): while it is the
	// current one, trains leave as plain messages. A transport swap
	// publishes a fresh snapshot, which is tried again.
	refused atomic.Pointer[linkTransport]
}

// Node is one overlay routing point: the real-socket analogue of a
// VNET/P core + bridge pair on a host. It implements control.Target, so
// the control daemon and the VNET/U-compatible language configure it.
type Node struct {
	name  string
	cfg   NodeConfig  // normalized datapath configuration
	table *core.Table // alias of tenants.Default(): the tenant-0 table
	flows *core.FlowStats
	conn  *net.UDPConn // receive worker 0's socket, and the one every send leaves by
	tcpLn net.Listener // inbound TCP encapsulation (same port as UDP)

	// tenants is the per-tenant routing-table set (tenant 0 = table);
	// keyring holds the node's tenant AEAD keys and mints per-link
	// sealers. Both always exist.
	tenants *core.Tenants
	keyring *seal.Keyring

	// encap pools the encapsulation buffers of frames that travel alone
	// (encapFrame).
	encap bridge.Encapsulator

	// mu serializes the control plane: topology edits, link transport
	// swaps and dials, health state, accepted TCP transports. No frame
	// path takes it — those read topo and the links' atomics.
	mu       sync.Mutex
	topo     atomic.Pointer[topology]
	tcpConns map[*tcpConn]struct{} // accepted inbound TCP transports
	shards   []*rxShard            // one per receive worker: its socket and reassembly state
	nextID   atomic.Uint32

	// Per-flow fast path (flowcache.go). fcache is nil when disabled
	// (NodeConfig.FlowCacheDisabled); flowEpoch is bumped by every event
	// that can change a forwarding answer — route-cache invalidations in
	// any tenant table (via the core.Tenants hook), link and endpoint
	// lifecycle, tenant changes — retiring every cached decision in one
	// atomic add.
	fcache    *flowCache
	flowEpoch atomic.Uint64
	closed    bool
	draining  atomic.Bool // Drain in progress (or finished): admission stopped
	quit      chan struct{}
	wg        sync.WaitGroup // TCP accept/reader goroutines (connection-scoped)

	// sup supervises the long-lived datapath goroutines (receive
	// workers, per-link TX senders, the evictor, the health loop): panic
	// containment with restart backoff plus the stall watchdog. Always
	// non-nil after NewNodeWithConfig.
	sup *supervise.Supervisor

	// Link health monitor state (EnableHealth). healthCfg is normalized
	// from the start: its redial bounds apply with the monitor off too.
	healthOn  bool
	healthCfg HealthConfig
	healthW   *supervise.Worker

	// metrics is the node's telemetry registry and labeled families;
	// the exported counters below are registry children too, so LIST
	// STATS and /metrics read the same values.
	metrics *nodeMetrics

	// Introspection layer (ISSUE 10). ledger is the unified drop
	// accounting every datapath drop site reports through; slis holds
	// the per-tenant indicator families; topk maps tenant → heavy-
	// hitter candidate set (uint32 → *core.TopFlows); started anchors
	// the /diag bundle's uptime and the node's monotonic clock (mono);
	// anomalies counts watchdog alerts.
	started time.Time
	ledger  *telemetry.DropLedger
	slis    *tenantSLIs
	topk    sync.Map

	// Anomaly-watchdog previous-sample totals (on the Node so a
	// supervised restart of the loop resumes instead of re-alerting).
	anomalyDrops  atomic.Uint64
	anomalyStalls atomic.Uint64

	// tracer records per-stage wall-clock spans for sampled frames; it
	// always exists (disabled sampling costs one atomic load per
	// frame). log is the node's structured logger (never nil after
	// normalize).
	tracer *trace.LiveTracer
	log    *slog.Logger

	// Stats
	EncapSent *telemetry.Counter
	EncapRecv *telemetry.Counter
	Delivered *telemetry.Counter

	// tx is conn's raw transmit state (sendBatchUDP): the RawConn and the
	// pooled sendmmsg scratch.
	tx udpTx
}

// topology is what is attached to the node at one instant — links and
// endpoints by name, UDP links by remote address (receive-byte
// attribution). A published value is never modified: an edit, under
// n.mu, publishes a changed copy, and frame paths resolve against
// whichever value they loaded. An edit that removes or replaces
// something publishes BEFORE the flow epoch is bumped: a fill that read
// the new epoch can then only have resolved against the new topology,
// and one that read the old epoch is stale whatever it saw.
type topology struct {
	links      map[string]*link
	eps        map[string]*Endpoint
	linkByAddr map[string]*link
}

// editTopology publishes a copy of the topology with edit applied.
// Caller holds n.mu.
func (n *Node) editTopology(edit func(*topology)) {
	old := n.topo.Load()
	t := &topology{
		links:      maps.Clone(old.links),
		eps:        maps.Clone(old.eps),
		linkByAddr: maps.Clone(old.linkByAddr),
	}
	edit(t)
	n.topo.Store(t)
}

// unmapAddr removes a link's addr→link attribution entry if it still
// points at lk.
func (t *topology) unmapAddr(lk *link) {
	if addr := lk.transport.Load().addr; addr != nil {
		if key := addr.String(); t.linkByAddr[key] == lk {
			delete(t.linkByAddr, key)
		}
	}
}

// NewNode binds a node to a UDP address ("127.0.0.1:0" for tests) with
// the default receive configuration.
func NewNode(name, bindAddr string) (*Node, error) {
	return NewNodeWithConfig(name, bindAddr, NodeConfig{})
}

// NewNodeWithConfig binds a node with an explicit datapath
// configuration.
func NewNodeWithConfig(name, bindAddr string, cfg NodeConfig) (*Node, error) {
	cfg.normalize()
	conns, tcpLn, err := listenNode(bindAddr, cfg.dispatchers)
	if err != nil {
		return nil, err
	}
	cfg.dispatchers = len(conns)
	// Deep socket buffers: a worker's receive queue is the one queue ahead
	// of it, and what overflows it is lost (dispatcher_ring). Best effort
	// (the OS may clamp).
	for _, c := range conns {
		c.SetReadBuffer(4 << 20)
	}
	conns[0].SetWriteBuffer(4 << 20)
	tenants := core.NewTenants()
	n := &Node{
		name:     name,
		cfg:      cfg,
		tenants:  tenants,
		table:    tenants.Default(),
		keyring:  seal.NewKeyring(originID(name)),
		flows:    core.NewFlowStats(),
		conn:     conns[0],
		tcpLn:    tcpLn,
		tcpConns: make(map[*tcpConn]struct{}),
		quit:     make(chan struct{}),
	}
	n.healthCfg.normalize()
	n.tx.init(conns[0])
	n.topo.Store(&topology{
		links:      map[string]*link{},
		eps:        map[string]*Endpoint{},
		linkByAddr: map[string]*link{},
	})
	if !cfg.FlowCacheDisabled {
		n.fcache = newFlowCache(flowCacheSize)
	}
	// Any route-cache invalidation in any tenant namespace — route
	// churn, FailDest/RestoreDest, teardown sweeps — retires the flow
	// cache wholesale. Installed before any table can carry routes.
	tenants.SetInvalidateHook(n.bumpFlowEpoch)
	n.log = cfg.Logger
	n.tracer = trace.NewLive(name, originID(name))
	if cfg.TraceSample > 0 {
		n.tracer.Start(cfg.TraceSample)
	}
	n.started = time.Now()
	reg := telemetry.NewRegistry()
	n.metrics = newNodeMetrics(reg)
	n.ledger = telemetry.NewDropLedger(reg, dropReasons...)
	n.slis = newTenantSLIs(reg)
	n.slis.get(core.DefaultTenant) // tenant 0 visible from the first scrape
	n.metrics.anomalies.With(anomalyDropRate)
	n.metrics.anomalies.With(anomalyWatchdogStall)
	n.EncapSent = reg.Counter("vnetp_encap_sent_total", "Inner frames encapsulated and sent over links.")
	n.EncapRecv = reg.Counter("vnetp_encap_recv_total", "Inner frames reassembled from links.")
	n.Delivered = reg.Counter("vnetp_frames_delivered_total", "Frames delivered to local endpoints.")
	n.shards = make([]*rxShard, cfg.dispatchers)
	for i := range n.shards {
		w := fmt.Sprint(i)
		n.shards[i] = &rxShard{
			idx:       i,
			conn:      conns[i],
			reasm:     bridge.NewReassembler(),
			flight:    trace.NewFlightRing(cfg.FlightDepth, flightSnap),
			Datagrams: n.metrics.dispDatagrams.With(w),
			Frames:    n.metrics.dispFrames.With(w),
		}
	}
	n.registerNodeFuncs()
	if n.tcpLn != nil {
		n.wg.Add(1)
		go n.acceptTCP()
	}
	// Every long-lived datapath goroutine runs supervised: a panic in
	// one component is contained and the component restarts with capped
	// jittered backoff over the same shared state (sockets, shards); the
	// watchdog supersedes components stuck inside one work item.
	n.sup = supervise.New(name, cfg.supervise, n.log, supervise.Metrics{
		Panics:   n.metrics.panicsRecovered,
		Restarts: n.metrics.componentRestarts,
		Stalls:   n.metrics.watchdogStalls,
	})
	n.sup.Go("evictor", func(i *supervise.Instance) { n.evictLoop(i) })
	for _, s := range n.shards {
		s := s
		n.sup.Go(fmt.Sprintf("dispatcher/%d", s.idx),
			func(i *supervise.Instance) { n.readLoop(i, s) })
	}
	if !cfg.Anomaly.Disabled {
		n.sup.Go("anomaly", func(i *supervise.Instance) { n.anomalyLoop(i) })
	}
	n.log.Info("overlay node up",
		"node", name, "addr", n.Addr(),
		"dispatchers", len(n.shards), "trace_sample", cfg.TraceSample,
		"flight_depth", cfg.FlightDepth)
	return n, nil
}

// originID derives a node's 16-bit trace origin identity from its name
// (FNV-1a folded to 16 bits) — stable across restarts, carried in the
// wire trace extension so both halves of a cross-node trace attribute
// hops to the originating node.
func originID(name string) uint16 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return uint16(h>>16) ^ uint16(h)
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Addr reports the node's UDP address (for peers' ADD LINK commands).
func (n *Node) Addr() string { return n.conn.LocalAddr().String() }

// Table exposes the node's routing table.
func (n *Node) Table() *core.Table { return n.table }

// Flows exposes the node's per-flow traffic accounting (what the
// adaptation layer observes).
func (n *Node) Flows() *core.FlowStats { return n.flows }

// Runtime exposes the node's goroutine supervisor: component lookup for
// status surfaces and the chaos-injection hooks
// (Worker.InjectPanic/InjectStall) the crash-injection tests use.
func (n *Node) Runtime() *supervise.Supervisor { return n.sup }

// Close shuts the node down immediately, discarding queued TX frames
// and partial reassemblies (Drain is the graceful path).
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.healthOn = false
	n.healthW = nil // sup.Stop reaps it below
	for _, lk := range n.topo.Load().links {
		if c := lk.tcp.Load(); c != nil {
			c.close()
		}
	}
	for c := range n.tcpConns {
		c.close()
	}
	n.mu.Unlock()
	close(n.quit)
	var err error
	for _, s := range n.shards { // a worker parked in a read retires when its socket closes
		err = errors.Join(err, s.conn.Close())
	}
	if n.tcpLn != nil {
		n.tcpLn.Close()
	}
	n.sup.Stop() // supervised loops: receive workers, TX senders, evictor, health
	n.wg.Wait()  // TCP accept loop and connection readers
	for _, lk := range n.topo.Load().links {
		n.stopSender(lk)
	}
	return err
}

// AttachEndpoint registers an in-process guest NIC under an interface
// name and adds the unicast route delivering its MAC locally, in the
// default tenant.
func (n *Node) AttachEndpoint(ifName string, mac ethernet.MAC, mtu int) (*Endpoint, error) {
	return n.AttachEndpointTenant(ifName, mac, mtu, core.DefaultTenant)
}

// AttachEndpointTenant is AttachEndpoint bound to a tenant: the
// endpoint's frames route only through the tenant's private table, and
// only that tenant's frames can be delivered to it. Two tenants may
// attach endpoints with colliding MACs on the same node.
func (n *Node) AttachEndpointTenant(ifName string, mac ethernet.MAC, mtu int, tenant uint32) (*Endpoint, error) {
	if mtu <= 0 {
		mtu = ethernet.StandardMTU
	}
	if mtu > ethernet.MaxMTU {
		mtu = ethernet.MaxMTU
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.topo.Load().eps[ifName]; dup {
		return nil, fmt.Errorf("overlay: interface %q exists", ifName)
	}
	ep := &Endpoint{
		node: n, name: ifName, mac: mac, mtu: mtu, tenant: tenant,
		rx:  make(chan *ethernet.Frame, epRingDepth),
		sli: n.slis.get(tenant),
	}
	n.metrics.epDrops.With(ifName) // moved by the drop funnel, by interface name
	n.editTopology(func(t *topology) { t.eps[ifName] = ep })
	n.tenants.Ensure(tenant).AddRoute(core.Route{
		DstMAC: mac, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest:   core.Destination{Type: core.DestInterface, ID: ifName},
		Tenant: tenant,
	})
	return ep, nil
}

// DetachEndpoint removes an endpoint (e.g. the VM migrated away) along
// with routes pointing at it, in every tenant's table.
func (n *Node) DetachEndpoint(ifName string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.editTopology(func(t *topology) { delete(t.eps, ifName) })
	n.metrics.epDrops.Delete(ifName)
	n.bumpFlowEpoch() // cached deliveries to the detached endpoint must die
	dest := core.Destination{Type: core.DestInterface, ID: ifName}
	n.tenants.Each(func(_ uint32, t *core.Table) { t.RemoveByDest(dest) })
}

// --- control.Target implementation ---

// AddLink installs an overlay link to a remote node: "udp" (the fast
// path) or "tcp" (length-prefixed encapsulation on a persistent
// connection, for lossy or middlebox-ridden paths). The link carries
// tenant-0 (plaintext) traffic.
func (n *Node) AddLink(id, remote string, proto string) error {
	return n.addLink(id, remote, proto, core.DefaultTenant)
}

// AddLinkTenant installs a link bound to a tenant: every datagram it
// carries is sealed (AEAD-encrypted and authenticated) under the
// tenant's key, and only that tenant's frames route onto it. Fails
// closed if the tenant's key has not been installed (AddTenant).
func (n *Node) AddLinkTenant(id, remote, proto string, tenant uint32) error {
	return n.addLink(id, remote, proto, tenant)
}

func (n *Node) addLink(id, remote, proto string, tenant uint32) error {
	if len(id) > maxLinkID {
		return fmt.Errorf("overlay: link ID of %d bytes: a probe names at most %d", len(id), maxLinkID)
	}
	if proto == "" {
		proto = "udp"
	}
	var sealer bridge.LinkSealer
	if tenant != core.DefaultTenant {
		sl, err := n.keyring.Sealer(tenant)
		if err != nil {
			return fmt.Errorf("overlay: link %q: %w", id, err)
		}
		sealer = sl
	}
	tr := &linkTransport{proto: proto, budget: maxDatagram}
	switch proto {
	case "udp":
		var err error
		tr.addr, err = net.ResolveUDPAddr("udp", remote)
		if err != nil {
			return err
		}
		tr.sa = sockaddrFor(n.conn, tr.addr)
	case "tcp":
		tr.budget = tcpMaxDatagram
	default:
		return fmt.Errorf("overlay: unknown link protocol %q", proto)
	}
	lk := &link{id: id, remote: remote, tenant: tenant, wake: make(chan struct{}, 1)}
	lk.comb.cond.L = &lk.comb.mu
	lk.transport.Store(tr)
	if sealer != nil {
		lk.sealer = sealer
	}
	lk.tmpl = bridge.NewEncapTemplate(sealer)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("overlay: node closed")
	}
	old := n.topo.Load().links[id]
	if old != nil {
		// Replaced link: detach its metric children, in every family
		// labelled by link, so the new link's counters restart from zero,
		// as a fresh link's always have.
		n.metrics.reg.DeleteLabel("link", id)
	}
	n.newLinkCounters(lk)
	if n.healthOn {
		lk.health = n.newLinkHealth(lk, n.healthCfg.LossWindow)
	}
	n.editTopology(func(t *topology) {
		if old != nil {
			t.unmapAddr(old)
		}
		t.links[id] = lk
		if tr.addr != nil {
			t.linkByAddr[tr.addr.String()] = lk
		}
	})
	// A replaced link's cached decisions point at the dead *link; a
	// fresh link may satisfy flows that previously had no answer. Either
	// way every cached decision predating this link set is now suspect.
	n.bumpFlowEpoch()
	lk.txw = n.sup.Go("tx/"+id, func(i *supervise.Instance) { n.txLoop(i, lk) })
	var oldTCP *tcpConn
	if old != nil {
		oldTCP = old.tcp.Swap(nil)
	}
	n.mu.Unlock()
	if old != nil {
		n.stopSender(old)
	}
	if oldTCP != nil { // replaced link: don't leak its transport
		oldTCP.close()
	}
	n.log.Info("link added", "node", n.name, "link", id, "proto", proto, "remote", remote)
	return nil
}

// DelLink removes a link, its routes, and — closing the gap that used to
// leak the connection and its read goroutine — any dialed TCP transport.
func (n *Node) DelLink(id string) error {
	n.mu.Lock()
	lk, ok := n.topo.Load().links[id]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("overlay: no link %q", id)
	}
	n.editTopology(func(t *topology) {
		delete(t.links, id)
		t.unmapAddr(lk)
	})
	n.metrics.reg.DeleteLabel("link", id)
	// Explicit bump (not just the route-sweep hook below): the DEL LINK
	// may find no routes to remove, yet cached decisions still hold the
	// deleted link and must die before the sweep's outcome is known.
	n.bumpFlowEpoch()
	tcp := lk.tcp.Swap(nil)
	dest := core.Destination{Type: core.DestLink, ID: id}
	n.tenants.Each(func(_ uint32, t *core.Table) {
		t.RemoveByDest(dest)
		t.RestoreDest(dest) // drop any lingering failed-over mark
	})
	n.mu.Unlock()
	n.stopSender(lk) // what it left pending lands on tx_teardown
	if tcp != nil {
		tcp.close()
	}
	n.log.Info("link deleted", "node", n.name, "link", id)
	return nil
}

// SetLinkFault installs (or clears, with nil) a fault-injection conduit
// on a link's outbound datagram path. Heartbeat probes and data both
// traverse it, so chaos tests exercise exactly the datapath real traffic
// uses. It applies from the link's next send: cached flow decisions hold
// the link, not its transport, so nothing needs retiring.
func (n *Node) SetLinkFault(id string, c *faultnet.Conduit) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	lk, ok := n.topo.Load().links[id]
	if !ok {
		return fmt.Errorf("overlay: no link %q", id)
	}
	tr := *lk.transport.Load()
	tr.fault = c
	lk.transport.Store(&tr)
	return nil
}

// ActiveTCP reports how many TCP transports (inbound accepted plus
// outbound dialed) the node currently holds.
func (n *Node) ActiveTCP() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := len(n.tcpConns)
	for _, lk := range n.topo.Load().links {
		if lk.tcp.Load() != nil {
			c++
		}
	}
	return c
}

// AddTenant installs (or rotates) a tenant's AEAD master key and brings
// the tenant's private routing table into existence. Only the key's
// fingerprint ever reaches the log.
func (n *Node) AddTenant(id uint32, key []byte) error {
	if err := n.keyring.AddTenant(id, key); err != nil {
		return err
	}
	n.tenants.Ensure(id)
	n.bumpFlowEpoch() // tenant changes retire cached flow decisions
	n.log.Info("tenant key installed",
		"node", n.name, "tenant", id, "fingerprint", seal.Fingerprint(key))
	return nil
}

// routeTable resolves a route's tenant table: tenant 0 always exists,
// any other tenant must have been created by AddTenant or an endpoint
// attach — routing state for an unknown tenant fails closed.
func (n *Node) routeTable(tenant uint32) (*core.Table, error) {
	tbl := n.tenants.Table(tenant)
	if tbl == nil {
		return nil, fmt.Errorf("overlay: unknown tenant %d", tenant)
	}
	return tbl, nil
}

// AddRoute installs a routing rule in its tenant's table.
func (n *Node) AddRoute(r core.Route) error {
	tbl, err := n.routeTable(r.Tenant)
	if err != nil {
		return err
	}
	tbl.AddRoute(r)
	return nil
}

// DelRoute removes a routing rule from its tenant's table.
func (n *Node) DelRoute(r core.Route) error {
	tbl, err := n.routeTable(r.Tenant)
	if err != nil {
		return err
	}
	if !tbl.RemoveRoute(r) {
		return errors.New("overlay: no such route")
	}
	return nil
}

// Routes lists every tenant's routing rules (tenant 0 first).
func (n *Node) Routes() []core.Route {
	var out []core.Route
	n.tenants.Each(func(_ uint32, t *core.Table) { out = append(out, t.Routes()...) })
	return out
}

// Links lists link IDs.
func (n *Node) Links() []string {
	links := n.topo.Load().links
	out := make([]string, 0, len(links))
	for id := range links {
		out = append(out, id)
	}
	return out
}

// Interfaces lists attached endpoint names.
func (n *Node) Interfaces() []string {
	eps := n.topo.Load().eps
	out := make([]string, 0, len(eps))
	for name := range eps {
		out = append(out, name)
	}
	return out
}

// routeTenantAt routes one frame inside one tenant's namespace: the
// sending endpoint's for a locally originated frame (from non-nil,
// sample set: it takes a TX latency sample), the authenticated wire
// tenant's for a forwarded one (from nil, sample clear). A unicast frame
// is one forwarding decision and goes to forwardUnicast (flowcache.go) —
// hit or miss, cache on or off; what remains here is the
// broadcast/multicast fan-out over the tenant's destination set, each leg
// a transient decision handed to the same forwardTo (which re-checks
// tenancy, so a misinstalled route cannot leak frames across tenants). A
// failing destination does not abort the fan-out: the rest still get
// their copy — a broadcast hitting one dead link must not starve the rest
// of the LAN. Every local endpoint gets a frame of its own: forwardTo
// copies a locally originated frame, and a forwarded one goes itself to
// its first local endpoint, once every other leg is done reading it, and
// as a copy to the rest.
func (n *Node) routeTenantAt(f *ethernet.Frame, from *Endpoint, sample bool, tenant uint32) error {
	key := core.FlowKey{Tenant: tenant, Src: f.Src, Dst: f.Dst}
	if !f.Dst.IsBroadcast() && !f.Dst.IsMulticast() {
		return n.forwardUnicast(key, f, from, sample)
	}
	if from != nil {
		n.countOut(n.slis.get(tenant), n.flows.Acquire(f.Src, f.Dst), key, f)
	}
	var dests []core.Destination
	tbl, err := n.routeTable(tenant) // an unknown tenant fails closed
	if err == nil {
		dests, _, err = tbl.Lookup(f.Src, f.Dst)
	}
	if err != nil {
		n.drop(dropNoRoute, 1, routeDetail(key, ""))
		return err
	}
	if f.Tag != 0 {
		n.tracer.Record(f.Tag, trace.StageRouteLookup)
	}
	var held *Endpoint // a forwarded frame's first local endpoint
	for _, d := range dests {
		e := flowEntry{tenant: tenant}
		n.resolveDest(&e, d)
		switch {
		case e.ep == nil && e.lk == nil:
			n.drop(dropNoRoute, 1, routeDetail(key, d.ID))
		case e.ep != nil && from == nil && held == nil:
			held = e.ep
		case e.ep != nil && from == nil:
			n.forwardTo(&e, key, f.Clone(), nil, false)
		default:
			n.forwardTo(&e, key, f, from, sample)
			if e.lk != nil {
				sample = false // one TX latency sample per frame, from its first link leg
			}
		}
	}
	if held != nil {
		n.forwardTo(&flowEntry{tenant: tenant, ep: held}, key, f, nil, false)
	}
	return nil
}

// countOut charges one locally originated frame to its tenant's
// indicators and its flow's accounting entry, and proposes the flow to
// the tenant's heavy-hitter set whenever its packet count reaches a
// power of two: the first frame makes every flow a candidate, and one
// refused while light (core.TopFlows) is offered again as it grows —
// O(log packets) offers per flow for one branch per frame. A nil fl is a
// flow FlowStats has not admitted: the tenant is charged all the same,
// and there is no flow to count or offer.
func (n *Node) countOut(sli *tenantSLI, fl *core.Flow, key core.FlowKey, f *ethernet.Frame) {
	sli.framesOut.Add(1)
	sli.bytesOut.Add(uint64(f.Len()))
	if p := fl.Add(f.Len()); p != 0 && p&(p-1) == 0 {
		n.offerTopFlow(key, fl)
	}
}

// routeDetail is the ledger detail of a frame refused at the route
// stage: no usable destination (no_route — no matching route, unknown
// tenant, or a route naming an absent target), or a resolved endpoint or
// link bound to another tenant (cross_tenant). scope names the target.
func routeDetail(key core.FlowKey, scope string) telemetry.DropDetail {
	return telemetry.DropDetail{Tenant: key.Tenant, Scope: scope, Stage: "route", Flow: key.String()}
}

// encapFrame encapsulates one frame that travels alone — traced, or too
// long for a record train — for a link, through the link's header
// template (bridge.EncapsulateFor): a traced frame's header carries its
// trace extension as well. On a tenant-bound link the datagrams come back
// in the clear, for the link's sender to seal (flush). The caller
// releases the packet.
func (n *Node) encapFrame(lk *link, f *ethernet.Frame, budget int) (*bridge.EncapPacket, error) {
	pkt, err := n.encap.EncapsulateFor(f, n.nextID.Add(1), budget, lk.tmpl, n.traceExt(f.Tag))
	if err != nil {
		return nil, err
	}
	if f.Tag != 0 {
		n.tracer.Record(f.Tag, trace.StageEncap)
	}
	return pkt, nil
}

// traceExt builds the wire trace extension for a traced frame's tag
// (nil for untraced frames, so the encoder emits a plain header). The
// origin and flags come from the tracer's path state, so a node
// forwarding a remotely originated trace re-emits the original context.
func (n *Node) traceExt(tag uint64) *bridge.TraceExt {
	if tag == 0 {
		return nil
	}
	origin, flags, ok := n.tracer.Ext(tag)
	if !ok {
		return nil
	}
	return &bridge.TraceExt{ID: tag, Origin: origin, Flags: flags}
}

// rxAttrib is a receive worker's sender-attribution cache: the sender-key
// string for the common case of consecutive datagrams from one peer (a
// fragmented jumbo frame arrives as a burst from the same address) —
// String() per datagram would allocate — plus the sender's link for
// receive-byte attribution, looked up again when the key or the
// published topology changes.
type rxAttrib struct {
	lastAddr net.UDPAddr
	lastKey  string
	lastLink *link
	lastTopo *topology
}

// readLoop is one receive worker, run to completion: it drains batches
// of reads off its socket (recvmmsg with UDP_GRO on linux/{amd64,arm64} —
// a read is then a whole train of datagrams — and one ReadFromUDP per
// wakeup elsewhere) into its reader's buffers and finishes every datagram
// before it reads again. Supervised as "dispatcher/<idx>": a panic loses
// the batch in hand and restarts the loop over the still-open socket; an
// instance superseded for stalling finishes its batch when it unblocks
// and leaves, while its replacement reads the same socket into buffers of
// its own; a clean return (socket closed) retires the worker. Blocking in
// readBatch is idle, not a stall: the progress markers bracket a batch.
func (n *Node) readLoop(inst *supervise.Instance, s *rxShard) {
	rdr := newBatchReader(s.conn, n.cfg.portableRx)
	batch := make([]rxPacket, rxBatch)
	var attr rxAttrib
	for {
		select {
		case <-inst.Quit(): // superseded or stopping: the replacement owns the socket
			return
		default:
		}
		cnt, err := rdr.readBatch(batch)
		if err != nil {
			return
		}
		inst.Working()
		at := n.mono()
		datagrams := 0
		for _, p := range batch[:cnt] {
			datagrams += n.receive(s, p, at, &attr)
		}
		n.metrics.rxBatchSize.Observe(float64(datagrams))
		inst.Idle()
	}
}

// receive finishes one socket read on the calling worker: what the
// kernel shed ahead of it goes on the ledger, then link attribution via
// the worker's cache, a read that is a train is counted, then every
// datagram of the read is finished by
// datagram right here, in arrival order — per datagram, never per read:
// GRO will put a peer's probe behind its data when they share a flow.
// p.pkt is borrowed for the call. Returns how many datagrams the read
// held.
func (n *Node) receive(s *rxShard, p rxPacket, at time.Duration, attr *rxAttrib) (datagrams int) {
	// The socket's overflow count only grows (u32, compared wrap-safe):
	// whoever moves the worker's copy of it forward charges the difference,
	// so a superseded instance finishing an old batch late charges nothing.
	for last := s.ovfl.Load(); int32(p.ovfl-last) > 0; last = s.ovfl.Load() {
		if s.ovfl.CompareAndSwap(last, p.ovfl) {
			n.drop(dropDispatcherRing, uint64(p.ovfl-last), telemetry.DropDetail{
				Scope: strconv.Itoa(s.idx), Stage: "rx_socket",
			})
		}
	}
	from := p.from
	changed := attr.lastKey == "" || from.Port != attr.lastAddr.Port || !from.IP.Equal(attr.lastAddr.IP)
	if changed {
		attr.lastAddr = *from
		attr.lastKey = from.String()
	}
	if t := n.topo.Load(); changed || t != attr.lastTopo {
		attr.lastTopo = t
		attr.lastLink = t.linkByAddr[attr.lastKey]
	}
	if attr.lastLink != nil {
		attr.lastLink.bytesRecv.Add(uint64(len(p.pkt)))
	}
	if p.seg > 0 && p.seg < len(p.pkt) { // a train: counted before any of its frames is delivered
		n.metrics.rxGROTrains.Add(1)
	}
	for d, rest := nextSegment(p.pkt, p.seg); ; d, rest = nextSegment(rest, p.seg) {
		datagrams++
		n.datagram(s, attr.lastKey, from, nil, d, at)
		if len(rest) == 0 {
			break
		}
	}
	return datagrams
}

// evictLoop ages out stale partial reassemblies on every shard: each
// tick runs one generation sweep (NodeConfig.evictInterval apart), so a
// partial untouched for two ticks — a dead or partitioned sender, or a
// lost datagram — is dropped, its buffers freed and the frames it stood
// for charged, unless a refused slice of it already charged them.
// Supervised as "evictor": the sweep state is derived from the shards,
// so a restarted instance picks up exactly where the old one left off.
func (n *Node) evictLoop(inst *supervise.Instance) {
	t := time.NewTicker(n.cfg.evictInterval)
	defer t.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-inst.Quit():
			return
		case <-t.C:
			inst.Working()
			for _, s := range n.shards {
				s.mu.Lock()
				evicted := s.reasm.EvictStale() // frames: a train's count, a frame's one
				s.mu.Unlock()
				if evicted > 0 {
					n.drop(dropReassemblyEvict, uint64(evicted), telemetry.DropDetail{
						Scope: fmt.Sprint(s.idx), Stage: "reassembly",
					})
				}
			}
			inst.Idle()
		}
	}
}
