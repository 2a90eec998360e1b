// Command vnetpd runs a VNET/P overlay node over real UDP sockets: the
// userspace analogue of the in-VMM core + bridge pair, configurable at
// startup from a script and at runtime through the VNET/U-compatible TCP
// control console.
//
// Usage:
//
//	vnetpd -name a -bind 0.0.0.0:7777 -control 127.0.0.1:7778 \
//	       -config overlay.conf -echo nic0:02:56:00:00:00:01
//
// The -echo flag attaches an in-process endpoint that reflects every
// received test frame back to its sender (swapping the MAC addresses), so
// two daemons can be smoke-tested end to end without guests.
//
// Transmit: every Send encodes its frame into its link's one pending
// batch before it returns, and every link has a sender goroutine that
// flushes it, the live adaptive dispatcher — a lone frame leaves alone, a
// loaded link's frames leave together, with nothing to tune.
//
// Security: -control-tls-cert/-key/-ca put the control console behind
// mutual TLS (certificates from `vnetctl keygen`); plaintext clients are
// refused outright. -tenant-key installs per-tenant AEAD keys at startup
// so tenant-bound links (ADD LINK ... TENANT n) seal every datagram, and
// -echo accepts an optional @tenant suffix to bind the echo endpoint
// into a tenant's namespace.
//
// Observability: -log-level/-log-format select the structured log output,
// -trace-sample enables 1-in-N live packet tracing at startup (also
// switchable at runtime via the TRACE control verb), and -flight-depth
// arms the per-dispatcher flight recorder. With -telemetry-addr set, the
// HTTP server additionally serves /trace (sampled packet paths, JSON),
// /flight (flight-recorder contents; ?format=pcap downloads a capture),
// /topflows (per-tenant heavy hitters, JSON), and /diag (the one-shot
// diagnostic snapshot bundle `vnetctl diag` fetches). The anomaly
// watchdog is on by default: it samples the unified drop ledger and
// alerts (structured log + counter) when the drop rate crosses
// -anomaly-drop-rate; -anomaly-interval=0 disables it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vnetp/internal/control"
	"vnetp/internal/ethernet"
	"vnetp/internal/logging"
	"vnetp/internal/overlay"
	"vnetp/internal/seal"
	"vnetp/internal/seal/pki"
	"vnetp/internal/telemetry"
)

func main() {
	name := flag.String("name", "vnetp", "node name")
	bind := flag.String("bind", "127.0.0.1:7777", "UDP address for encapsulated traffic")
	ctrlAddr := flag.String("control", "", "TCP address for the control console (empty: disabled)")
	config := flag.String("config", "", "configuration script applied at startup")
	echo := flag.String("echo", "", "attach an echo endpoint: <ifname>:<mac>")
	flowCache := flag.Bool("flow-cache", true, "per-flow forwarding cache: one lookup plus a header memcpy on the steady-state path (false: per-frame route lookup)")
	telemetryAddr := flag.String("telemetry-addr", "", "HTTP address for /metrics, /trace, /flight, /topflows, /diag, /debug/pprof/, /healthz (empty: disabled)")
	anomalyInterval := flag.Duration("anomaly-interval", 5*time.Second, "anomaly watchdog sample period (0: watchdog off)")
	anomalyDropRate := flag.Float64("anomaly-drop-rate", 100, "ledger drops per second that trigger an anomaly alert")
	health := flag.Bool("health", false, "enable the link health monitor (heartbeats, failover, redial)")
	probeInterval := flag.Duration("probe-interval", 200*time.Millisecond, "heartbeat probe interval (with -health)")
	probeFail := flag.Int("probe-fail", 3, "consecutive missed probes before a link is down (with -health)")
	probeRecover := flag.Int("probe-recover", 2, "consecutive replies before a down link is up (with -health)")
	traceSample := flag.Uint64("trace-sample", 0, "sample 1 in N transmitted frames for live tracing (0: off)")
	flightDepth := flag.Int("flight-depth", 0, "flight recorder ring depth per dispatcher (0: off)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	drainTimeout := flag.Duration("drain-timeout", 3*time.Second, "max wait for queued traffic to flush on SIGTERM/SIGINT")
	tlsCert := flag.String("control-tls-cert", "", "control console server certificate (PEM; with -control-tls-key and -control-tls-ca, enables mutual TLS and refuses plaintext clients)")
	tlsKey := flag.String("control-tls-key", "", "control console server private key (PEM)")
	tlsCA := flag.String("control-tls-ca", "", "CA certificate clients must present certs from (PEM)")
	var tenantKeys []string
	flag.Func("tenant-key", "install a tenant AEAD key at startup: <id>:<64-hex-key> (repeatable)", func(v string) error {
		tenantKeys = append(tenantKeys, v)
		return nil
	})
	flag.Parse()
	start := time.Now()

	logger, err := logging.New(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vnetpd: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	node, err := overlay.NewNodeWithConfig(*name, *bind, overlay.NodeConfig{
		FlowCacheDisabled: !*flowCache,
		TraceSample:       *traceSample,
		FlightDepth:       *flightDepth,
		Logger:            logger,
		Anomaly: overlay.AnomalyConfig{
			Disabled: *anomalyInterval <= 0,
			Interval: *anomalyInterval,
			DropRate: *anomalyDropRate,
		},
	})
	if err != nil {
		fatal("node startup failed", "err", err)
	}
	defer node.Close()
	logger.Info("vnetpd carrying traffic",
		"node", *name, "addr", node.Addr(), "dispatchers", node.Dispatchers())
	if *traceSample > 0 {
		logger.Info("live tracing on", "sample", fmt.Sprintf("1/%d", *traceSample))
	}
	if *flightDepth > 0 {
		logger.Info("flight recorder armed", "depth", *flightDepth, "dispatchers", node.Dispatchers())
	}

	if *telemetryAddr != "" {
		srv, err := telemetry.ServeWith(*telemetryAddr, node.Telemetry(), map[string]http.Handler{
			"/trace":    node.TraceHandler(),
			"/flight":   node.FlightHandler(),
			"/topflows": node.TopFlowsHandler(),
			"/diag":     node.DiagHandler(),
		})
		if err != nil {
			fatal("telemetry startup failed", "err", err)
		}
		defer srv.Close()
		logger.Info("telemetry serving",
			"metrics", "http://"+srv.Addr()+"/metrics",
			"trace", "http://"+srv.Addr()+"/trace",
			"flight", "http://"+srv.Addr()+"/flight",
			"topflows", "http://"+srv.Addr()+"/topflows",
			"diag", "http://"+srv.Addr()+"/diag")
	}

	if *health {
		cfg := overlay.DefaultHealthConfig()
		cfg.Interval = *probeInterval
		cfg.FailThreshold = *probeFail
		cfg.RecoverThreshold = *probeRecover
		if err := node.EnableHealth(cfg); err != nil {
			fatal("health monitor startup failed", "err", err)
		}
		logger.Info("link health monitor on",
			"probe", cfg.Interval, "fail", cfg.FailThreshold, "recover", cfg.RecoverThreshold)
	}

	for _, tk := range tenantKeys {
		idStr, hexKey, ok := strings.Cut(tk, ":")
		if !ok {
			fatal("-tenant-key wants <id>:<hex-key>")
		}
		id, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil || id == 0 {
			fatal("bad -tenant-key tenant id", "id", idStr)
		}
		key, err := seal.ParseKey(hexKey)
		if err != nil { // seal.ParseKey never echoes the material
			fatal("bad -tenant-key key", "tenant", id, "err", err)
		}
		if err := node.AddTenant(uint32(id), key); err != nil {
			fatal("tenant key install failed", "tenant", id, "err", err)
		}
	}

	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			fatal("config open failed", "err", err)
		}
		err = control.RunScript(node, f)
		f.Close()
		if err != nil {
			fatal("config apply failed", "config", *config, "err", err)
		}
		logger.Info("config applied",
			"config", *config, "routes", len(node.Routes()), "links", len(node.Links()))
	}

	if *echo != "" {
		spec, tenantStr, hasTenant := strings.Cut(*echo, "@")
		parts := strings.SplitN(spec, ":", 2)
		if len(parts) != 2 {
			fatal("-echo wants <ifname>:<mac>[@tenant]", "got", *echo)
		}
		mac, err := ethernet.ParseMAC(parts[1])
		if err != nil {
			fatal("bad -echo MAC", "err", err)
		}
		var tenant uint64
		if hasTenant {
			if tenant, err = strconv.ParseUint(tenantStr, 10, 32); err != nil {
				fatal("bad -echo tenant", "got", tenantStr)
			}
		}
		ep, err := node.AttachEndpointTenant(parts[0], mac, ethernet.JumboMTU, uint32(tenant))
		if err != nil {
			fatal("echo endpoint attach failed", "err", err)
		}
		go echoLoop(ep, logger)
		logger.Info("echo endpoint attached",
			"interface", parts[0], "mac", mac.String(), "tenant", tenant)
	}

	if *ctrlAddr != "" {
		var dcfg control.DaemonConfig
		if *tlsCert != "" || *tlsKey != "" || *tlsCA != "" {
			tc, err := pki.LoadServerConfig(*tlsCert, *tlsKey, *tlsCA)
			if err != nil {
				fatal("control TLS setup failed (need all of -control-tls-cert/-key/-ca)", "err", err)
			}
			dcfg.TLS = tc
		}
		d, err := control.NewDaemonWithConfig(node, *ctrlAddr, dcfg)
		if err != nil {
			fatal("control console startup failed", "err", err)
		}
		defer d.Close()
		logger.Info("control console listening", "addr", d.Addr(), "mtls", dcfg.TLS != nil)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutdown signal received", "signal", s.String(), "drain_timeout", *drainTimeout)

	// Graceful drain: stop admitting local frames, flush what every link
	// has pending under the deadline, then quiesce. A second
	// signal during the drain aborts the grace period immediately.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sig
		logger.Warn("second signal: aborting drain")
		cancel()
	}()
	stats, err := node.Drain(ctx)
	cancel()
	if err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	logger.Info("shutdown complete",
		"frames_flushed", stats.FramesFlushed,
		"frames_dropped", stats.FramesDropped,
		"partials_dropped", stats.PartialsDropped,
		"drain_elapsed", stats.Elapsed,
		"encap_sent", node.EncapSent.Load(),
		"encap_recv", node.EncapRecv.Load(),
		"delivered", node.Delivered.Load(),
		"uptime", time.Since(start).Round(time.Millisecond))
}

func echoLoop(ep *overlay.Endpoint, logger *slog.Logger) {
	for {
		f, ok := ep.Recv(time.Hour)
		if !ok {
			continue
		}
		reply := *f
		reply.Dst, reply.Src = f.Src, ep.MAC()
		if err := ep.Send(&reply); err != nil {
			logger.Warn("echo reply failed", "err", err)
		}
	}
}
