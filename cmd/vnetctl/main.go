// Command vnetctl speaks the VNET/U-compatible control language to a
// running vnetpd's control console.
//
// Usage:
//
//	vnetctl -server 127.0.0.1:7778 ADD LINK to-b REMOTE 10.0.0.2:7777
//	vnetctl -server 127.0.0.1:7778 LIST ROUTES
//	vnetctl -server 127.0.0.1:7778 -script overlay.conf
//
// Live tracing (see DESIGN.md "Packet tracing and flight recorder"):
//
//	vnetctl -server 127.0.0.1:7778 TRACE START SAMPLE 1024
//	vnetctl -server 127.0.0.1:7778 TRACE START FLOW 02:56:00:00:00:01
//	vnetctl -server 127.0.0.1:7778 TRACE DUMP
//	vnetctl -server 127.0.0.1:7778 TRACE STOP
//
// Secure overlays (see DESIGN.md "Sealed links and tenancy"):
//
//	vnetctl keygen -dir certs -ca vnetp -hosts node-a,node-b,operator
//	vnetctl newkey
//	vnetctl -server 127.0.0.1:7778 \
//	        -tls-cert certs/operator.pem -tls-key certs/operator-key.pem \
//	        -tls-ca certs/ca.pem -tls-server-name node-a \
//	        ADD TENANT 7 KEY <hex>
//
// keygen mints (or reuses) a CA and per-host mTLS certificates; newkey
// prints a fresh tenant AEAD key. The -tls-* flags dial the console over
// mutual TLS — required once the daemon runs with -control-tls-*.
//
// Diagnostics (see DESIGN.md "Introspection and drop ledger"):
//
//	vnetctl diag -addr 127.0.0.1:9090
//
// diag fetches the one-shot snapshot bundle from the daemon's telemetry
// listener (GET /diag) and streams the JSON document to stdout — one
// capture for a bug report instead of five separate scrapes.
//
// Every request is bounded by -timeout; transport failures on
// idempotent commands (LIST/LINK/TRACE/ADD LINK/ADD TENANT) are retried
// with jittered backoff, so a momentarily busy console does not fail a
// monitoring script.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"vnetp/internal/control"
	"vnetp/internal/seal"
	"vnetp/internal/seal/pki"
)

// runKeygen is the `vnetctl keygen` subcommand: mint (or reuse) a CA in
// -dir and issue one mTLS certificate per -hosts entry.
func runKeygen(args []string) {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	dir := fs.String("dir", "certs", "output directory for PEM files (created if missing)")
	caCN := fs.String("ca", "vnetp", "CA common name (reused if ca.pem already exists in -dir)")
	hosts := fs.String("hosts", "", "comma-separated host names to issue certificates for")
	fs.Parse(args)
	if *hosts == "" {
		log.Fatal("vnetctl keygen: -hosts is required")
	}
	written, err := pki.Keygen(*dir, *caCN, strings.Split(*hosts, ","))
	if err != nil {
		log.Fatalf("vnetctl keygen: %v", err)
	}
	for _, f := range written {
		fmt.Println(f)
	}
}

// runDiag is the `vnetctl diag` subcommand: fetch the diagnostic
// snapshot bundle from a daemon's telemetry listener and stream the
// JSON to stdout, ready to attach to a bug report.
func runDiag(args []string) {
	fs := flag.NewFlagSet("diag", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "daemon telemetry address (the -telemetry-addr vnetpd was started with)")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	fs.Parse(args)
	cl := &http.Client{Timeout: *timeout}
	resp, err := cl.Get("http://" + *addr + "/diag")
	if err != nil {
		log.Fatalf("vnetctl diag: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("vnetctl diag: %s returned %s", *addr, resp.Status)
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		log.Fatalf("vnetctl diag: %v", err)
	}
}

// runNewkey prints one fresh tenant AEAD key in ADD TENANT hex form —
// to stdout only, never logged.
func runNewkey() {
	key, err := seal.NewKey()
	if err != nil {
		log.Fatalf("vnetctl newkey: %v", err)
	}
	fmt.Println(hex.EncodeToString(key))
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "keygen":
			runKeygen(os.Args[2:])
			return
		case "newkey":
			runNewkey()
			return
		case "diag":
			runDiag(os.Args[2:])
			return
		}
	}
	server := flag.String("server", "127.0.0.1:7778", "control console address")
	script := flag.String("script", "", "send every line of this file")
	timeout := flag.Duration("timeout", 5*time.Second, "per-command request timeout (connect is bounded separately)")
	tlsCert := flag.String("tls-cert", "", "client certificate for mutual TLS (PEM; with -tls-key and -tls-ca)")
	tlsKey := flag.String("tls-key", "", "client private key (PEM)")
	tlsCA := flag.String("tls-ca", "", "CA certificate the daemon's cert must chain to (PEM)")
	tlsServerName := flag.String("tls-server-name", "", "expected server certificate name (default: host part of -server)")
	flag.Parse()

	cfg := control.ClientConfig{RequestTimeout: *timeout}
	if *tlsCert != "" || *tlsKey != "" || *tlsCA != "" {
		name := *tlsServerName
		if name == "" {
			name = *server
			if host, _, ok := strings.Cut(name, ":"); ok {
				name = host
			}
		}
		tc, err := pki.LoadClientConfig(*tlsCert, *tlsKey, *tlsCA, name)
		if err != nil {
			log.Fatalf("vnetctl: TLS setup failed (need all of -tls-cert/-key/-ca): %v", err)
		}
		cfg.TLS = tc
	}
	client := control.NewClient(*server, cfg)

	// send runs one command and prints the response in the wire format
	// the console itself uses (payload lines, then OK or ERR <msg>), so
	// existing output-scraping scripts keep working.
	send := func(line string) bool {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			return true
		}
		payload, err := client.Do(line)
		for _, l := range payload {
			fmt.Println(l)
		}
		if err != nil {
			if se, ok := err.(*control.ServerError); ok {
				fmt.Println("ERR " + se.Msg)
			} else {
				log.Fatalf("vnetctl: %v", err)
			}
			return false
		}
		fmt.Println("OK")
		return true
	}

	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			log.Fatalf("vnetctl: %v", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if !send(sc.Text()) {
				os.Exit(1)
			}
		}
		return
	}
	if flag.NArg() == 0 {
		log.Fatal("vnetctl: no command given (and no -script)")
	}
	if !send(strings.Join(flag.Args(), " ")) {
		os.Exit(1)
	}
}
