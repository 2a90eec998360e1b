# Standard entry points; `make verify` is the gate a change must pass.

GO ?= go

.PHONY: build test vet vet-bench vet-cross livedeps race drift metrics-index wire-goldens secretcheck verify chaos bench bench-unit e2e-quick fuzz-smoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# benchmark/ is a module of its own that compiles against overlay.NodeConfig
# and the node's public surface: vet it so a change there fails here, not
# only in the non-gating e2e-quick job.
vet-bench:
	cd benchmark && $(GO) vet ./...

# The sendmmsg/recvmmsg files are linux/{amd64,arm64} only and every other
# target builds their fallbacks: compile each side a linux/amd64 host does
# not (no network, no cgo needed).
vet-cross:
	GOOS=darwin $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/overlay
	GOOS=linux GOARCH=386 $(GO) build ./internal/overlay

# The live binaries link no simulator: the daemon and its control client
# must not depend on the simulated engine, VMM, hardware models or virtio
# rings (those live behind internal/vnetpsim and the experiments).
livedeps:
	@bad=$$($(GO) list -deps ./cmd/vnetpd ./cmd/vnetctl | grep -E '^vnetp/internal/(sim|vmm|phys|virtio)$$'); \
	if [ -n "$$bad" ]; then echo "livedeps: the live binaries link simulator packages:" $$bad; exit 1; fi

race:
	$(GO) test -race ./...

# Documentation drift gate: DESIGN.md's generated metrics index must be
# what a node's registry renders today, and every trace stage name must
# match between the code and DESIGN.md.
drift:
	$(GO) run ./scripts/driftcheck

# Regenerate DESIGN.md's metrics index (the block between the
# metrics-index markers) from a live node's registry: run it after
# adding, renaming or re-describing a metric family.
metrics-index:
	$(GO) run ./scripts/driftcheck -write

# Regenerate the wire goldens (internal/bridge/testdata/wire: the bytes of
# every datagram class the transmit path encodes) from this tree: run it
# only after changing the wire format on purpose, and commit the files.
wire-goldens:
	$(GO) test ./internal/bridge -run TestWireGoldens -update

# Secrets-hygiene gate: tenant AEAD keys and TLS private keys must never
# reach logs or hex encodings (fingerprints are the approved form).
secretcheck:
	$(GO) run ./scripts/secretcheck

# Full verification: compile, static checks (the benchmark module's
# too), the live binaries' dependency gate, plain suite, race suite, doc
# drift, secrets hygiene.
verify: build vet vet-bench vet-cross livedeps test race drift secretcheck

# Crash-injection and drain-stress suite: panics and stalls injected
# into live datapath components, graceful-drain and close-under-traffic
# leak checks, and the control-plane hardening tests. Always under
# -race, with a hard timeout so a deadlocked teardown fails instead of
# hanging CI.
chaos:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'Chaos|Drain|CloseUnderTraffic|Churn|Supervis|Panic|Backoff|Watchdog|Stop|Inject|Daemon|Client|Idempotent' \
		./internal/overlay ./internal/supervise ./internal/control
	$(GO) test -race -count=5 -timeout 300s \
		-run 'Train|OffloadRefusal|TransmitAccounting|DropSiteDispatcherRing|HeldFramesSurviveBufferReuse|ReusePortWorkers|KeyingFlipUnderTraffic|SourceScanOccupiesOneEntry|SealedSendersKeepNonceOrder|SealedSendDrawsNoNonce|Combiner|BatchedEqualsSync|LeavesAsOneMessage|TracedFrameSplitsBatch|LoneFrameKeepsItsLength|TrainSegmentFaults|RingTeardownKeepsLedger|DropSiteTxTeardown|RingSenderPanicInFlush|RingSenderSupersededInFlush|SendFrameReuse' ./internal/overlay

# Every testing.B once: a compile-and-run check, not a measurement. The
# simulated figures are gated by TestFiguresGolden inside `make test`
# (internal/experiments; rerun with -update to move one on purpose), the
# live node is measured by benchmark/.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# The benchmark module's own unit tests (it is a module of its own, so
# `make test` never sees them), its TestQuickRun included: both nodes
# driven with every output check on. A gating CI step.
bench-unit:
	cd benchmark && $(GO) test ./...

# End-to-end benchmark smoke: bench-unit and one short round of every
# workload, untraced and traced, with every output check on. A smoke test,
# not a measurement — see benchmark/README.md. Not part of `make verify`.
e2e-quick: bench-unit
	bash benchmark/run.sh -all -quick -out benchmark/out/quick.json

# Short coverage-guided runs of each fuzz target (the CI smoke).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzEncapDecode -fuzztime=10s ./internal/bridge
	$(GO) test -run=^$$ -fuzz=FuzzReassembler -fuzztime=10s ./internal/bridge
	$(GO) test -run=^$$ -fuzz=FuzzAggregate -fuzztime=10s ./internal/bridge
	$(GO) test -run=^$$ -fuzz=FuzzSealOpen -fuzztime=10s ./internal/seal
	$(GO) test -run=^$$ -fuzz=FuzzFlowKey -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzFlowStats -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzFlowCache -fuzztime=10s ./internal/overlay
	$(GO) test -run=^$$ -fuzz=FuzzProbePayload -fuzztime=10s ./internal/overlay
	$(GO) test -run=^$$ -fuzz=FuzzNextSegment -fuzztime=10s ./internal/overlay
	$(GO) test -run=^$$ -fuzz=FuzzTCPStream -fuzztime=10s ./internal/overlay
	$(GO) test -run=^$$ -fuzz=FuzzControlParse -fuzztime=10s ./internal/control

clean:
	$(GO) clean ./...
