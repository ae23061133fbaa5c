GO ?= go

.PHONY: build test check check-e2 check-obs check-guard check-trace check-abi check-scale check-overload check-flight check-flake lint-metrics measure fuzz

## build: compile every package.
build:
	$(GO) build ./...

## test: the tier-1 gate — what CI and the roadmap treat as "green".
test: build
	$(GO) test ./...

## check: the deeper tier — vet, the full suite under the race detector,
## the association-resilience suite, 10 s fuzz smokes of the wasm
## decode/compile/execute gauntlet and of the interpreter-vs-closure
## bit-identity contract (results, trap classes, fuel), and the benchmark
## harness's own vet + short tests (bench/ is its own module, so tier-1 does
## not build it against the API it reads).
check: build check-e2 check-obs check-guard check-trace check-abi check-scale check-overload check-flight lint-metrics
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run '^FuzzDecode$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/wasm
	$(GO) test -run '^FuzzTierDifferential$$' -fuzz '^FuzzTierDifferential$$' -fuzztime 10s ./internal/plugins
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

## check-e2: race-enabled association-resilience suite (E2 transport,
## fault-injecting conn, RIC/agent sessions, faulty-link e2e recovery).
check-e2:
	$(GO) test -race -count=1 ./internal/e2 ./internal/ric

## check-obs: observability-layer gate — vet plus race-enabled tests over
## the registry, its instrument sources, and the HTTP exposition e2e
## (cmd/gnb scrapes its own /metrics and /debug/slots).
check-obs:
	$(GO) vet ./internal/obs ./internal/metrics
	$(GO) test -race -count=1 ./internal/obs ./internal/metrics ./internal/core ./internal/wabi ./cmd/gnb

## check-guard: plugin-lifecycle-supervisor gate — race-enabled tests over
## the breaker/supervisor, the wabi failure taxonomy and chaos harness, and
## the hardened scheduler ABI decode, plus a 10 s fuzz smoke of the
## failure-classification invariant (every plugin failure maps to exactly
## one stable class).
check-guard:
	$(GO) test -race -count=1 ./internal/guard ./internal/wabi ./internal/sched
	$(GO) test -run '^FuzzClassify$$' -fuzz '^FuzzClassify$$' -fuzztime 10s ./internal/wabi

## check-trace: control-loop tracing gate — race-enabled tests over the
## span tracer, the trace-aware HTTP surface, and the wasm fuel profiler,
## plus a 10 s fuzz smoke of the E2 trace-trailer compatibility contract
## (untraced frames stay byte-identical; traced frames round-trip).
check-trace:
	$(GO) test -race -count=1 ./internal/obs/trace ./internal/obs ./internal/wasm ./internal/e2
	$(GO) test -run '^FuzzMessageHeaderRoundTrip$$' -fuzz '^FuzzMessageHeaderRoundTrip$$' -fuzztime 10s ./internal/e2

## check-abi: zero-copy plugin ABI gate — race-enabled differential suites
## (region negotiation/lifecycle in wabi, request writer + response reader in
## sched, codec-vs-zerocopy bit-identity over real guests in plugins), plus
## a 10 s fuzz smoke of the request/response byte-equivalence contract
## between the zero-copy regions and the serializing binary codec.
check-abi:
	$(GO) test -race -count=1 -run 'ZeroCopy|ZC|Region|Differential|ABI' ./internal/wabi ./internal/sched ./internal/plugins
	$(GO) test -run '^FuzzABIDifferential$$' -fuzz '^FuzzABIDifferential$$' -fuzztime 10s ./internal/sched

## check-scale: city-scale gate — race-enabled sharded-association and
## windowed-batching suites (batch framing + capability negotiation in e2,
## batched-vs-unbatched bit-identity at the xApp boundary + shard fan-in in
## ric, the UE fleet aggregate in ran — whose TestFleet* are why the regex
## keeps Fleet — and the gNB's fleet attachment in core),
## plus a 10 s fuzz smoke of the batch frame round-trip across codecs.
check-scale:
	$(GO) test -race -count=1 -run 'Batch|Shard|Fleet|Capability' ./internal/e2 ./internal/ric ./internal/ran ./internal/core
	$(GO) test -run '^FuzzIndicationBatchRoundTrip$$' -fuzz '^FuzzIndicationBatchRoundTrip$$' -fuzztime 10s ./internal/e2

## check-overload: overload-control gate — race-enabled admission / busy-frame
## / brownout / shed-ledger / shard-spill / reconnect-jitter suites across the
## E2 frame layer and the RIC (the small-scale chaos experiment included),
## plus a 10 s fuzz smoke of the TypeBusy round-trip across all three codecs.
check-overload:
	$(GO) test -race -count=1 -run 'Overload|Busy|Brownout|Shed|Spill|Jitter|Renegotiation|SlowXApp|Admit' ./internal/e2 ./internal/ric
	$(GO) test -run '^FuzzBusyRoundTrip$$' -fuzz '^FuzzBusyRoundTrip$$' -fuzztime 10s ./internal/e2

## check-flight: flight-recorder gate — race-enabled journal / detector /
## bundle suites plus every plane's journaling wiring (slot watchdog in
## core, supervisor lifecycle in guard, association lifecycle in e2, the
## overload sites and the flightrec causal-chain experiment in ric), plus a
## 10 s fuzz smoke of the journal's binary event codec round-trip.
check-flight:
	$(GO) test -race -count=1 ./internal/obs/flight
	$(GO) test -race -count=1 -run 'Flight|Journal|Detector|Bundle|Summarize|TransitionHook|SnapshotSince|SnapshotHeader' ./internal/core ./internal/guard ./internal/e2 ./internal/ric ./internal/obs ./internal/obs/trace
	$(GO) test -run '^FuzzEventCodec$$' -fuzz '^FuzzEventCodec$$' -fuzztime 10s ./internal/obs/flight

## check-flake: the slot path's packages, 20 times under the race detector at
## one and at two Ps — a test that cannot pass 20/20 at both is a flake to fix
## or delete, not to rerun.
check-flake:
	GOMAXPROCS=1 $(GO) test -race -count=20 -timeout 30m ./internal/core ./internal/sched ./internal/wabi ./internal/plugins
	GOMAXPROCS=2 $(GO) test -race -count=20 -timeout 30m ./internal/core ./internal/sched ./internal/wabi ./internal/plugins

## lint-metrics: telemetry must go through internal/obs — fail on raw
## atomic.Uint64 counter fields outside internal/obs and internal/metrics.
## Deliberate non-metric uses carry a "metric-exempt:" comment.
lint-metrics:
	@bad=$$(grep -rn --include='*.go' 'atomic\.Uint64' internal cmd examples \
		| grep -v '^internal/obs/' | grep -v '^internal/metrics/' | grep -v 'metric-exempt' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-metrics: raw atomic.Uint64 counters outside internal/obs|internal/metrics"; \
		echo "(register an obs.Counter instead, or annotate the line with 'metric-exempt: <why>'):"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	bad=$$(grep -rn --include='*.go' 'Shed[A-Za-z]*  *uint64\|BrownoutTransitions  *uint64' internal cmd examples 2>/dev/null \
		| grep -v 'metric-exempt' | cut -d: -f1 | sort -u \
		| while read -r f; do \
			grep -qr --include='*.go' '_shed_[a-z_]*_total' "$$(dirname $$f)" || echo "$$f"; \
		done); \
	if [ -n "$$bad" ]; then \
		echo "lint-metrics: shed/brownout counters must be exposed through internal/obs"; \
		echo "(packages declaring Shed*/BrownoutTransitions fields must register matching _shed_*_total samples):"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	bad=$$(grep -rn --include='*.go' 'waran_flight_' internal cmd examples \
		| grep -v '^internal/obs/flight/' | grep -v '_test\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-metrics: waran_flight_* series must originate in internal/obs/flight"; \
		echo "(journal through a flight.Recorder and let its Register expose the counts):"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	bad=$$(grep -rn --include='*.go' 'Span[A-Za-z]* = "' internal cmd examples \
		| grep -v '^internal/obs/trace/spans\.go:' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-metrics: span name constants must live in internal/obs/trace/spans.go"; \
		echo "(add the hop there and to its SpanNames table so HopStats and the lint see it):"; \
		echo "$$bad"; \
		exit 1; \
	fi; \
	echo "lint-metrics: ok"

## measure: the repo's measurement — four workloads, end-to-end metrics with
## regression bounds and a per-layer traced run (BENCHMARK.json, bench/README.md).
## Performance claims are judged by `bash bench/run.sh -compare old.json new.json`.
measure:
	bash bench/run.sh -all

## fuzz: open-ended fuzzing of the plugin upload path (Ctrl-C to stop).
fuzz:
	$(GO) test -run '^FuzzDecode$$' -fuzz '^FuzzDecode$$' ./internal/wasm
