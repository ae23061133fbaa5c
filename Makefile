GO ?= go

.PHONY: build test check check-flake lint-metrics measure fuzz

## build: compile every package.
build:
	$(GO) build ./...

## test: the tier-1 gate — what CI and the roadmap treat as "green".
test: build
	$(GO) test ./...

## check: the deeper tier — the metrics lint, vet, the full suite under the
## race detector, a 10 s smoke of every fuzz target the packages declare
## (discovered with `go test -list`, so a new Fuzz* joins the gate by
## existing), and the benchmark harness's own vet + short tests (bench/ is its
## own module, so tier-1 does not build it against the API it reads).
check: build lint-metrics
	$(GO) vet ./...
	$(GO) test -race ./...
	@for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz smoke: $$pkg $$f"; \
			$(GO) test -run "^$$f\$$" -fuzz "^$$f\$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

## check-flake: the slot path's and the control loop's packages, 20 times
## under the race detector at one and at two Ps — a test that cannot pass
## 20/20 at both is a flake to fix or delete, not to rerun. slicing and obs
## are in for their sharing contracts: slice-owned response storage,
## ring-owned event storage.
FLAKE_PKGS = ./internal/core ./internal/sched ./internal/wabi ./internal/plugins ./internal/ric ./internal/e2 ./internal/slicing ./internal/obs
check-flake:
	GOMAXPROCS=1 $(GO) test -race -count=20 -timeout 60m $(FLAKE_PKGS)
	GOMAXPROCS=2 $(GO) test -race -count=20 -timeout 60m $(FLAKE_PKGS)

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
