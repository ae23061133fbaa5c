GO ?= go

.PHONY: build test check check-flake lint measure fuzz

## build: compile every package.
build:
	$(GO) build ./...

## test: the tier-1 gate — what CI and the roadmap treat as "green".
test: build
	$(GO) test ./...

## check: the deeper tier — the source lint, vet, the full suite under the
## race detector, a 10 s smoke of every fuzz target the packages declare
## (discovered with `go test -list`, so a new Fuzz* joins the gate by
## existing), and the benchmark harness's own vet + short tests (bench/ is its
## own module, so tier-1 does not build it against the API it reads).
check: build lint
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
## 20/20 at both is a flake to fix or delete, not to rerun. slicing, guard
## and obs are in for their sharing contracts: slice-owned response storage,
## the supervisor every cell of a slice shares, ring-owned event storage.
FLAKE_PKGS = ./internal/core ./internal/sched ./internal/wabi ./internal/plugins ./internal/ric ./internal/e2 ./internal/slicing ./internal/guard ./internal/obs
check-flake:
	GOMAXPROCS=1 $(GO) test -race -count=20 -timeout 60m $(FLAKE_PKGS)
	GOMAXPROCS=2 $(GO) test -race -count=20 -timeout 60m $(FLAKE_PKGS)

## lint: internal/obs TestLint over the source (also part of `make test`).
## Telemetry must go through internal/obs — raw atomic.Uint64 counters,
## unexposed shed counters, flight series and span names outside their
## packages fail it; deliberate non-metric uses carry a "metric-exempt:"
## comment. And every exported identifier under internal/ must have a
## non-test use; at most eight carry an "api-exempt:" comment instead.
lint:
	$(GO) test -count=1 -run '^TestLint$$' ./internal/obs

## measure: the repo's measurement — four workloads, end-to-end metrics with
## regression bounds and a per-layer traced run (BENCHMARK.json, bench/README.md).
## Performance claims are judged by `bash bench/run.sh -compare old.json new.json`.
measure:
	bash bench/run.sh -all

## fuzz: open-ended fuzzing of the plugin upload path (Ctrl-C to stop).
fuzz:
	$(GO) test -run '^FuzzDecode$$' -fuzz '^FuzzDecode$$' ./internal/wasm
