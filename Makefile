GO ?= go

# The substrate micro-benchmarks: the sim kernel + MPI messaging building
# blocks every experiment bottoms out in. `make bench` tracks them in
# BENCH_sim.json, the perf trajectory future PRs regress against.
SUBSTRATE_BENCH = BenchmarkSim|BenchmarkHCA3Sync|BenchmarkLinearFit|BenchmarkSnapshot|BenchmarkDispatch|BenchmarkKernelMemoryPerRank

# Pinned third-party linter versions. CI installs exactly these; locally
# they run only when already on PATH (this repo must build offline).
STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.3

.PHONY: all build vet test race fuzz check clean bench bench-smoke lint

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The engine, simulator, MPI, and fault-tolerant sync layers are the
# concurrency-bearing packages; cluster and stats feed them shared state
# (disturbed hardware clocks, robust summaries), and checkpoint + detrand
# snapshot that shared state while workers run. The experiments run
# concurrent sweeps over shared configuration values, the fabric
# supervises worker processes from several goroutines, synclint loads
# packages in parallel, and runexp drives all of them, so every one goes
# under the race detector.
RACE_PKGS = ./internal/sim ./internal/scale ./internal/mpi ./internal/harness ./internal/clocksync ./internal/faults ./internal/cluster ./internal/stats ./internal/checkpoint ./internal/detrand ./internal/experiments ./internal/fabric ./cmd/synclint ./cmd/runexp

race:
	$(GO) test -race $(RACE_PKGS)

# Short smoke run of the native fuzz targets (seed corpora always run as
# part of `make test`; this explores beyond them).
fuzz:
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzLinkSpecSample -fuzztime 10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzHWClockDisturbed -fuzztime 10s
	$(GO) test ./internal/clocksync -run '^$$' -fuzz 'FuzzFitOffsetSamples$$' -fuzztime 10s
	$(GO) test ./internal/clocksync -run '^$$' -fuzz FuzzFitOffsetSamplesRobust -fuzztime 10s
	$(GO) test ./internal/analysis -run '^$$' -fuzz FuzzParseDirective -fuzztime 10s
	$(GO) test ./internal/analysis -run '^$$' -fuzz FuzzFieldCoverage -fuzztime 10s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/fabric -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s

# The repository's own multichecker (determinism, seed flow, allocfree
# hot path, MPI error discards, //synclint: grammar), then the pinned
# third-party linters when available. CI installs staticcheck and
# govulncheck at the pinned versions; offline checkouts skip them with a
# note rather than failing.
lint:
	$(GO) run ./cmd/synclint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH (CI pins $(STATICCHECK_VERSION)); skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not on PATH (CI pins $(GOVULNCHECK_VERSION)); skipping"; \
	fi

check: build vet lint test race

# Full substrate bench sweep with allocation stats; writes BENCH_sim.json.
# Compare two runs with scripts/benchdiff.sh.
bench:
	$(GO) test -run '^$$' -bench '$(SUBSTRATE_BENCH)' -benchmem -benchtime 1s . \
		| tee /dev/stderr | $(GO) run ./cmd/bench2json -o BENCH_sim.json

# One-iteration smoke variant for CI: exercises every substrate bench and
# still emits the BENCH_sim.json artifact, in seconds not minutes.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(SUBSTRATE_BENCH)' -benchmem -benchtime 1x . \
		| tee /dev/stderr | $(GO) run ./cmd/bench2json -o BENCH_sim.json

clean:
	rm -rf .expcache
	$(GO) clean ./...
