# Tier-1 verify is `go build ./... && go test ./...` (ROADMAP.md); `make ci`
# runs that plus vet, a formatting gate, the race pass over the concurrent
# packages, and the vet and tests of the perfbench module.

GO ?= go
FUZZTIME ?= 30s
# Staticcheck is pinned so a new upstream release cannot turn CI red on its
# own schedule; bump deliberately, with the diff in review.
STATICCHECK_VERSION ?= 2025.1.1
# Allowed fractional ns/op, allocs/op and bytes/op regression in bench-check;
# deterministic metrics (rounds/messages/colors) are always compared
# exactly and the sequential engines' allocs/round is always pinned at 0.
BENCH_TOLERANCE ?= 0.15

# Samples per benchmark for bench-algos; use 10+ for benchstat-grade runs.
BENCH_COUNT ?= 1

# Seed for the deterministic chaos suite (`make chaos`). Every fault the
# schedule fires is a pure function of this value, so a failing run is
# replayed exactly by re-running with the seed from its report.
CHAOS_SEED ?= 1

.PHONY: build test vet lint lint-codec fmt-check staticcheck race perfbench-check loc bench bench-algos bench-baseline bench-check bench-codec tables fuzz profile chaos ci

# Where `make profile` writes cpu.pprof/heap.pprof; CI uploads it as an
# artifact on pull requests.
PROFILE_DIR ?= profiles
PROFILE_DURATION ?= 30s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The distcolorvet suite: the repository's own go/analysis passes —
# detcheck (determinism), noallochot (zero-alloc hot paths), ctxfirst
# (context hygiene), recovercheck (declared recovery points), and the
# flow-sensitive passes on the in-tree CFG + dataflow engine: lockguard
# (mutex discipline), leakcheck (goroutine lifetime), lockorder
# (acquisition-order cycles), decodebounds (wire-sized allocations),
# atomicguard (atomic-vs-plain access) — plus stdlib reimplementations
# of nilness and shadow, run through `go vet -vettool` so a violation is
# a build break. Zero unsuppressed findings is the gate; suppressions
# (//distcolor:ignore) are counted in the output, and `distcolorvet
# -json` emits NDJSON for tooling. See DESIGN.md §10 for the contracts
# and the annotation grammar.
lint:
	$(GO) build -o bin/distcolorvet ./cmd/distcolorvet
	$(GO) vet -vettool=$(abspath bin/distcolorvet) ./...
	@$(MAKE) --no-print-directory lint-codec

# distcolor.Codec is the single encode/decode surface for wire types: any
# raw encoding/json call on a Request/Response/GraphSpec/Coloring/JobRecord
# outside the root codec files (or tests) bypasses the codec dispatch and
# the binary wire. Grep-grade by design — cheap, zero deps, and the codec
# files it exempts are exactly where such calls belong.
lint-codec:
	@bad=$$(grep -rn --include='*.go' \
		-e 'json\.\(Marshal\|MarshalIndent\|Unmarshal\|NewEncoder\|NewDecoder\)' \
		cmd internal | \
		grep -v '_test\.go' | \
		grep -e 'distcolor\.\(Request\|Response\|GraphSpec\|Coloring\|JobRecord\)\b' || true); \
	if [ -n "$$bad" ]; then \
		echo "wire types must go through distcolor.Codec (codec.go), not raw encoding/json:"; \
		echo "$$bad"; exit 1; \
	fi

# CI fails on unformatted files; gofmt -l prints them for the log.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Static analysis beyond vet. The binary is not vendored and the build must
# not fetch dependencies, so locally the gate runs when staticcheck is on
# PATH and skips loudly otherwise. In CI (the CI env var is set) it runs
# the pinned version via `go run pkg@version`, so the checked toolchain
# changes only when STATICCHECK_VERSION is bumped.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$$CI" ]; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI pins honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# The race pass targets the packages with real concurrency: the service —
# cache + worker pool hammer, the WAL store and admission paths
# (submit/cancel/restart hammer, sharded batch executor, overload floods)
# — the simulator's sharded engine, the word and port programs the parallel
# engine steps shard by shard over their shared slabs and per-shard scratch
# (linial, reduce, arbor), the graph package, whose class splits hand
# every class a slice of shared arenas, the class stage
# (connector.Classes) and the recursions that run on it (star, cd,
# baseline), and the service-overload bench workload in svcbench.
race:
	$(GO) test -race ./internal/service/ ./internal/sim/ ./internal/linial/ ./internal/reduce/ ./internal/arbor/ ./internal/graph/ ./internal/svcbench/ ./internal/star/ ./internal/cd/ ./internal/connector/ ./internal/baseline/

# perfbench/ is its own module (go.mod with `replace repro => ../`), so
# ./... never compiles it: vet and test it here, so that a change to the
# root API the benchmark calls fails this target instead of the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# Non-test Go lines outside perfbench/ and testdata/ directories. A PR
# reports its net line count as this number at the head minus the parent.
loc:
	@find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git -o -name testdata \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# One pass over every benchmark in the repository (root tables suite,
# internal/sim data-plane benchmarks, ...). -benchtime 1x keeps it a smoke
# run; see README for benchstat-grade measurement instructions.
bench:
	$(GO) test -bench . -benchtime 1x -run XXX ./...

# End-to-end algorithm benchmarks (Linial, CD, the §4 pipeline at 32 and
# 100k): the benchstat-friendly twins of the algo/* suite workloads.
# `make bench-algos BENCH_COUNT=10 > new.txt` produces samples for
# `benchstat old.txt new.txt`; CI uploads the base-vs-head comparison as a
# build artifact on every pull request.
bench-algos:
	$(GO) test ./internal/bench -run XXX -bench '^BenchmarkAlgo' -benchmem -count $(BENCH_COUNT)

# Regenerate the committed simulator-core perf baseline (BENCH_simcore.json).
bench-baseline:
	$(GO) run ./cmd/colorbench -json -out BENCH_simcore.json

# Re-run the simulator-core suite and fail on regression vs the committed
# baseline: >BENCH_TOLERANCE on ns/op, allocs/op or bytes/op, any drift of the
# deterministic rounds/messages/colors columns, or any steady-state
# per-round allocation in the sequential engines.
bench-check:
	$(GO) run ./cmd/colorbench -json -check BENCH_simcore.json -tolerance $(BENCH_TOLERANCE)

tables:
	$(GO) run ./cmd/colorbench -table all -quick

# 30s CPU + heap profile of the linial-10k workload (the hot algorithm
# substrate of the simcore suite), taken by `go test` on its benchmark,
# BenchmarkAlgoLinial10k, and written to $(PROFILE_DIR)/{cpu,heap}.pprof
# beside the test binary the profiles need. Inspect with
# `go tool pprof -http=:0 $(PROFILE_DIR)/cpu.pprof`; CI attaches the
# directory to every pull request.
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test ./internal/bench -run '^$$' -bench '^BenchmarkAlgoLinial10k$$' -benchtime $(PROFILE_DURATION) \
		-o $(PROFILE_DIR)/bench.test -outputdir $(abspath $(PROFILE_DIR)) -cpuprofile cpu.pprof -memprofile heap.pprof

# Fuzz the surfaces that read arbitrary user bytes: the edge-list parser,
# the binary wire-frame decoder, canonical labeling, which colord runs on
# every submitted graph the cache admits, and line-graph construction,
# which the edge algorithms run on every submitted graph — submitted
# graphs are user bytes too (the targets check the labeling against the
# reference implementation and the line graph against the Builder path).
# FuzzOrientationConnectors checks both Section 5 orientation connectors,
# which Theorems 5.3 and 5.4 build on every submitted graph, against the
# Builder-and-permutation construction they replaced. FuzzRun runs every registered algorithm on small fuzzed graphs with
# in-schema parameters, sequentially and in parallel: the two must agree,
# and nothing may panic or fail Run's verification. FuzzLinialStep checks
# one Linial step's Barrett field arithmetic against the reference with
# hardware division, on schedules derived from fuzzed palettes and degrees.
# FuzzEdgeColoring checks verify.EdgeColoring, which colord runs on every
# coloring it serves, against its map-per-vertex reference, error text
# included, on fuzzed graphs and colorings with palettes up to 2⁶³−1.
# Go allows one -fuzz per invocation, so the targets run back to back;
# corpus findings land in each package's testdata/fuzz. Minimizing is
# capped at 10 runs per new input (the default is 60 s), so each target
# spends its FUZZTIME searching; a failing input still fails the run,
# only less shrunk.
fuzz:
	$(GO) test ./internal/graph/ -run '^$$' -fuzz FuzzReadEdgeList -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test . -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/graph/ -run '^$$' -fuzz FuzzCanonicalLabeling -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/graph/ -run '^$$' -fuzz FuzzLineGraph -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/connector/ -run '^$$' -fuzz FuzzOrientationConnectors -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test . -run '^$$' -fuzz FuzzRun -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/linial/ -run '^$$' -fuzz FuzzLinialStep -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/verify/ -run '^$$' -fuzz FuzzEdgeColoring -fuzztime $(FUZZTIME) -fuzzminimizetime 10x

# The deterministic chaos suite (DESIGN.md §12): one seeded schedule drives
# a 200-job workload through every injection point — scheduled panics,
# injected execution errors, deadline overruns, admission faults, a dying
# then healing journal disk, a torn journal tail across a restart, and a
# flaky client transport — and asserts the failure-domain invariants (no
# job lost or duplicated, no ID reuse, typed terminals, process survival,
# degraded entered AND exited). A failure report embeds the full schedule,
# so `make chaos CHAOS_SEED=<seed from the report>` replays it bit-for-bit.
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test ./internal/service -run '^TestChaos$$' -v -count=1

# The JSON-vs-binary codec benchmark (encode/decode of the 100k pipeline
# request). `make bench-codec BENCH_COUNT=10 > codec.txt` gives benchstat
# samples; CI uploads the json-vs-binary comparison on pull requests.
bench-codec:
	$(GO) test . -run '^$$' -bench '^BenchmarkWireCodec' -benchmem -count $(BENCH_COUNT)

ci: build vet lint fmt-check staticcheck test race perfbench-check
