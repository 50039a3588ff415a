# Shared entry points for CI and humans. CI (.github/workflows/ci.yml) calls
# exactly these targets, so a green `make ci` locally means a green pipeline.

GO ?= go

.PHONY: all build vet fmt-check staticcheck fma-check test test-short bench-module race fuzz-smoke cover-check serve-smoke resume-smoke metrics-smoke bench-smoke bench-json bench-compare docs-registry docs-metrics docs-check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l lists unformatted files; fail if any.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond go vet. CI installs the pinned staticcheck before
# calling this; locally the target degrades to a notice when the binary is
# absent (the build container deliberately has no network to install it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1 to enable)"; \
	fi

test:
	$(GO) test ./...

# The end-to-end benchmark harness under bench/ is its own module (so the
# root's ./... never builds it), yet it imports the engine, spec, sim and
# facade packages: vet and test it here so an API change that would break
# `bash bench/run.sh` fails CI instead of the next benchmark run.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The -short lane skips the binary smokes (dgsim kill-and-resume, dgsimd),
# the 100k-node stress sim and the slowest statistical and lower-bound
# checks, and trims the adaptive-adversary grids. It still runs every
# experiment in quick mode through the engine fan-out path.
test-short:
	$(GO) test -short ./...

# Race job scoped to the concurrent core: the trial engine and its unit
# ledger, the simulator it drives, the job service that multiplexes HTTP
# clients onto the engine, the spec layer (Sweep.Run builds cells in parallel
# and drives the ledger's hooks), the checkpoint writer (Append runs from
# concurrent OnShard calls), the observability layer (metrics registry
# scraped while instruments record; progress tracker fed from worker
# goroutines), the adversary/exhaustive pair — the adaptive adversary is
# shared across concurrent trials and forks per run via sim.RunForker, which
# is exactly the kind of sharing the race detector should watch — the
# graph layer, whose overlay epochs build their cores once under concurrent
# first readers, and the experiments with repeated broadcast, whose job
# tables run their rows as concurrent engine.Map jobs that share networks,
# algorithms and repeat protocols.
# -short skips the single-threaded 100k-node stress sim, which the race
# instrumentation would slow ~10x without exercising any concurrency, and
# shrinks the service's slow-job fixtures.
race:
	$(GO) test -race -short ./internal/engine/... ./internal/sim/... ./internal/service/... ./internal/spec/... ./internal/checkpoint/... ./internal/metrics/... ./internal/progress/... ./internal/adversary/... ./internal/exhaustive/... ./internal/graph/... ./internal/expt/... ./internal/repeat/...

# Short-budget pass over every native fuzz target: the wire formats that
# cross trust boundaries (spec scenario/sweep JSON, the stats stream codec,
# checkpoint torn-tail recovery), the run path a valid scenario document
# reaches (Build plus one Run), the direct-CSR geometric constructor
# against its Builder-based oracle, and churn and fade overlay epochs against
# a full rebuild. A few seconds each is enough to replay the
# checked-in corpus and shake the shallow branches in CI; run `go test
# -fuzz=<target> -fuzztime=10m <pkg>` for a real hunt.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzScenarioUnmarshal -fuzztime $(FUZZTIME) ./internal/spec/
	$(GO) test -run NONE -fuzz FuzzSweepUnmarshal -fuzztime $(FUZZTIME) ./internal/spec/
	$(GO) test -run NONE -fuzz FuzzScenarioBuildRun -fuzztime $(FUZZTIME) ./internal/spec/
	$(GO) test -run NONE -fuzz FuzzStreamUnmarshal -fuzztime $(FUZZTIME) ./internal/stats/
	$(GO) test -run NONE -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run NONE -fuzz FuzzRecover -fuzztime $(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run NONE -fuzz FuzzDualFromPositions -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run NONE -fuzz FuzzEpochOverlay -fuzztime $(FUZZTIME) ./internal/graph/

# Floating-point determinism across CPUs. The Go spec lets a compiler fuse
# x*y + z into one multiply-add; the amd64 backend never does, but arm64,
# ppc64le and s390x do, and a fused result can differ from amd64's in the
# last bit. Cross-compile every package of the module with -S (no emulator
# needed; bench/ is its own module and feeds no result) and fail on any
# fused instruction outside FMA_ALLOW, which names only sites whose result
# a tolerance absorbs: geoScratch.dual's squared distance (topologies.go:428)
# is compared with a 1e-9 band and settled exactly by math.Hypot inside it.
# A fused site is mended with explicit float64(...) conversions, which round
# each product.
FMA_ARCHES = arm64 ppc64le s390x
FMA_PKGS = ./...
FMA_ALLOW = dualgraph/internal/graph/topologies.go:428
fma-check:
	@for arch in $(FMA_ARCHES); do \
		asm="$$(GOARCH=$$arch $(GO) build -trimpath -gcflags=-S $(FMA_PKGS) 2>&1)" || { echo "$$asm"; exit 1; }; \
		printf '%s\n' "$$asm" | grep -q ' STEXT ' || { echo "fma-check: no assembly listing for $$arch"; exit 1; }; \
		fused="$$(printf '%s\n' "$$asm" | awk -v allow='$(FMA_ALLOW)' \
			'$$4 ~ /^FN?M(ADD|SUB)[DS]?$$/ { site = substr($$3, 2, length($$3) - 2); \
			 n = split(allow, ok, " "); for (i = 1; i <= n; i++) if (site == ok[i]) next; print "  " site " " $$4 }')"; \
		if [ -n "$$fused" ]; then echo "fma-check: fused multiply-add on $$arch:"; echo "$$fused"; exit 1; fi; \
		echo "fma-check: $$arch ok"; \
	done

# Coverage floor gate: measure per-package statement coverage on the tier-1
# test suite and fail if any package drops below its checked-in floor
# (coverage_floors.txt). New packages without a floor are reported but do
# not fail; give them a line once their tests settle.
cover-check:
	$(GO) test -short -cover . ./internal/... | $(GO) run ./cmd/covercheck -floors coverage_floors.txt

# End-to-end smoke of the dgsimd daemon binary: build it, start it on a free
# port, submit a sweep and stream its results over HTTP, cancel a running
# job, then SIGTERM and assert a graceful drain with exit code 0.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v ./cmd/dgsimd/

# Crash-recovery smoke over the real binaries: SIGKILL a checkpointing dgsim
# mid-grid and byte-diff the resumed output against an uninterrupted run at
# workers 1/2/8 (TestKillAndResumeByteIdentical), then drive a coordinator
# job with two real `dgsimd -worker` processes plus one orphaned claim and
# byte-diff the streamed results against the local engine (TestWorkerSmoke).
resume-smoke:
	$(GO) test -run 'TestKillAndResumeByteIdentical|TestResumeRejectsEditedSpec' -count=1 -v ./cmd/dgsim/
	$(GO) test -run TestWorkerSmoke -count=1 -v ./cmd/dgsimd/

# Observability smoke over the real dgsimd binary (started with -pprof): run
# a sweep to completion while scraping GET /metrics, validate the Prometheus
# exposition format by hand, assert the key engine/service series carry the
# job's own arithmetic, and check the healthz JSON body and pprof mount.
metrics-smoke:
	$(GO) test -run TestMetricsSmoke -count=1 -v ./cmd/dgsimd/

# A fast benchmark pass: the engine speedup pair and the allocation-free
# round loop, a few iterations each.
bench-smoke:
	$(GO) test -run NONE -bench 'BenchmarkEngine|BenchmarkSimRoundLoop' -benchtime 3x .

# The perf-trajectory artifact: hot-path, reducer, grid, graph-layer,
# dynamics, checkpoint, and observability benchmarks parsed into
# BENCH_pr10.json (benchmark name -> ns/op, B/op, allocs/op, custom metrics).
# The 'BenchmarkEngine' pattern covers both the materializing path
# (EngineSequential/Parallel: engine.Map over Trial.Execute) and the
# streaming grid reducer over one cell (EngineReduceSequential/Parallel);
# 'BenchmarkSimRoundLoop' also matches SimRoundLoopDynamic and
# SimRoundLoopFade, the churn and fade variants of the same round-loop
# workload whose deltas price dynamics, SimRoundLoopSparse, the
# long-trials sparse cell (geometric n=1024, harmonic) in sparse delivery
# mode, and SimRoundLoopStrongSelect, Strong Select on the short-trials
# geometric network (n=256), where the loop visits only planned senders and
# reached nodes (benchcmp's default prefix -match gates all five);
# 'BenchmarkGridSweep' captures cross-cell parallel throughput of the
# declarative grid runner vs sequential cells; 'BenchmarkEpochSwap' also
# matches the EpochSwapIncremental/pDown=* churn-scaling series and the
# EpochSwapSchedules/{churn,fade,waypoint} per-policy epoch costs on the
# churn-epochs benchmark network, in a pass of its own: a churn or fade
# epoch is a few µs of overlay, so it runs 2000 iterations (3 would measure
# timer noise);
# 'BenchmarkCheckpoint' is the fsync-per-record write + recover round trip
# behind -checkpoint/-resume; 'BenchmarkMetrics' is the
# instrumented-vs-uninstrumented round-loop pair that prices the PR 9
# observability layer; 'BenchmarkAdaptiveAdversaryRound' is the per-round
# planning cost of the adaptive best-response adversary, transposition-table
# cold and warm, in passes of their own: its miss/hit rounds cost a few µs,
# so they run 5000 iterations (3 would measure timer noise), while the
# ~100 ms waypoint round keeps 3; each name runs in exactly one pass.
# 'BenchmarkRunSetup' is per-run setup alone (a 1-round n=256 run), the
# layer the per-process random streams live in. CI uploads the file so the
# trend is comparable across PRs.
bench-json:
	$(GO) test -run NONE -bench 'BenchmarkEngine|BenchmarkSimRoundLoop|BenchmarkRunSetup|BenchmarkGridSweep|BenchmarkDynamicSweep|BenchmarkCheckpoint|BenchmarkMetrics' -benchmem -benchtime 3x . > bench_raw.txt
	$(GO) test -run NONE -bench 'BenchmarkEpochSwap' -benchmem -benchtime 2000x . >> bench_raw.txt
	$(GO) test -run NONE -bench 'BenchmarkAdaptiveAdversaryRound/waypoint' -benchmem -benchtime 3x . >> bench_raw.txt
	$(GO) test -run NONE -bench 'BenchmarkAdaptiveAdversaryRound/(miss|hit)' -benchmem -benchtime 5000x . >> bench_raw.txt
	$(GO) test -run NONE -bench 'BenchmarkGraphConstruction|BenchmarkUnreliableMembership|BenchmarkGeometricBuild100k|BenchmarkPreferentialAttachmentBuild100k' -benchmem -benchtime 3x ./internal/graph/ >> bench_raw.txt
	$(GO) run ./cmd/benchjson < bench_raw.txt > BENCH_pr10.json
	@rm -f bench_raw.txt
	@echo "wrote BENCH_pr10.json"

# Regression gate over the trajectory artifact: compare the fresh
# BENCH_pr10.json against a baseline report (CI fetches the previous run's
# artifact into $(BENCH_BASELINE); locally point it at any saved report) and
# fail on a >10% ns/op regression in the gated round-loop, run-setup,
# epoch-swap, and adaptive-planning benchmarks, or a >10% B/op regression in
# run setup. Benchmarks absent from the baseline are informational "new",
# never failures. Skipped with a notice when no
# baseline exists (first run, artifact expired) — absence of a baseline must
# not mask absence of the gate, so the skip prints loudly.
BENCH_BASELINE ?= BENCH_baseline.json
bench-compare: bench-json
	@if [ -f "$(BENCH_BASELINE)" ]; then \
		$(GO) run ./cmd/benchcmp -old "$(BENCH_BASELINE)" -new BENCH_pr10.json && \
		$(GO) run ./cmd/benchcmp -old "$(BENCH_BASELINE)" -new BENCH_pr10.json -match '^BenchmarkRunSetup$$' -metric B/op; \
	else \
		echo "bench-compare: no baseline at $(BENCH_BASELINE); skipping regression gate"; \
	fi

# Regenerate the registry reference (docs/REGISTRY.md) from the code's own
# registry tables. Commit the result; docs-check fails CI on drift.
# (Generate into a temp file first: `> docs/REGISTRY.md` would truncate the
# tracked file before the generator even compiles.)
docs-registry:
	@mkdir -p docs
	$(GO) run ./cmd/regdocs > docs/.REGISTRY.md.tmp && mv docs/.REGISTRY.md.tmp docs/REGISTRY.md || { rm -f docs/.REGISTRY.md.tmp; exit 1; }
	@echo "wrote docs/REGISTRY.md"

# Regenerate the metric catalog (docs/METRICS.md) from the process-wide
# metrics registry (cmd/metricdocs underscore-imports every instrumented
# package so its registrations run). Commit the result; docs-check fails CI
# on drift.
docs-metrics:
	@mkdir -p docs
	$(GO) run ./cmd/metricdocs > docs/.METRICS.md.tmp && mv docs/.METRICS.md.tmp docs/METRICS.md || { rm -f docs/.METRICS.md.tmp; exit 1; }
	@echo "wrote docs/METRICS.md"

# Drift gate: the committed docs/REGISTRY.md and docs/METRICS.md must match
# what the code generates right now. The tracked-file check comes first
# because `git diff` exits 0 for untracked (or deleted-and-committed) paths,
# which would make the gate vacuous.
docs-check: docs-registry docs-metrics
	@for f in docs/REGISTRY.md docs/METRICS.md; do \
		git ls-files --error-unmatch $$f >/dev/null 2>&1 || \
			{ echo "$$f is not tracked; commit the generated file"; exit 1; }; \
		git diff --exit-code $$f || \
			{ echo "$$f drifted from the generator; commit the regenerated file"; exit 1; }; \
	done

ci: build vet fmt-check staticcheck fma-check docs-check test bench-module race fuzz-smoke cover-check serve-smoke resume-smoke metrics-smoke
