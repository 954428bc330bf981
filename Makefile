GO ?= go

.PHONY: all build vet test race check lint-backend lint-workload perfbench-check serve-smoke shard-smoke bench bench-gate bench-contention cache-stress bench-sim bench-sched bench-kernel bench-serve fuzz-sched fuzz-kernel fuzz-windows fuzz-invariants fuzz-wsformat fmt clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The pre-commit gate: compile everything, vet, lint the back-end seam, run
# the full suite under the race detector (the parallel engine is on by
# default, so every test doubles as a race test), build and test the repo
# benchmark, and hold the committed benchmark baselines.
check: build vet lint-backend lint-workload race perfbench-check bench-gate

# The repo benchmark (perfbench/) is a module of its own, so the root
# `go test ./...` never compiles it — yet it builds against engine APIs
# (sched.Keyer.ScheduleGroup, sched.HashFilters, nn.Lowered.FilterRowInto,
# sched.Schedule.Stats). Vet and test it here so an API change that breaks
# the benchmark fails the gate, not the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The benchmark regression gate: re-measure the kernel, scheduler, engine,
# and serving suites and compare against the committed BENCH_*.json baselines.
# allocs/op gates on every host; ns/op only against a baseline recorded at
# the same GOMAXPROCS with neither side contended. Exits 1 on any >10%
# regression (tune with THRESHOLD=0.05 etc.).
THRESHOLD ?= 0.10
bench-gate:
	$(GO) run ./cmd/tclbench -compare -threshold $(THRESHOLD)

# Contention profile: run the fig8a sweep at parallelism 1, 2, 4 and 8 with
# mutex profiling at full fraction and print the top contended stacks —
# where the striped schedule cache, plane cache, and worker pool actually
# make workers wait. Diagnostic, not a gate.
bench-contention:
	$(GO) run ./cmd/tclbench -contention

# Hammer the shared caches: the striped schedule cache and plane cache
# stress tests under the race detector, three times over, with the
# eviction-accounting invariants checked across stripes.
cache-stress:
	$(GO) test -race -count=3 ./internal/sched -run 'TestCache|TestKeyer'
	$(GO) test -race -count=3 ./internal/sim -run 'TestPlaneCache'

# Guard the back-end seam: all serial-cost semantics live behind the
# internal/backend registry. Any switch arm on a back-end kind outside that
# package (and its test-only legacy references) reintroduces the enum
# dispatch this architecture removed, and breaks plugin back-ends like
# dstripes-sm.
lint-backend:
	@bad=$$(grep -rn -E 'case arch\.(TCLe|TCLp|BitParallel)|switch .*\.BackEnd\b' \
		--include='*.go' --exclude-dir=backend \
		internal cmd examples *.go 2>/dev/null); \
	if [ -n "$$bad" ]; then \
		echo "back-end dispatch outside internal/backend (use backend.Backend methods):"; \
		echo "$$bad"; exit 1; \
	fi

# Guard the workload seam: model resolution lives behind the internal/nn
# registry (nn.Register / nn.Lookup). A switch or if-chain arm on a model
# name outside that package reintroduces the hard-coded zoo dispatch the
# registry removed, and breaks externally registered workloads like
# internal/workloads/attention.
lint-workload:
	@bad=$$(grep -rn -E '(case|==) "(AlexNet|GoogLeNet|ResNet50|MobileNet|Bi-LSTM|BERT-Attn|GPT2-Attn|ViT-Attn|ConvNeXt-DW)' \
		--include='*.go' --exclude-dir=nn \
		internal cmd examples *.go 2>/dev/null); \
	if [ -n "$$bad" ]; then \
		echo "model-name dispatch outside internal/nn (use nn.Register/nn.Lookup):"; \
		echo "$$bad"; exit 1; \
	fi

# End-to-end smoke of the evaluation service: builds the real tclserve
# binary, starts it on an ephemeral port, hits /healthz, /v1/simulate and
# /metrics over TCP, then SIGTERMs it and requires a clean drain.
serve-smoke:
	TCL_SERVE_SMOKE=1 $(GO) test ./cmd/tclserve -run TestServeSmoke -v -timeout 5m

# Distributed-mode load smoke: real tclserve binaries — a coordinator over
# two shard workers — must return results byte-identical to a standalone
# single-process server, survive a short tclload drive with zero errors and
# a nonzero coalesce hit rate, and then keep serving with zero errors and
# bit-identical results after one worker is SIGKILLed mid-drive (failover).
shard-smoke:
	TCL_SHARD_SMOKE=1 $(GO) test ./cmd/tclserve -run TestShardSmoke -v -timeout 10m

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$'

# Baseline regeneration. A contended run (requested parallelism beyond
# GOMAXPROCS) refuses to overwrite an existing baseline; pass FORCE=1 to
# override with the contamination recorded honestly in the file.
FORCE ?=

# Regenerate BENCH_sim.json: fig8/fig11 ns/op at Parallelism 1 and 8.
bench-sim:
	TCL_BENCH_SIM=1 TCL_BENCH_FORCE=$(FORCE) $(GO) test -run TestEmitBenchSim -v -timeout 60m

# Regenerate BENCH_sched.json: scheduler kernel vs reference ns/op and
# allocs/op across the Table-2 pattern x algorithm sweep.
bench-sched:
	TCL_BENCH_SCHED=1 TCL_BENCH_FORCE=$(FORCE) $(GO) test ./internal/sched -run TestEmitBenchSched -v -timeout 30m

# Regenerate BENCH_kernel.json: SWAR vs scalar column-max ns/op and
# allocs/op per lane count.
bench-kernel:
	TCL_BENCH_KERNEL=1 TCL_BENCH_FORCE=$(FORCE) $(GO) test ./internal/sim -run TestEmitBenchKernel -v -timeout 10m

# Regenerate BENCH_serve.json: request latency percentiles, throughput and
# coalesce hit rate for the tclserve HTTP tier under three load shapes,
# plus deterministic shard-balance rows (max/mean predicted shard cost for
# the LPT partitioner vs round-robin on every zoo model).
bench-serve:
	TCL_BENCH_SERVE=1 TCL_BENCH_FORCE=$(FORCE) $(GO) test -run TestEmitBenchServe -v -timeout 30m

# Differential fuzz of the optimized scheduling kernel against the reference
# implementation (FUZZTIME defaults to 30s; raise for soak runs).
FUZZTIME ?= 30s
fuzz-sched:
	$(GO) test ./internal/sched -fuzz FuzzKernelMatchesReference -fuzztime $(FUZZTIME) -run '^$$'

# Differential fuzz of the SWAR column-max kernel against the scalar
# reference.
fuzz-kernel:
	$(GO) test ./internal/sim -fuzz FuzzColumnMaxSWAR -fuzztime $(FUZZTIME) -run '^$$'

# Differential fuzz of the serial back-end's window kernel (eight windows
# per word) against the reference per-window walk.
fuzz-windows:
	$(GO) test ./internal/sim -fuzz FuzzWindowKernel -fuzztime $(FUZZTIME) -run '^$$'

# Invariant fuzz of every scheduler path, the X<inf,15> bound included:
# arbitrary weights must schedule to a schedule Verify accepts.
fuzz-invariants:
	$(GO) test ./internal/sched -fuzz FuzzScheduleInvariants -fuzztime $(FUZZTIME) -run '^$$'

# Robustness fuzz of the weight-scratchpad image decoder, which builds
# compact schedule entries from untrusted bytes.
fuzz-wsformat:
	$(GO) test ./internal/wsformat -fuzz FuzzDecodeRobust -fuzztime $(FUZZTIME) -run '^$$'

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
