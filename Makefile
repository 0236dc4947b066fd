GO ?= go

# Seed for `make chaos`; override to explore other fault streams:
#   make chaos LMBENCH_CHAOS_SEED=99
LMBENCH_CHAOS_SEED ?= 1

.PHONY: all build vet test golden-serial race chaos chaos-net verify bench bench-pair bench-smoke serve-smoke fleet-smoke store-smoke cache-smoke sweep-smoke calibrate-smoke fuzz-smoke profile

# The Figure-1 sweep plus the memory-heavy tables (the simulator hot
# paths), the sweep-planning and unit-cache evaluation benchmarks, and
# the simmem micro-benchmarks underneath them: per-access costs with
# pass skipping off, the skipped steady-state passes, and a cold pass
# with the check pass that proves its fixed point. BENCH_BUILD
# times machines.Build's DRAM inversion for a cache geometry new to the
# process and for a memo hit, with the stream simulations per op (2
# and 0). The repository's end-to-end benchmark is perfbench/ (see
# BENCHMARK.json).
BENCH_PATTERN ?= Figure1MemoryLatency|Table2MemoryBandwidth|Table5FileReread|Table6CacheParams|Table10ContextSwitch|Figure1SweepPlanning|EvaluationUnitCache
BENCH_MICRO   ?= LoadL1Hit|LoadFullyAssocHit|ChaseDRAM|ChaseSameLine|StreamReadResident|StreamKernel|ChaseSteadyState|StreamCopySteadyState|StreamCopyWord|StreamCopyDRAM|ChaseConverge|StreamCopyConverge
BENCH_BUILD   ?= InvertDRAM
BENCH_COUNT   ?= 5
# bench-pair compares the BENCH_MICRO benchmarks of revision BASE with
# the work tree over BENCH_ROUNDS alternating runs per side.
BASE          ?= HEAD
BENCH_ROUNDS  ?= 10

all: verify

build:
	$(GO) build ./...

# vet also compiles and vets the perfbench module: it imports internal
# APIs (core.Runner, fleet.Coordinator, unitcache.Config, repro/compare)
# that `go vet ./...` at the root never builds it against.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# golden-serial pins the serial path: the suite runs its experiment
# groups and sweep points GOMAXPROCS-wide on simulated machines, so
# `make test` hashes the parallel path and this target the serial one,
# for the golden evaluation, for the §7 extension databases (the
# chase-sweep kernel under Figure 1 and the memory-variant sweep) and
# for the calibrator's pinned fits (its concurrent parameter pass).
golden-serial:
	GOMAXPROCS=1 $(GO) test -run '^(TestGoldenDatabaseByteIdentical|TestExtensionDatabasesByteIdentical)$$' -count=1 .
	GOMAXPROCS=1 $(GO) test -run '^TestCalibrateFitsPinned$$' -count=1 ./internal/calibrate/

# The scheduler, timing harness, fault injection (the machine wrapper
# and the wire injector and proxy), session layer (every daemon's
# accept and drain loop), fleet coordinator, observability layer and
# results store are the concurrency-sensitive packages; run them
# (including the journal, resume, chaos, worker-kill, metrics-scrape,
# ingest, HTTP-cache, drain and chaos-transport suites) under the race
# detector, and the executor's tests — in process and through the
# fleet — ten times over. The host backend's context binding is raced
# by its cancellation hook, by rebinding and by ends joining, so its
# tests run five times over; the rest of internal/host stays out,
# because TestHostSuiteSubset's real-bandwidth floor does not hold
# under race instrumentation.
race:
	$(GO) test -race ./internal/core/... ./internal/timing/... ./internal/faults/... ./internal/rpcx/... ./internal/obs/... ./internal/fleet/... ./internal/store/... ./internal/unitcache/... ./internal/calibrate/...
	$(GO) test -race -count=10 -run '^TestPool|^TestFleet(RefusedResume|JournalSequence|FailureMatches|IdlePeer)' ./internal/core/ ./internal/fleet/
	$(GO) test -race -count=5 -run '^TestBindContext' ./internal/host/

# chaos runs the fault-injection scheduler suite on its own, race-
# enabled and verbose, with a fixed seed for reproducible streams.
chaos:
	LMBENCH_CHAOS_SEED=$(LMBENCH_CHAOS_SEED) $(GO) test -race -v -run 'TestChaos' ./internal/faults/

# chaos-net is the distributed-layer failure drill: every publish goes
# through a deterministic lossy proxy (>=10% frame fault rate), the
# store daemon is kill -9'd mid-ingest and restarted on the same
# address, and serial + fleet publishes must still dedupe onto one run
# byte-identical to the committed golden database with a clean scrub.
chaos-net:
	GO="$(GO)" ./scripts/chaos_smoke.sh

# bench measures the hot-path benchmarks ($(BENCH_COUNT) runs each);
# the text output feeds benchstat directly. Sweep planning runs as
# exhaustive/adaptive sub-benchmarks and the unit-cache evaluation as
# cold/warm ones.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -count $(BENCH_COUNT) .
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchmem -count $(BENCH_COUNT) ./internal/simmem/
	$(GO) test -run '^$$' -bench '$(BENCH_BUILD)' -count $(BENCH_COUNT) ./internal/machines/

# bench-pair resolves what `make bench` cannot: a few-percent change
# in a simmem micro-benchmark. It builds the simmem test binary from
# `git archive $(BASE)` and from the work tree and alternates
# single runs of each BENCH_MICRO benchmark between them, then prints
# each side's median and interquartile range and the median of the
# per-round ratios, e.g. `make bench-pair BASE=HEAD~1`.
bench-pair:
	GO="$(GO)" BASE="$(BASE)" BENCH='$(BENCH_MICRO)' ROUNDS="$(BENCH_ROUNDS)" ./scripts/bench_pair.sh

# bench-smoke proves every sub-benchmark of the recorded benchmarks
# still runs (one iteration each), and the paired runner with them;
# part of verify so a refactor cannot silently break the measurement
# harness.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Figure1MemoryLatency|Figure1SweepPlanning|EvaluationUnitCache' -benchtime 1x . > /dev/null
	$(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchtime 1x ./internal/simmem/ > /dev/null
	$(GO) test -run '^$$' -bench '$(BENCH_BUILD)' -benchtime 1x ./internal/machines/ > /dev/null
	GO="$(GO)" BASE=HEAD BENCH='$(BENCH_MICRO)' ROUNDS=1 BENCHTIME=1x ./scripts/bench_pair.sh > /dev/null

# serve-smoke boots a short real run with `-serve` and proves all
# three HTTP endpoints answer while the run is live; part of verify so
# the observability wiring in cmd/lmbench cannot silently rot.
serve-smoke:
	GO="$(GO)" ./scripts/serve_smoke.sh

# fleet-smoke runs a short evaluation serially and across a 3-process
# worker fleet and proves the databases are byte-identical; part of
# verify so multi-process execution cannot silently diverge from the
# serial path.
fleet-smoke:
	GO="$(GO)" ./scripts/fleet_smoke.sh

# store-smoke boots a results-store daemon, publishes the same short
# run serially and as a fleet, and proves the service end to end: both
# publishes dedupe onto one content-addressed run, the comparison table
# revalidates to 304, and identical runs report no regressions; part of
# verify so the ingestion wire protocol and the HTTP cache discipline
# cannot silently rot.
store-smoke:
	GO="$(GO)" ./scripts/store_smoke.sh

# cache-smoke proves incremental evaluation through the CLI: a cold
# run fills the unit cache, a warm run executes zero units yet emits a
# byte-identical database, and widening the experiment set recomputes
# only the new units; part of verify so the cache can never silently
# serve stale or divergent results.
cache-smoke:
	GO="$(GO)" ./scripts/cache_smoke.sh

# sweep-smoke proves adaptive sweep planning through the CLI: real
# point savings on the memory sweeps, byte-identical results at
# GOMAXPROCS 1 and 4, and refusal of the compositions that would corrupt
# planning (chaos faults, cross-mode journal resume); part of verify
# so the planner's wiring cannot silently rot.
sweep-smoke:
	GO="$(GO)" ./scripts/sweep_smoke.sh

# calibrate-smoke proves the machine catalog and the calibrator
# through the CLI: a -profile file run is byte-identical to the
# compiled-in profile's run, and a perturbed profile fitted against a
# measured target database recovers a profile that reproduces the
# target; part of verify so the declarative-profile and calibration
# wiring cannot silently rot.
calibrate-smoke:
	GO="$(GO)" ./scripts/calibrate_smoke.sh

# fuzz-smoke runs each results-codec and store corrupt-shard fuzz
# target briefly over its seed corpus — a CI-sized slice of
# `go test -fuzz`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 2s ./internal/results/
	$(GO) test -run '^$$' -fuzz '^FuzzEntryRoundTrip$$' -fuzztime 2s ./internal/results/
	$(GO) test -run '^$$' -fuzz '^FuzzManifestShard$$' -fuzztime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzObjectShard$$' -fuzztime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzIngestStream$$' -fuzztime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzScrub$$' -fuzztime 2s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzFragment$$' -fuzztime 2s ./internal/unitcache/
	$(GO) test -run '^$$' -fuzz '^FuzzProfileDecode$$' -fuzztime 2s ./internal/machines/

# profile captures pprof CPU and heap profiles of a representative
# simulated run; inspect with `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/lmbench -machine 'Linux/i686' -quiet -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof"

# verify is the tier-1 gate: everything must build, vet clean, pass
# tests, the golden database must hash the same on the serial path,
# the concurrent scheduler, fault injection, fleet
# coordinator, observability layer, results store and unit cache must
# be race-clean, the bench harness must run, the -serve endpoints must
# answer during a live run, a worker fleet must produce
# serial-identical bytes, the results service must
# ingest/serve/revalidate end to end, a warm cached run must be
# byte-identical while executing nothing, the adaptive sweep planner
# must save points and refuse unsafe compositions, the profile
# catalog and calibrator must round-trip and converge, the codecs, scrub
# and cache fragments must survive a fuzz smoke, and the distributed
# layer must converge through wire chaos and a mid-ingest kill.
verify: build vet test golden-serial race bench-smoke serve-smoke fleet-smoke store-smoke cache-smoke sweep-smoke calibrate-smoke fuzz-smoke chaos-net
