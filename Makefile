# Mirrors the original artifact's interface (Appendix A.5: "to reproduce
# Figure 14a, one can run make trackfm_fig14a").

GO ?= go

.PHONY: all build check vet test test-model test-race test-soak test-stress test-overload test-crash test-thrash test-tiers test-allocs test-artifacts test-examples fuzz-short smoke_test bench bench-wall figs clean \
        trackfm_table1 trackfm_table2 trackfm_table3 trackfm_table4 \
        trackfm_fig6 trackfm_fig7 trackfm_fig8 trackfm_fig9 trackfm_fig10 \
        trackfm_fig11 trackfm_fig12 trackfm_fig13 trackfm_fig14a trackfm_fig15 \
        trackfm_fig16a trackfm_fig17a trackfm_compile trackfm_ablation \
        trackfm_autotune trackfm_mt trackfm_overload trackfm_crash trackfm_thrash trackfm_tiers

all: build test

build:
	$(GO) build ./...

# The artifact's installation check.
smoke_test:
	$(GO) vet ./...
	$(GO) test ./internal/sim ./internal/core ./internal/compiler

# Static checks: gofmt (any file it would rewrite fails the target), go vet
# plus the metrics-name lint — every metric registered by any subsystem
# must match obs.NamePattern (^trackfm_[a-z0-9_]+$), enforced by
# registering them all in one registry —
# plus the escape lint: no scalar accessor's 8-byte scratch may reach the
# heap, the pool's word entry's among them (the compiler says so even
# under -race, where test-allocs skips) —
# plus the far-engine guard: only internal/far may resolve a RemoteConfig or
# drive a transport's fetch and push — blocking, split-phase (StartFetch,
# fabric.Ticket; not ".Wait()", which sync.Cond and WaitGroup share) or
# carried (fabric.PushCarrier's two methods) — so the next cross-cutting
# far-side feature has one place to land —
# plus the workload guard: no non-test file under internal/workloads imports
# a runtime (core, fastswap, aifm), so a workload only ever takes an
# interp.Backend —
# plus the census: every exported func and type under internal/ is named by
# non-test code other than itself, and every exported field of a *Config,
# *Options or *Policy struct is set by non-test code outside its own
# defaults — or allowlisted with its reason — and no type switch outside
# an allowlist names two or more ir statement kinds (ir.Parts states a
# statement's shape once) —
# plus the doc test: every backticked pkg.Name in README.md, DESIGN.md and
# EXPERIMENTS.md resolves to a declaration in that package —
# plus go vet over benchmarks/fmbench, its own module (replace trackfm =>
# ../.., no other dependency), so an API change that breaks the wall-clock
# benchmark fails here rather than when the benchmark runs —
# plus a grep that no non-test code under internal/, farmem/, cmd/ or
# examples/ calls aifm.Pool.Localize, kept for benchmarks/fmbench alone: the
# tree moves an object's bytes with Access or Pin.
vet:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	cd benchmarks/fmbench && $(GO) vet ./...
	$(GO) test -run TestMetricNamesLint ./internal/obs
	$(GO) test -run 'TestConstructorCensus|TestFieldCensus|TestStmtSwitchCensus|TestDocNamesResolve' .
	! $(GO) build -gcflags=-m ./internal/aifm ./internal/core ./internal/fastswap ./internal/interp ./farmem 2>&1 | grep 'moved to heap: buf'
	! grep -nE 'TryFetchUntil|TryPushUntil|StartFetch|fabric\.Ticket|TryFetchAfterPushes|TryPushAll|fabric\.Push|\.Connect\(' \
		$$(ls internal/aifm/*.go internal/fastswap/*.go internal/core/*.go farmem/*.go | grep -v _test.go)
	! grep -nE '"trackfm/internal/(core|fastswap|aifm)"' $$(find internal/workloads -name '*.go' ! -name '*_test.go')
	! grep -nE '\.Localize\(' $$(find internal farmem cmd examples -name '*.go' ! -name '*_test.go')

# The gate of test-thrash that runs under -race. test-tiers' race run is
# a subset of the one in test.
RACE_PIN_SATURATION = $(GO) test -race -run 'TestDemandMissesRespectReserveUnderPinSaturation' ./internal/aifm

# Everything a PR must pass, each gate once: build, vet (incl. the lints,
# the censuses and the doc test), the tier-1 suite, the pool's and the
# swap's models, the
# concurrency stress suite and the pin-saturation gate under the race
# detector, the examples, and the refactoring oracle. The overload, crash, thrash, tiers and allocs gates
# that run without -race or -count are tests `make test` has already run,
# twice, as part of ./...; their targets stay for running one battery alone.
check: build
	$(MAKE) vet
	$(MAKE) test
	$(MAKE) test-model
	$(MAKE) test-stress
	$(RACE_PIN_SATURATION)
	$(MAKE) test-examples
	$(MAKE) test-artifacts

# Tier-1: the full suite twice in shuffled order (catches inter-test
# order dependence), plus race mode over the concurrency-bearing packages
# (the TCP fabric, both runtimes, the far engine under them, and the guard
# layer, whose meters charge one runtime from many goroutines).
# internal/interp is left out: it takes minutes under -race.
test:
	$(GO) test -shuffle=on -count=2 ./...
	$(GO) test -race ./internal/fabric/... ./internal/aifm/... ./internal/fastswap/... ./internal/far/... ./internal/mem/... ./internal/remote/... ./internal/core/...

# The pool's model (internal/aifm/model_test.go): seeded op traces on
# aifm.Pool over a FaultLink around SimLink against a flat byte array of
# what the heap must hold, with the pool's invariants checked after every
# op and at quiesce, and a forced degradation toggled now and then —
# serially with the compressed tier off, small and large on a fault-free
# link, then on a link that drops, corrupts and goes out (tier off and
# small, and tier off with delays past a per-op deadline), where a failed
# op must leave no trace; then four workers on disjoint objects at once
# under the race detector, over a small tier fault-free and faulted and
# over a large one. A failing serial trace prints its seed and its shrunk
# op list; -model.seed replays it. Then the swap's model
# (internal/fastswap/model_test.go): seeded traces of loads and stores
# across page boundaries, word accesses, EvacuateAll and stats resets on
# fastswap.Swap over the same FaultLink, fault-free, with drops,
# corruption, outages and overload sheds, and with delays past a per-op
# deadline, against a flat byte array; the frames, dirty and referenced
# bits, fault counters and wire requests per op are checked after every
# op, a failed op must have accessed exactly the pages before the one it
# faulted on, and the far copies and a read-back must equal the model at
# quiesce. A failure prints its seed, op index and op.
test-model:
	$(GO) test -count=1 -run '^TestModel$$' ./internal/aifm
	$(GO) test -race -count=1 -run '^TestConcurrentModel$$|^TestTierConcurrentPoolNoLostUpdates$$' ./internal/aifm
	$(GO) test -count=1 -run '^TestModel$$' ./internal/fastswap

# The four examples, run (go build ./... only compiles them) at sizes that
# take a few seconds together. Each holds its result to a reference — a
# closed form, the local-only run, the same store in local memory — and
# exits non-zero on a mismatch.
test-examples:
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./examples/stream -n 4096 > /dev/null
	$(GO) run ./examples/analytics -rows 500 > /dev/null
	$(GO) run ./examples/kvstore -keys 500 -gets 2000 > /dev/null

# The whole tree under the race detector.
test-race:
	$(GO) test -race ./...

# The concurrency stress suite: the N-goroutine mixed read/write/
# evacuate/prefetch workout, the model's four workers on one pool (over a
# fault-free link and a faulty one), and the
# pinned-object barrier test, all under -race with the
# short-mode reductions disabled; then the window-lifetime test — chunked
# Range/Fill over local memory in place against the workers' own demand
# evictions and a Resize squeeze, over SimLink, over a loopback server (prefetches in
# flight throughout, finished by whichever goroutine gets there) and with
# that server killed and replaced mid-run, both again with random scalar
# stores and loads in every round (pushes riding ahead of fetches, loads
# served from the write-behind window, re-sent across the restart); then
# that window's own: owners evicting and fetching a shared key set through
# each other's exchanges, the server end checking order; then Access's
# torn-read test — writers, lock-free readers and evictions over 8 slots —
# under -race and, so the unchecked copy runs at full speed, without it
# (a -race build takes the locked read, see aifm's raceEnabled); then the
# check that -race still reports a program's own race: a guarded load
# against a cursor store on the same word, in a child process that must
# print the detector's report; then concurrent interp.Runs of one program,
# which share nothing a lowering could cache in its nodes.
test-stress:
	$(GO) test -race -run 'TestConcurrent' -count=2 ./internal/aifm
	$(GO) test -race -run 'TestWindowLifetimeRace' -count=10 ./farmem
	$(GO) test -race -run 'TestWindowConcurrentOwners' -count=10 ./internal/far
	$(GO) test -race -run 'TestAccessNoTornReadsUnderEviction' -count=3 ./internal/aifm
	$(GO) test -run 'TestAccessNoTornReadsUnderEviction' -count=3 ./internal/aifm
	$(GO) test -race -run 'TestRaceDetectorSeesGuardedLoads' ./internal/core
	$(GO) test -race -run 'TestRunLeavesProgramAlone' -count=5 ./internal/interp

# The overload acceptance gates: the deterministic 4x-capacity soak
# (bounded queue sheds, p99 of admitted ops within 2x uncontended, goodput
# >= 60% of capacity, no silent late completions) and the retry-budget
# brownout amplification bound — on the one-loop model and on the far
# engine's loop that runs — plus the end-to-end TCP overload test.
test-overload:
	$(GO) test -run 'TestOverload|TestAdmission|TestRetryBudget|TestDeadline' ./internal/bench ./internal/fabric ./internal/far

# The crash-consistency gates: the fixed-seed crash-injection soak (>= 100
# kills at randomized WAL offsets, recovered state byte-identical to the
# acked-write oracle, torn tails exercised, deterministic JSON) plus the
# durability unit tests (among them the durable × compressed composition
# and the fsync-policy table), the server's graceful drain, the hello
# that advertises a recovered node's generation, and the server killed
# under an exchange that carries pushes (all re-sent, none lost).
test-crash:
	$(GO) test -run 'TestCrashSoak|TestDurable|TestWAL|TestReplayWAL|TestServerShutdown|TestHelloAdvertisesIdentity|TestCarryServerKilledMidExchange' ./internal/bench ./internal/remote ./internal/fabric

# The memory-pressure gates: the thrash soak (governed 2x overcommit >=
# 3x ungoverned throughput, zero lost localizations across a mid-run
# budget squeeze, deterministic JSON) and the pool's Resize/detector/
# admission/reserve-floor tests (the pin-saturation one under -race).
test-thrash:
	$(GO) test -run 'TestThrashSoak|TestThrashTable|TestResize|TestPrefetchSkipsAboveHighWater|TestThrashDetector|TestDemandMisses|TestGuardFastPath|TestHeapResize' ./internal/bench ./internal/aifm ./farmem
	$(RACE_PIN_SATURATION)

# The multi-tier caching gates: the overcommit crossover sweep (warm 1x
# tier >= 2x tierless throughput at 2x overcommit, zero corrupt reads),
# the pool model's serial configs
# (tier off, small and large: every heap and far copy equals the model's
# bytes, whatever the tier holds), the governor's tier-shrinks-first squeeze, and the compressed
# tier's and the remote store's unit suites — the store's contract table,
# run over the plain and the compressed-at-rest constructor, plus what is
# specific to the latter; the pool's held-copy tests (a clean re-demotion
# re-admits the copy its promotion kept, a written object is encoded
# again); then the tier, the far engine and the pool under -race, the
# concurrent no-lost-updates test among them.
test-tiers:
	$(GO) test -run 'TestTiers|^TestModel$$|TestGovernorShrinksTierFirst|TestCleanRedemotionReusesEncoding|TestDirtiedPromotionReencodes' ./internal/bench ./internal/aifm ./internal/autotune
	$(GO) test -run 'TestStore|TestCompressedStore' ./internal/remote
	$(GO) test ./internal/mem/ctier
	$(GO) test -race ./internal/mem/ctier ./internal/far ./internal/aifm

# The allocation-regression gates: testing.AllocsPerRun must report zero
# heap allocations per op on the guard fast path and on steady-state
# demand fetch (clean and dirty) over SimLink, on the layer programs call
# (core's scalar guards and cursor, unmetered and charged to a Meter, on
# TrackFM's runtime and on the library runtime the AIFM comparator runs on; farmem's Range allocates its Cursor
# and nothing else, whatever the length — resident, or far over loopback
# with every object riding the prefetch stream), plus the bufpool unit
# tests (leak/double-release detection, class routing, exact-class reuse) and
# the end-to-end wire-lease leak check and the zero-alloc TCP round trip
# (fetch and push over loopback, alone and as one exchange of pushes and a
# fetch, client and server together; a pipelined fetch alone and at depth
# 8); then the two gates on what the emulator itself costs: a 64-object
# core.NewRuntime allocates a bounded number of bytes (nothing sized by
# what the OST warm-line model could hold), and an interpreted loop —
# Assign/Var/Bin on local memory, or a chunked Triad on a TrackFM runtime —
# allocates nothing per trip. Run without
# -race: the race detector's instrumentation allocates, so the gates skip
# themselves under it (the -race coverage of the same code lives in `test`).
test-allocs:
	$(GO) test -run 'TestGuardFastPathAllocFree|TestSteadyStateFetch|TestSteadyStateTierHit' ./internal/aifm
	$(GO) test -run 'TestScalarGuardAllocFree|TestCursorLoadAllocFree|TestRangeAllocs|TestRangeLoopbackAllocs' ./internal/core ./farmem
	$(GO) test ./internal/mem/...
	$(GO) test -run 'TestWireLeasesNetZero|TestTCPRoundTripAllocFree|TestStreamAllocFree' ./internal/fabric
	$(GO) test -run 'TestNewRuntimeFootprint|TestLoopBodyAllocFree' ./internal/core ./internal/interp

# The fault soak: 10k ops over one TCP server with seeded drops and
# detected corruption on its link, the server closed for 1000 ops and
# listening again on the same store, under the race detector.
test-soak:
	$(GO) test -race -run TestFaultSoak -v ./internal/fabric

# Short fixed-budget runs of the fuzzers, the fabric's one frame decoder
# first and the compiler/interpreter differential last (go test accepts
# one -fuzz pattern per invocation, hence one run each). FuzzModel's first
# byte picks the model's config, fault-free or faulty, and the rest draw
# the trace. Both FuzzFrame and FuzzModel cap the minimizing of each new
# input at 200 runs: one of FuzzModel's inputs is a whole pool trace, and
# FuzzFrame finds new inputs often; at the default 60 s of minimizing,
# about half of FuzzFrame's run went by at 0 execs/s.
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzFrame -fuzztime=30s -fuzzminimizetime=200x ./internal/fabric
	$(GO) test -race -run=^$$ -fuzz=FuzzConcurrentPins -fuzztime=30s ./internal/aifm
	$(GO) test -run=^$$ -fuzz=FuzzModel -fuzztime=30s -fuzzminimizetime=200x ./internal/aifm
	$(GO) test -run=^$$ -fuzz=FuzzWALRecord -fuzztime=30s ./internal/remote
	$(GO) test -run=^$$ -fuzz=FuzzCodec -fuzztime=30s ./internal/mem/ctier
	$(GO) test -run=^$$ -fuzz=FuzzTierOps -fuzztime=30s ./internal/mem/ctier
	$(GO) test -run=^$$ -fuzz=FuzzDifferential -fuzztime=30s ./internal/ir/irgen

# The refactoring oracle (ROADMAP aim 2): regenerate the checked-in
# deterministic artifacts and fail on any difference. The four
# BENCH_*.json must come back byte-identical; figs_output.txt — every
# experiment it holds, by its heading, which leaves out the
# scheduler-dependent `mt` — identical outside the compile table's
# compile-time column, the one place it prints wall time.
MASK_COMPILE_TIME = sed -E '/^compile:/,/^note:/ s/ +[0-9.]+(ns|µs|ms|s) *$$//'
test-artifacts:
	mkdir -p .bench_build
	d=$$(mktemp -d .bench_build/artifacts.XXXXXX) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o $$d/trackfm-bench ./cmd/trackfm-bench && \
	for e in overload crash thrash tiers; do \
		$$d/trackfm-bench -exp $$e -json > $$d/BENCH_$$e.json && \
		cmp BENCH_$$e.json $$d/BENCH_$$e.json || exit 1; \
	done && \
	for e in $$(sed -nE '/^note:/! s/^([a-z0-9]+): .*/\1/p' figs_output.txt); do \
		$$d/trackfm-bench -exp $$e || exit 1; \
	done > $$d/figs_output.txt && \
	$(MASK_COMPILE_TIME) figs_output.txt > $$d/want.txt && \
	$(MASK_COMPILE_TIME) $$d/figs_output.txt > $$d/got.txt && \
	diff $$d/want.txt $$d/got.txt

bench:
	$(GO) test -bench=. -benchmem

# The wall-clock benchmark against itself: every fmbench workload twice
# (BENCHMARK.json's 8 s each), then -compare, which exits 1 when any
# workload x end-to-end metric differs by more than its bound. Two runs of
# one tree should pass; to judge a change, run `--workload all` in a
# checkout of each commit and -compare the two documents (see
# benchmarks/README.md). Everything lands under .bench_build/.
bench-wall:
	mkdir -p .bench_build
	d=$$(mktemp -d .bench_build/wall.XXXXXX) && \
	bash benchmarks/run.sh --workload all --seconds 8 > $$d/a.json && \
	bash benchmarks/run.sh --workload all --seconds 8 > $$d/b.json && \
	bash benchmarks/run.sh -compare $$d/a.json $$d/b.json

figs:
	$(GO) run ./cmd/trackfm-bench -exp all

trackfm_table1:   ; $(GO) run ./cmd/trackfm-bench -exp table1
trackfm_table2:   ; $(GO) run ./cmd/trackfm-bench -exp table2
trackfm_table3:   ; $(GO) run ./cmd/trackfm-bench -exp table3
trackfm_table4:   ; $(GO) run ./cmd/trackfm-bench -exp table4
trackfm_fig6:     ; $(GO) run ./cmd/trackfm-bench -exp fig6
trackfm_fig7:     ; $(GO) run ./cmd/trackfm-bench -exp fig7
trackfm_fig8:     ; $(GO) run ./cmd/trackfm-bench -exp fig8
trackfm_fig9:     ; $(GO) run ./cmd/trackfm-bench -exp fig9
trackfm_fig10:    ; $(GO) run ./cmd/trackfm-bench -exp fig10
trackfm_fig11:    ; $(GO) run ./cmd/trackfm-bench -exp fig11
trackfm_fig12:    ; $(GO) run ./cmd/trackfm-bench -exp fig12
trackfm_fig13:    ; $(GO) run ./cmd/trackfm-bench -exp fig13
trackfm_fig14a:   ; $(GO) run ./cmd/trackfm-bench -exp fig14
trackfm_fig15:    ; $(GO) run ./cmd/trackfm-bench -exp fig15
trackfm_fig16a:   ; $(GO) run ./cmd/trackfm-bench -exp fig16
trackfm_fig17a:   ; $(GO) run ./cmd/trackfm-bench -exp fig17
trackfm_compile:  ; $(GO) run ./cmd/trackfm-bench -exp compile
trackfm_ablation: ; $(GO) run ./cmd/trackfm-bench -exp ablation
trackfm_autotune: ; $(GO) run ./cmd/trackfm-bench -exp autotune
trackfm_mt:       ; $(GO) run ./cmd/trackfm-bench -exp mt
trackfm_overload: ; $(GO) run ./cmd/trackfm-bench -exp overload -json > BENCH_overload.json
trackfm_crash:    ; $(GO) run ./cmd/trackfm-bench -exp crash -json > BENCH_crash.json
trackfm_thrash:   ; $(GO) run ./cmd/trackfm-bench -exp thrash -json > BENCH_thrash.json
trackfm_tiers:    ; $(GO) run ./cmd/trackfm-bench -exp tiers -json > BENCH_tiers.json

clean:
	$(GO) clean ./...
