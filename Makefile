# Build / verify entry points. `make verify` is the tier-1 gate plus the
# race-checked suite and a short benchmark pass.

GO ?= go

# Benchmark scale overrides, read by the harnesses via the environment:
#   BENCH_COUNT=60000   pin the exact event count for every bench-* target
#   BENCH_SCALE=0.25    multiply each harness's built-in default instead
# BENCH_COUNT wins when both are set; unset means the built-in defaults.
# e.g.  make bench-live BENCH_COUNT=100000
#       make bench-recovery BENCH_SCALE=2
BENCH_COUNT ?=
BENCH_SCALE ?=
export BENCH_COUNT BENCH_SCALE

.PHONY: all build vet test deadcode race race-shard faults batch-guard obs-guard fuzz-smoke bench bench-diff bench-live bench-recovery bench-harness verify

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Reachability check: every function and method must be reachable from a
# program (cmd/*, benchmark/) or be named, with its reason, in
# internal/tools/deadcode/allow.txt. Stdlib only; prints what it flags.
deadcode:
	$(GO) run ./internal/tools/deadcode

# The sharded ingest subsystem under forced parallelism: the shard workers,
# commit sequencer, and sharded-vs-serial equivalence properties race-checked
# at GOMAXPROCS=4 even on boxes whose default would serialize the schedule
# (a 1-core default hides exactly the interleavings sharding introduces).
# The one-shot reads answered from a resident pipeline ride along: quiesce
# then read while another goroutine commits through 4 shards, and a read
# beside a parked Block-policy delivery. So do shared plans: stream and table
# cursors of several spellings on one session, attaching late, on 4 shards.
race-shard:
	GOMAXPROCS=4 $(GO) test -race ./internal/shard/... ./internal/live/...
	GOMAXPROCS=4 $(GO) test -race ./internal/core -run 'TestResidentRead'
	GOMAXPROCS=4 $(GO) test -race ./internal/core -run 'TestSharedPlan'

# Fault-injection and crash-safety suite: the vfs fault matrix, the WAL and
# checkpoint I/O-failure tests, the ALICE-style crash-point soak (crash after
# every file-system operation, recover, compare against the reference states),
# the torn-write soak, degraded read-only mode end to end (engine + HTTP), and
# the panic-isolation regressions. Runs at reduced scale by default;
# FAULT_SOAK_FULL=1 widens the soak workload.
#   make faults
#   FAULT_SOAK_FULL=1 make faults
faults:
	$(GO) test ./internal/vfs/ -v
	$(GO) test ./internal/wal/ ./internal/checkpoint/ -run 'Torn|Fsync|ENOSPC|Recover|Trims|SyncAlwaysRetry|Atomic' -v
	$(GO) test ./internal/core/ -run 'TestCrashPointSoak|TestTornWriteSoak|TestDegraded' -v -timeout 10m
	$(GO) test ./internal/exec/ ./internal/live/ -run 'Panic' -v
	$(GO) test ./cmd/serve/ -run 'TestServeDegradedMode|TestServeRequestTimeout' -v

# Batched-execution guardrails: the re-chunking invariance property (for
# every operator family, any PushBatch chunking of a log must reproduce the
# output recorded in internal/exec/testdata/rechunk_*.golden while operators
# still had a per-event entry point), the 0 allocs/op pin on the keyed
# steady-state PushBatch, the dispatch-stats accounting test, and a
# single-iteration BenchmarkBatchPush smoke with -benchmem (the Q1 chain, the
# keyed aggregate and a Q4-shaped join -> aggregate) so an alloc regression
# on the batch path is visible in the verify output.
# The ptime rule reads from a resident pipeline rest on rides along too:
# fed in merge order, output ptimes never decrease and follow the input that
# caused them; and a replay's horizon cut keeps every event tied at it.
# Watermark completion rides along: the completionIndex cost pin (an advance
# takes exactly the groups it closes off the heap), the three operators against their
# walk-every-group references, and BenchmarkWatermarkAdvance, whose
# closed=1k and closed=100k rows must read alike (history independence).
# Output retention rides along too: a standing collector holds nothing after
# each Drain (120k events), only a one-shot Run folds
# the table rendering (and still rejects a retraction of an absent row), and
# a snapshot from before the collector stopped checkpointing its relation
# still restores and continues identically.
batch-guard:
	$(GO) test ./internal/exec -run 'TestPushBatchRechunkEquivalence|TestOutputPtimesFollowInput|TestMergedRunsCutTiesAtHorizon|TestKeyedHotPathAllocFree|TestBatchDispatchStats' -v
	$(GO) test ./internal/exec -run '^$$' -bench BenchmarkBatchPush -benchtime 1x -benchmem
	$(GO) test ./internal/exec -run 'TestCompletionIndex|TestWatermarkCompletionMatchesWalk' -v
	$(GO) test ./internal/exec -run '^$$' -bench BenchmarkWatermarkAdvance -benchtime 500x -benchmem
	$(GO) test ./internal/exec -run 'TestStandingCollectorRetainsNothing|TestRunRejectsRetractionOfAbsentRow|TestCollectorRoundTrip|TestCheckpointPreCollectorGolden' -v

# Observability guardrails: the Prometheus exposition-format and
# concurrency tests for internal/obs, the 0 allocs/op pins on Counter.Add /
# Histogram.Observe, the /metrics + slow-commit serving integration tests,
# the no-hot-Stats audit, and the instrumented batch-push alloc pin (a
# single-iteration BenchmarkBatchPush with -benchmem, so an instrumentation
# regression on the hot path is visible in the verify output).
obs-guard:
	$(GO) test ./internal/obs -v
	$(GO) test ./internal/obs -race -run 'TestConcurrentObserveCollect'
	$(GO) test ./internal/obs -run '^$$' -bench 'BenchmarkCounterAdd|BenchmarkHistogramObserve' -benchtime 100x -benchmem
	$(GO) test ./cmd/serve -run 'TestMetrics|TestServeSlowCommitLog|TestPprofGated' -v
	$(GO) test ./internal/live -run 'TestNoHotPathDriverStats' -v
	$(GO) test ./internal/exec -run 'TestKeyedHotPathAllocFree' -v
	$(GO) test ./internal/exec -run '^$$' -bench BenchmarkBatchPush -benchtime 1x -benchmem

# Fuzz smoke: ten seconds each of the engine-snapshot decoder (FuzzRestoreAll)
# and of reads served from a resident pipeline against replay
# (FuzzResidentRead), two workers each. Minimizing a new input takes 60 s by
# default, which reads as a stall; -fuzzminimizetime caps it at 3 s. A
# failing input is written under internal/core/testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRestoreAll$$' -fuzztime 10s -fuzzminimizetime 3s -parallel 2
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzResidentRead$$' -fuzztime 10s -fuzzminimizetime 3s -parallel 2

# Short-mode standing-query benchmarks: run the serving and recovery benches
# at reduced scale and refresh the reduced-scale record
# (BENCH_live_short.json). The committed full-scale BENCH_live.json is only
# rewritten by bench-live / bench-recovery.
bench:
	NEXMARK_BENCH_WRITE=1 $(GO) test ./internal/nexmark -run 'TestLiveBench|TestRecoveryBench' -short -v

# Standing-query serving benchmark: ingests the NEXMark bid stream through
# live subscriptions — single-subscriber scenarios plus the K-subscriber
# shared-vs-unshared fan-out — and refreshes BENCH_live.json (steady-state
# throughput + per-delta latency percentiles).
bench-live:
	NEXMARK_BENCH_WRITE=1 $(GO) test ./internal/nexmark -run TestLiveBench -v -timeout 10m

# Recovery benchmark: checkpoint size, checkpoint/restore latency, and the
# full-history replay it replaces, for the standing benchmark query. Merges into the Recovery section of BENCH_live.json
# (short runs: BENCH_live_short.json) without touching the subscription rows.
bench-recovery:
	NEXMARK_BENCH_WRITE=1 $(GO) test ./internal/nexmark -run TestRecoveryBench -v -timeout 10m

# Compare a fresh short benchmark run against the committed short-mode
# baseline (like for like — short runs never compare against the full-scale
# BENCH_live.json): snapshots the baseline, reruns the short benches (which
# rewrite BENCH_live_short.json), and prints per-subscription throughput and
# recovery deltas.
bench-diff:
	@livebase=$$(mktemp -t bench_live_base.XXXXXX.json) && \
	cp BENCH_live_short.json $$livebase && \
	NEXMARK_BENCH_WRITE=1 $(GO) test ./internal/nexmark -run 'TestLiveBench|TestRecoveryBench' -short && \
	$(GO) run ./cmd/benchdiff $$livebase BENCH_live_short.json; \
	status=$$?; rm -f $$livebase; exit $$status

# The repository benchmark's harness (benchmark/, named by BENCHMARK.json) is
# a Go module of its own, so `go build ./...` and `go test ./...` at the root
# never compile it: vet it and run its unit tests plus TestSmoke (a 1/100-size
# run of every workload against a real cmd/serve over a real listener), so an
# engine change that breaks what the harness uses fails here, not at
# measurement time.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

verify: vet build deadcode race race-shard faults batch-guard obs-guard fuzz-smoke bench bench-harness
