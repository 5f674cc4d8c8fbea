# Build / verify entry points. `make verify` is the tier-1 gate plus the
# race-checked suite and a one-iteration benchmark smoke.

GO ?= go

.PHONY: all build vet test deadcode race race-live faults batch-guard obs-guard fuzz-smoke bench bench-harness verify

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

# The live subsystem under forced parallelism, at GOMAXPROCS=4 even on boxes
# whose default would serialize the schedule: fan-out runs on the committing
# goroutine, but each cursor's reader is a goroutine of its own, one-shot
# reads answered from a resident pipeline take no ordering lock, and a
# session's last cursor removes it from the routing table and completes its
# driver on the departing consumer's goroutine. So the manager and session
# tests race here, beside resident reads while another goroutine commits,
# shared plans (stream and table cursors of several spellings on one session,
# attaching late), stalled readers (a subscriber that stops reading beside
# commits, peers, resident reads and checkpoints, then resumes), the engine's
# live subscriptions and checkpoints (TestLive*, TestCheckpoint*), and the
# departures that must leave no goroutine, session or worker behind
# (TestSubscriptionGoroutineHygiene, TestFailedRegister*).
race-live:
	GOMAXPROCS=4 $(GO) test -race ./internal/live/...
	GOMAXPROCS=4 $(GO) test -race ./internal/core -run 'TestResidentRead'
	GOMAXPROCS=4 $(GO) test -race ./internal/core -run 'TestSharedPlan'
	GOMAXPROCS=4 $(GO) test -race ./internal/core -run 'TestStalledReader'
	GOMAXPROCS=4 $(GO) test -race ./internal/core -run 'TestLive|TestCheckpoint|TestSubscriptionGoroutineHygiene|TestFailedRegister'

# Fault-injection and crash-safety suite: the vfs fault matrix, the WAL and
# checkpoint I/O-failure tests, the ALICE-style crash-point soak (crash after
# every file-system operation of core.Open and a workload, recover through
# core.Open, compare against the reference states), the torn-write soak,
# core.Open's and Checkpoint's refusal and failure-count rules, degraded
# read-only mode end to end (engine + HTTP), the commit routes' truthful
# outcome under -request-timeout (a commit that waited past its deadline is a
# 503 that committed nothing, in the catalog, the log and every subscriber),
# and the panic-isolation regressions. Runs at reduced scale by default;
# FAULT_SOAK_FULL=1 widens the soak workload.
#   make faults
#   FAULT_SOAK_FULL=1 make faults
faults:
	$(GO) test ./internal/vfs/ -v
	$(GO) test ./internal/wal/ ./internal/checkpoint/ -run 'Torn|Fsync|ENOSPC|Recover|Trims|SyncAlwaysRetry|Atomic' -v
	$(GO) test ./internal/core/ -run 'TestCrashPointSoak|TestTornWriteSoak|TestDegraded|TestOpen' -v -timeout 10m
	$(GO) test ./internal/exec/ ./internal/live/ -run 'Panic' -v
	$(GO) test ./cmd/serve/ -run 'TestServeDegradedMode|TestServeRequestTimeout|TestServeIngestPastDeadlineCommitsNothing' -v

# Batched-execution guardrails: the re-chunking invariance property (for
# every operator family, any PushBatch chunking of a log must reproduce the
# output recorded in internal/exec/testdata/rechunk_*.golden while operators
# still had a per-event entry point), the 0 allocs/op pin on the keyed
# steady-state PushBatch, the windowed_agg allocation ceiling (every event
# opens and closes a Tumble MAX window group, EMIT AFTER WATERMARK, at most 2
# allocations per event; skipped under -race), the dispatch-stats accounting
# test, and a single-iteration BenchmarkBatchPush smoke with -benchmem (the Q1 chain, the
# keyed aggregate and a Q4-shaped join -> aggregate) so an alloc regression
# on the batch path is visible in the verify output.
# The ptime rule reads from a resident pipeline rest on rides along too:
# fed in merge order, output ptimes never decrease and follow the input that
# caused them; and a replay's horizon cut keeps every event tied at it.
# Watermark completion rides along: the completionIndex cost pin (an advance
# takes exactly the groups it closes off the heap), the three operators against their
# walk-every-group references, and BenchmarkWatermarkAdvance, whose
# closed=1k and closed=100k rows must read alike (history independence).
# So does the keyed store those three operators keep their groups in
# (keyedStore): it matches a map[string] model under random inserts, finds,
# removes, slot reuse, arena compaction, rehashes past tombstones,
# first-seen iteration and save/load; 100k groups opening and closing with
# 1,000 open at once allocate 0 bytes after warm-up, in a slab, arena and
# index bounded by the open groups; and BenchmarkKeyedStore prints ns and
# allocs per group life.
# Output retention rides along too: a standing collector holds nothing after
# each Drain (120k events), only a one-shot Run folds
# the table rendering (and still rejects a retraction of an absent row), and
# a snapshot from before the collector stopped checkpointing its relation
# still restores and continues identically.
# The wire codec rides along: a Bid batch decodes in a constant handful of
# allocations at 50 and at 500 events, a delta appends into a warmed buffer
# with none, and BenchmarkIngestDecode/BenchmarkDeltaEncode print us/event.
# A 7-event ingest through Server.ServeHTTP stays at the allocation count it
# had when the commit routes left http.TimeoutHandler.
# So does the relation a resident table read folds into: a row leaves the
# bag at multiplicity zero (10k insert/delete pairs leave it empty), a
# leave/re-enter pair allocates only the new entry and its key, and
# BenchmarkRelationChurn prints ns and allocs per churn round.
# So does the stream renderer's version store: versioning 10k rows whose emit
# key is a distinct TIMESTAMP each stays under 0.1 allocations per row
# (TestStreamRendererAllocs; it was 2 while every group took a heap key and a
# heap counter), the renderer matches a byte-keyed reference in versions and
# checkpoint bytes, and BenchmarkStreamRender prints ns/row and allocs/row.
# So does the chunked log every retained changelog lives in (tvr.Log): its
# Cut, Since, Slice, TrimBelow and Save/Load match a plain slice under random
# appends and trims with chunk boundaries inside and between commits, a
# captured range survives later appends and trims, appending N events in
# 500-event commits allocates at most 1.1 x N x sizeof(Event) bytes (no
# history is copied), BenchmarkLogAppend prints B/op per 500-event commit,
# a one-shot replay over a history of several chunks allocates under a
# quarter of one copy of it (TestReplayCopiesNoHistory), a log's first chunk
# grows from 16 elements up to ChunkLen while readers walk ranges captured
# from it, so a 100-event replay returning one row allocates under 16 KiB
# (TestSmallReplayAllocs), and a capped session fed 20 times its cap holds
# at most its cap plus one chunk of rows.
batch-guard:
	$(GO) test ./internal/exec -run 'TestPushBatchRechunkEquivalence|TestOutputPtimesFollowInput|TestMergedRunsCutTiesAtHorizon|TestKeyedHotPathAllocFree|TestWindowedAggAllocs|TestBatchDispatchStats' -v
	$(GO) test ./internal/exec -run '^$$' -bench BenchmarkBatchPush -benchtime 1x -benchmem
	$(GO) test ./internal/exec -run 'TestCompletionIndex|TestWatermarkCompletionMatchesWalk' -v
	$(GO) test ./internal/exec -run '^$$' -bench BenchmarkWatermarkAdvance -benchtime 500x -benchmem
	$(GO) test ./internal/exec -run 'TestKeyedStoreMatchesMap|TestKeyedStoreSteadyState' -v
	$(GO) test ./internal/exec -run '^$$' -bench BenchmarkKeyedStore -benchtime 100000x -benchmem
	$(GO) test ./internal/exec -run 'TestStandingCollectorRetainsNothing|TestRunRejectsRetractionOfAbsentRow|TestCollectorRoundTrip|TestCheckpointPreCollectorGolden' -v
	$(GO) test ./cmd/serve -run 'TestWireAllocs|TestIngestHandlerAllocs' -v
	$(GO) test ./cmd/serve -run '^$$' -bench 'BenchmarkIngestDecode|BenchmarkDeltaEncode' -benchtime 200x -benchmem
	$(GO) test ./internal/tvr -run 'TestRelationForgetsRowsAtZero|TestRelationChurnAllocs|TestRelationMatchesReference' -v
	$(GO) test ./internal/tvr -run '^$$' -bench BenchmarkRelationChurn -benchtime 200x -benchmem
	$(GO) test ./internal/tvr -run 'TestStreamRendererAllocs|TestStreamRendererMatchesReference' -v
	$(GO) test ./internal/tvr -run '^$$' -bench BenchmarkStreamRender -benchtime 200x -benchmem
	$(GO) test ./internal/tvr -run 'TestLogMatchesSliceModel|TestLogRangeSurvivesAppendsAndTrims|TestLogFirstChunkGrowsUnderReader|TestLogAppendAllocs' -v
	$(GO) test ./internal/tvr -run '^$$' -bench BenchmarkLogAppend -benchtime 200x -benchmem
	$(GO) test ./internal/core -run 'TestReplayCopiesNoHistory|TestSmallReplayAllocs' -v
	$(GO) test ./internal/live -run 'TestCappedRetentionFreesChunks' -v

# Observability guardrails: the Prometheus exposition-format and
# concurrency tests for internal/obs, the 0 allocs/op pins on Counter.Add /
# Histogram.Observe, the /metrics + slow-commit serving integration tests
# (TestMetricsDispatchCountersNeverFall: a pipeline's teardown lowers no
# counter), the no-hot-Stats audit, and the instrumented batch-push alloc pin (a
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

# Fuzz smoke: ten seconds each of the engine-snapshot decoder (FuzzRestoreAll),
# of reads served from a resident pipeline against replay (FuzzResidentRead),
# of cmd/serve's wire codec against its encoding/json reference
# (FuzzIngestDecode, FuzzWireEncode), of the SQL parser's error contract
# (FuzzParse) and of the WAL frame reader (FuzzWALFrame), two workers each.
# Minimizing a new input takes 60 s by default, which reads as a stall;
# -fuzzminimizetime caps it at 3 s. A failing input is written under the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzRestoreAll$$' -fuzztime 10s -fuzzminimizetime 3s -parallel 2
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzResidentRead$$' -fuzztime 10s -fuzzminimizetime 3s -parallel 2
	$(GO) test ./cmd/serve -run '^$$' -fuzz '^FuzzIngestDecode$$' -fuzztime 10s -fuzzminimizetime 3s -parallel 2
	$(GO) test ./cmd/serve -run '^$$' -fuzz '^FuzzWireEncode$$' -fuzztime 10s -fuzzminimizetime 3s -parallel 2
	$(GO) test ./internal/sqlparser -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 3s -parallel 2
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALFrame$$' -fuzztime 10s -fuzzminimizetime 3s -parallel 2

# One-iteration smoke of the in-process standing-query benchmarks at 1 and 2
# procs: the multi-query fan-out row (BenchmarkMultiQuery, 8 disjoint
# queries, each run held to the first run's delta and row totals), K=4
# cursors on one shared pipeline (BenchmarkSharedFanout) and checkpoint /
# restore / full-history replay (BenchmarkRecovery, with the checkpoint's
# bytes). Each prints events/s or ns/op and writes no file; run
# with a larger -benchtime or -count to measure.
bench:
	$(GO) test ./internal/nexmark -run '^$$' -bench . -benchtime 1x -cpu 1,2

# The repository benchmark's harness (benchmark/, named by BENCHMARK.json) is
# a Go module of its own, so `go build ./...` and `go test ./...` at the root
# never compile it: vet it and run its unit tests plus TestSmoke (a 1/100-size
# run of every workload against a real cmd/serve over a real listener), so an
# engine change that breaks what the harness uses fails here, not at
# measurement time.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

verify: vet build deadcode race race-live faults batch-guard obs-guard fuzz-smoke bench bench-harness
