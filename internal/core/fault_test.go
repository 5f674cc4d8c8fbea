package core_test

// Engine-level fault-injection tests: degraded read-only mode (the engine's
// defined behavior when the durability layer fails) and the ALICE-style
// crash-point soak (crash after EVERY filesystem operation in a recorded
// workload, recover, and require the recovered state byte-identical to a
// reference run at the acknowledged prefix).

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// faultBidSchema is a minimal watermarked stream schema for fault tests —
// small rows keep the WAL op sequence short, which keeps the exhaustive
// crash-point soak cheap.
func faultBidSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "auction", Kind: types.KindInt64},
		types.Column{Name: "price", Kind: types.KindInt64},
		types.Column{Name: "dateTime", Kind: types.KindTimestamp, EventTime: true},
	)
}

// faultBatch builds the i-th deterministic ingest batch: three bids and,
// every fourth batch, a watermark advance.
func faultBatch(i int) tvr.Changelog {
	base := types.Time(int64(i) * 1000)
	var log tvr.Changelog
	for j := 0; j < 3; j++ {
		n := int64(i*3 + j)
		row := types.Row{
			types.NewInt(n % 5),
			types.NewInt(100 + (n*31)%97),
			types.NewTimestamp(base + types.Time(j*100)),
		}
		log = append(log, tvr.InsertEvent(base+types.Time(j*10), row))
	}
	if i%4 == 3 {
		log = append(log, tvr.WatermarkEvent(base+500, base))
	}
	return log
}

const faultStateQuery = "SELECT auction, price FROM Bid"

// faultState renders the engine's Bid state deterministically; engines with
// identical acknowledged histories must render identically. An engine that
// never saw the Bid registration renders as empty.
func faultState(t *testing.T, e *core.Engine) string {
	t.Helper()
	if _, err := e.Resolve("Bid"); err != nil {
		return "<empty>"
	}
	res, err := e.QueryStream(faultStateQuery)
	if err != nil {
		t.Fatalf("state query: %v", err)
	}
	return tvr.FormatStreamTable(res.Schema, res.Rows)
}

// waitDelta receives one delta from the subscription or fails.
func waitDelta(t *testing.T, sub *live.Subscription) live.Delta {
	t.Helper()
	select {
	case d, ok := <-sub.Deltas():
		if !ok {
			t.Fatalf("subscription closed (err=%v)", sub.Err())
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a delta")
	}
	panic("unreachable")
}

// expectNoDelta asserts the subscription is alive but idle.
func expectNoDelta(t *testing.T, sub *live.Subscription) {
	t.Helper()
	select {
	case d, ok := <-sub.Deltas():
		if !ok {
			t.Fatalf("subscription closed (err=%v)", sub.Err())
		}
		t.Fatalf("unexpected delta: %+v", d)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDegradedModePersistentFsyncFault is the acceptance scenario: a
// persistent fsync fault poisons the log (fsync-gate), the engine flips to
// degraded read-only mode — ingest refused with ErrDegraded, reads and
// existing subscriptions keep serving — and clearing the fault plus
// ClearDegraded restores normal service with no acknowledged commit lost.
func TestDegradedModePersistentFsyncFault(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.Default)
	e := openFaultEngine(t, dir, wal.Options{Mode: wal.SyncAlways}, core.WithFS(ffs))
	if err := e.RegisterStream("Bid", faultBidSchema()); err != nil {
		t.Fatal(err)
	}
	sub, err := e.SubscribeStream(faultStateQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if err := e.AppendLog("Bid", faultBatch(0)); err != nil {
		t.Fatal(err)
	}
	waitDelta(t, sub)

	// The disk starts eating fsyncs. The first commit attempt fails and —
	// because a failed fsync poisons the segment — degrades the engine
	// immediately, without waiting for the consecutive-failure threshold.
	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, Err: errors.New("EIO")})
	if err := e.AppendLog("Bid", faultBatch(1)); err == nil {
		t.Fatal("ingest with failing fsync must be refused")
	}
	if e.Degraded() == nil {
		t.Fatal("poisoned log must degrade the engine immediately")
	}
	// Every ingest path now refuses up front with ErrDegraded.
	if err := e.AppendLog("Bid", faultBatch(1)); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("ingest while degraded = %v, want ErrDegraded", err)
	}
	if err := e.Heartbeat(10_000_000); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("heartbeat while degraded = %v, want ErrDegraded", err)
	}
	if err := e.RegisterStream("Other", faultBidSchema()); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("register while degraded = %v, want ErrDegraded", err)
	}
	// Reads are unaffected: the refused batch never mutated state.
	healthyState := faultState(t, e)
	if healthyState == "<empty>" {
		t.Fatal("reads must keep serving while degraded")
	}
	// The standing query is alive, just idle — degraded mode sheds writes,
	// not subscribers.
	expectNoDelta(t, sub)
	if sub.Err() != nil {
		t.Fatalf("subscription must survive degraded mode, got err: %v", sub.Err())
	}

	// Clearing degraded mode while the disk is still broken must fail (the
	// recovery probe cannot be made durable) and leave the engine degraded.
	if err := e.ClearDegraded(); err == nil {
		t.Fatal("ClearDegraded must fail while the fault persists")
	}
	if e.Degraded() == nil {
		t.Fatal("engine must stay degraded after a failed probe")
	}

	// The disk recovers: ClearDegraded repairs the log (Recover abandons
	// the poisoned segment), proves writability with a durable no-op probe,
	// and reopens ingest.
	ffs.ClearFaults()
	if err := e.ClearDegraded(); err != nil {
		t.Fatalf("ClearDegraded after fault cleared: %v", err)
	}
	if e.Degraded() != nil {
		t.Fatalf("engine still degraded: %v", e.Degraded())
	}
	if err := e.AppendLog("Bid", faultBatch(1)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	waitDelta(t, sub)

	// Crash-recover the log: everything acknowledged (including commits
	// from after the recovery, and the no-op probe record) must replay into
	// an identical engine.
	finalState := faultState(t, e)
	r := openFaultEngine(t, dir, wal.Options{Mode: wal.SyncAlways})
	if got := faultState(t, r); got != finalState {
		t.Fatalf("recovered state differs from live state\n got: %s\nwant: %s", got, finalState)
	}
}

// TestDegradedThreshold: append-safe WAL failures (here: segment rotation
// hitting ENOSPC) do not poison the log, so the engine counts them and
// degrades only after DegradeAfter CONSECUTIVE failures; a success in
// between resets the count.
func TestDegradedThreshold(t *testing.T) {
	ffs := vfs.NewFault(vfs.Default)
	// SegmentBytes 1: every append after the first wants a fresh segment,
	// so a persistent create fault fails every commit without poisoning.
	e := openFaultEngine(t, t.TempDir(), wal.Options{Mode: wal.SyncAlways, SegmentBytes: 1}, core.WithFS(ffs))
	if err := e.RegisterStream("Bid", faultBidSchema()); err != nil {
		t.Fatal(err)
	}

	ffs.AddFault(vfs.Fault{Op: vfs.OpCreate, Path: "wal-", Err: vfs.ErrNoSpace})
	for i := 1; i < core.DegradeAfter; i++ {
		if err := e.AppendLog("Bid", faultBatch(0)); err == nil || errors.Is(err, core.ErrDegraded) {
			t.Fatalf("failure %d of %d should refuse the commit without degrading, got %v", i, core.DegradeAfter, err)
		}
		if e.Degraded() != nil {
			t.Fatalf("%d append-safe failures must not degrade (threshold %d)", i, core.DegradeAfter)
		}
	}
	if err := e.AppendLog("Bid", faultBatch(0)); err == nil {
		t.Fatal("the last failure must refuse the commit")
	}
	if e.Degraded() == nil {
		t.Fatalf("failure %d in a row must degrade", core.DegradeAfter)
	}
	if err := e.AppendLog("Bid", faultBatch(0)); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("ingest while degraded = %v, want ErrDegraded", err)
	}

	ffs.ClearFaults()
	if err := e.ClearDegraded(); err != nil {
		t.Fatalf("ClearDegraded: %v", err)
	}
	if err := e.AppendLog("Bid", faultBatch(0)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
}

// ---- crash-point soak ----

// openFaultEngine opens dir through core.Open, the production stitch, and
// closes the engine when the test ends.
func openFaultEngine(t *testing.T, dir string, walOpts wal.Options, opts ...core.Option) *core.Engine {
	t.Helper()
	e, _, err := core.Open(dir, walOpts, append([]core.Option{core.WithUnboundedGroupBy()}, opts...)...)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	t.Cleanup(e.Close)
	return e
}

// soakWAL is the soak's log: small segments, so the workload rotates and
// truncation removes whole segments.
var soakWAL = wal.Options{Mode: wal.SyncAlways, SegmentBytes: 512}

// soakStep is one committed operation of the recorded workload.
type soakStep struct {
	name string
	run  func(e *core.Engine) error
}

// snapshotHookFS runs hook, once it is armed, right after the next rename
// succeeds: inside a checkpoint, that is the snapshot moving into place,
// between the snapshot and the log truncation.
type snapshotHookFS struct {
	*vfs.FaultFS
	hook func() error
}

func (f *snapshotHookFS) Rename(oldpath, newpath string) error {
	if err := f.FaultFS.Rename(oldpath, newpath); err != nil || f.hook == nil {
		return err
	}
	hook := f.hook
	f.hook = nil
	return hook()
}

// soakWorkload builds the recorded workload: register, ingest batches with
// interleaved heartbeats, and one checkpoint in the middle with a batch
// committed between its snapshot and its log truncation. fs is the durable
// run's filesystem; the reference run passes nil and uses a plain
// NewEngine, whose checkpoint step only commits that batch: checkpoints
// never change query state.
func soakWorkload(batches int, fs *snapshotHookFS) []soakStep {
	steps := []soakStep{{
		name: "register",
		run:  func(e *core.Engine) error { return e.RegisterStream("Bid", faultBidSchema()) },
	}}
	for i := 0; i < batches; i++ {
		i := i
		steps = append(steps, soakStep{
			name: fmt.Sprintf("batch-%d", i),
			run:  func(e *core.Engine) error { return e.AppendLog("Bid", faultBatch(i)) },
		})
		if i == batches/2 {
			steps = append(steps, soakStep{
				name: "checkpoint",
				run: func(e *core.Engine) error {
					during := func() error { return e.AppendLog("Bid", midCheckpointBatch(i, batches)) }
					if e.CheckpointStatus().Path == "" {
						return during()
					}
					fs.hook = during
					_, _, err := e.Checkpoint()
					fs.hook = nil
					return err
				},
			})
		}
		if i%3 == 2 {
			pt := types.Time(int64(i)*1000 + 900)
			steps = append(steps, soakStep{
				name: fmt.Sprintf("heartbeat-%d", i),
				run:  func(e *core.Engine) error { return e.Heartbeat(pt) },
			})
		}
	}
	return steps
}

// midCheckpointBatch is the batch the soak commits inside the checkpoint
// after batch i: rows no other batch holds, at processing times between
// batch i's and the next heartbeat's.
func midCheckpointBatch(i, batches int) tvr.Changelog {
	log := faultBatch(batches)
	for k := range log {
		log[k].Ptime = types.Time(int64(i)*1000 + 500 + int64(k)*10)
	}
	return log
}

// runSoakWorkload opens dataDir through core.Open over ffs and executes the
// workload. It returns how many steps were acknowledged (with retryOnce,
// Open and each failing step are retried once before giving up); a failed
// Open acknowledges none. Close errors are ignored: a crashed run's close
// path fails by design.
func runSoakWorkload(t *testing.T, dataDir string, ffs *vfs.FaultFS, retryOnce bool) int {
	t.Helper()
	fs := &snapshotHookFS{FaultFS: ffs}
	var e *core.Engine
	open := func(*core.Engine) (err error) {
		e, _, err = core.Open(dataDir, soakWAL, core.WithUnboundedGroupBy(), core.WithFS(fs))
		return err
	}
	try := func(run func(*core.Engine) error) error {
		err := run(e)
		if err != nil && retryOnce {
			err = run(e)
		}
		return err
	}
	if try(open) != nil {
		return 0
	}
	defer e.Close()
	n := 0
	for _, st := range soakWorkload(soakBatches(), fs) {
		err := try(st.run)
		if err != nil {
			break
		}
		n++
	}
	return n
}

// soakReference runs the workload on a plain engine with no durability
// layer and returns the query state after every step: the oracle the
// durable runs are held to.
func soakReference(t *testing.T, steps []soakStep) []string {
	t.Helper()
	ref := core.NewEngine(core.WithUnboundedGroupBy())
	defer ref.Close()
	states := make([]string, len(steps))
	for k, st := range steps {
		if err := st.run(ref); err != nil {
			t.Fatalf("reference step %s: %v", st.name, err)
		}
		states[k] = faultState(t, ref)
	}
	return states
}

// soakRecover opens the crash-frozen directory through core.Open over a
// CLEAN filesystem: the recovery a restarted process runs, which also
// proves the log reopens for appending at the recovered sequence.
func soakRecover(t *testing.T, dataDir string) *core.Engine {
	t.Helper()
	r, _, err := core.Open(dataDir, soakWAL, core.WithUnboundedGroupBy())
	if err != nil {
		t.Fatalf("recover %s: %v", dataDir, err)
	}
	t.Cleanup(r.Close)
	return r
}

// soakBatches scales the workload: small by default (the soak is quadratic
// in the op count), full-size with FAULT_SOAK_FULL=1.
func soakBatches() int {
	if os.Getenv("FAULT_SOAK_FULL") != "" {
		return 40
	}
	return 10
}

// TestCrashPointSoak enumerates every filesystem operation the recorded
// workload performs and, for each index i, re-runs the workload on a fresh
// directory with a hard crash after op i — every later operation fails and
// persists nothing. Recovery over the frozen directory must then yield a
// state byte-identical to the reference run at the acknowledged prefix
// (the in-flight commit may legitimately have become durable without its
// ack). This is the test that fails if the WAL append hardening — torn-
// frame repair, fsync-gate ack rollback, sealed-before-successor rotation
// — is reverted: some crash index then loses an acknowledged commit or
// corrupts the log beyond replay.
func TestCrashPointSoak(t *testing.T) {
	// Phase 1 — oracle: a fault-free run over a FaultFS records the op
	// count (the crash-point enumeration domain, Open's own operations
	// included), and a plain reference engine records the expected state
	// after every acknowledged step.
	ffs := vfs.NewFault(vfs.Default)
	steps := soakWorkload(soakBatches(), nil)
	if acked := runSoakWorkload(t, t.TempDir(), ffs, false); acked != len(steps) {
		t.Fatalf("fault-free run acked %d of %d steps", acked, len(steps))
	}
	totalOps := ffs.Ops()
	refStates := soakReference(t, steps)
	emptyState := "<empty>"
	t.Logf("soak: %d steps, %d filesystem operations to crash after", len(steps), totalOps)

	// Phase 2 — crash after every op. CrashAfter(0) crashes before the
	// first op (even the data directory never appears).
	for i := 0; i <= totalOps; i++ {
		dir := t.TempDir()
		crashFS := vfs.NewFault(vfs.Default)
		crashFS.CrashAfter(i)
		acked := runSoakWorkload(t, dir, crashFS, false)
		rec := soakRecover(t, dir)
		got := faultState(t, rec)

		// Acceptable recovered states: exactly the acked prefix, or the
		// acked prefix plus the one in-flight commit (durable, unacked).
		okStates := []string{}
		if acked == 0 {
			okStates = append(okStates, emptyState)
		} else {
			okStates = append(okStates, refStates[acked-1])
		}
		if acked < len(steps) {
			okStates = append(okStates, refStates[acked])
		}
		matched := false
		for _, want := range okStates {
			if got == want {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("crash after op %d (acked %d steps): recovered state matches neither the acked prefix nor prefix+1\n got: %s",
				i, acked, got)
		}
	}
}

// TestTornWriteSoak tears every write the workload performs, one per run:
// write j persists only a 7-byte prefix and fails; the workload retries the
// failed step once (the client-visible contract: a refused commit may be
// retried) and continues. The run must then acknowledge every step and
// recover to the full reference state — which is exactly what breaks if
// failed-append repair stops truncating partial frames: the tear stays in
// the segment, later acknowledged frames sit behind it, and replay loses
// them.
func TestTornWriteSoak(t *testing.T) {
	ffs := vfs.NewFault(vfs.Default)
	steps := soakWorkload(soakBatches(), nil)
	if acked := runSoakWorkload(t, t.TempDir(), ffs, false); acked != len(steps) {
		t.Fatalf("fault-free run acked %d of %d steps", acked, len(steps))
	}
	writes := ffs.OpCount(vfs.OpWrite)
	refStates := soakReference(t, steps)
	want := refStates[len(refStates)-1]
	t.Logf("torn-write soak: %d writes to tear", writes)

	for j := 1; j <= writes; j++ {
		dir := t.TempDir()
		tornFS := vfs.NewFault(vfs.Default)
		tornFS.AddFault(vfs.Fault{Op: vfs.OpWrite, Nth: j, TornBytes: 7})
		acked := runSoakWorkload(t, dir, tornFS, true)
		if acked != len(steps) {
			t.Fatalf("torn write %d: acked %d of %d steps — a single repaired tear must not wedge the log",
				j, acked, len(steps))
		}
		rec := soakRecover(t, dir)
		if got := faultState(t, rec); got != want {
			t.Fatalf("torn write %d: recovered state differs from reference\n got: %s\nwant: %s", j, got, want)
		}
	}
}
