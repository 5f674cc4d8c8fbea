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
	"path/filepath"
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
	walDir := filepath.Join(dir, "wal")
	ffs := vfs.NewFault(vfs.Default)
	w, err := wal.Open(walDir, 1, wal.Options{Mode: wal.SyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e := core.NewEngine(core.WithUnboundedGroupBy())
	defer e.Close()
	if err := e.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream("Bid", faultBidSchema()); err != nil {
		t.Fatal(err)
	}
	sub, err := e.SubscribeStream(faultStateQuery, core.SubscribeOptions{Buffer: 16})
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
	r := core.NewEngine(core.WithUnboundedGroupBy())
	defer r.Close()
	if _, err := wal.Replay(walDir, r.ReplayWALRecord); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := faultState(t, r); got != finalState {
		t.Fatalf("recovered state differs from live state\n got: %s\nwant: %s", got, finalState)
	}
}

// TestDegradedThreshold: append-safe WAL failures (here: segment rotation
// hitting ENOSPC) do not poison the log, so the engine counts them and
// degrades only after DegradeAfter CONSECUTIVE failures; a success in
// between resets the count.
func TestDegradedThreshold(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFault(vfs.Default)
	// SegmentBytes 1: every append after the first wants a fresh segment,
	// so a persistent create fault fails every commit without poisoning.
	w, err := wal.Open(filepath.Join(dir, "wal"), 1, wal.Options{Mode: wal.SyncAlways, SegmentBytes: 1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	e := core.NewEngine(core.WithUnboundedGroupBy())
	defer e.Close()
	if err := e.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
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

// soakStep is one committed operation of the recorded workload. The wal
// writer is nil in the reference run (no durability layer), in which case
// the checkpoint step is a no-op — checkpoints never change query state.
type soakStep struct {
	name string
	run  func(e *core.Engine, w *wal.Writer) error
}

// soakWorkload builds the recorded workload: register, ingest batches with
// interleaved heartbeats, one checkpoint + WAL truncation in the middle.
// dataDir parameterizes the checkpoint path per run.
func soakWorkload(dataDir string, batches int) []soakStep {
	steps := []soakStep{{
		name: "register",
		run: func(e *core.Engine, w *wal.Writer) error {
			return e.RegisterStream("Bid", faultBidSchema())
		},
	}}
	for i := 0; i < batches; i++ {
		i := i
		steps = append(steps, soakStep{
			name: fmt.Sprintf("batch-%d", i),
			run: func(e *core.Engine, w *wal.Writer) error {
				return e.AppendLog("Bid", faultBatch(i))
			},
		})
		if i == batches/2 {
			steps = append(steps, soakStep{
				name: "checkpoint",
				run: func(e *core.Engine, w *wal.Writer) error {
					if w == nil {
						return nil
					}
					_, seq, err := e.CheckpointFile(filepath.Join(dataDir, "checkpoint.ckpt"))
					if err != nil {
						return err
					}
					return w.TruncateThrough(seq)
				},
			})
		}
		if i%3 == 2 {
			pt := types.Time(int64(i)*1000 + 900)
			steps = append(steps, soakStep{
				name: fmt.Sprintf("heartbeat-%d", i),
				run: func(e *core.Engine, w *wal.Writer) error {
					return e.Heartbeat(pt)
				},
			})
		}
	}
	return steps
}

// runSoakWorkload executes the workload over a FaultFS-backed engine+WAL in
// dataDir. It returns how many steps were acknowledged (with retryOnce,
// each failing step is retried once before giving up) and the FaultFS for
// op-count inspection. Close errors are ignored: a crashed run's close path
// fails by design.
func runSoakWorkload(t *testing.T, dataDir string, ffs *vfs.FaultFS, retryOnce bool) int {
	t.Helper()
	walDir := filepath.Join(dataDir, "wal")
	w, err := wal.Open(walDir, 1, wal.Options{Mode: wal.SyncAlways, SegmentBytes: 512, FS: ffs})
	if err != nil {
		return 0 // crashed before the log existed: nothing acknowledged
	}
	e := core.NewEngine(core.WithUnboundedGroupBy(), core.WithFS(ffs))
	if err := e.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for _, st := range soakWorkload(dataDir, soakBatches()) {
		err := st.run(e, w)
		if err != nil && retryOnce {
			err = st.run(e, w)
		}
		if err != nil {
			break
		}
		acked++
	}
	e.Close()
	_ = w.Close()
	return acked
}

// soakRecover is the production recovery stitch over the crash-frozen
// directory, through a CLEAN filesystem: sweep checkpoint temp litter,
// restore the snapshot if one exists, replay the WAL tail, and prove the
// log reopens for appending at the recovered sequence.
func soakRecover(t *testing.T, dataDir string) *core.Engine {
	t.Helper()
	stale, err := filepath.Glob(filepath.Join(dataDir, "checkpoint.ckpt.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	r := core.NewEngine(core.WithUnboundedGroupBy())
	t.Cleanup(r.Close)
	ckpt := filepath.Join(dataDir, "checkpoint.ckpt")
	if _, err := os.Stat(ckpt); err == nil {
		if err := r.RestoreFile(ckpt); err != nil {
			t.Fatalf("restore %s: %v", ckpt, err)
		}
	}
	walDir := filepath.Join(dataDir, "wal")
	if _, err := wal.Replay(walDir, r.ReplayWALRecord); err != nil {
		t.Fatalf("replay %s: %v", walDir, err)
	}
	w, err := wal.Open(walDir, r.WALSeq()+1, wal.Options{Mode: wal.SyncAlways, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("reopen log after recovery: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close reopened log: %v", err)
	}
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
	// count (the crash-point enumeration domain), and a plain reference
	// engine records the expected state after every acknowledged step.
	refDir := t.TempDir()
	ffs := vfs.NewFault(vfs.Default)
	steps := soakWorkload("", soakBatches())
	if acked := runSoakWorkload(t, refDir, ffs, false); acked != len(steps) {
		t.Fatalf("fault-free run acked %d of %d steps", acked, len(steps))
	}
	totalOps := ffs.Ops()
	ref := core.NewEngine(core.WithUnboundedGroupBy())
	defer ref.Close()
	refStates := make([]string, len(steps))
	for k, st := range steps {
		if err := st.run(ref, nil); err != nil {
			t.Fatalf("reference step %s: %v", st.name, err)
		}
		refStates[k] = faultState(t, ref)
	}
	emptyState := "<empty>"
	t.Logf("soak: %d steps, %d filesystem operations to crash after", len(steps), totalOps)

	// Phase 2 — crash after every op. CrashAfter(0) crashes before the
	// first op (even the WAL directory never appears).
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
	refDir := t.TempDir()
	ffs := vfs.NewFault(vfs.Default)
	steps := soakWorkload("", soakBatches())
	if acked := runSoakWorkload(t, refDir, ffs, false); acked != len(steps) {
		t.Fatalf("fault-free run acked %d of %d steps", acked, len(steps))
	}
	writes := ffs.OpCount(vfs.OpWrite)
	ref := core.NewEngine(core.WithUnboundedGroupBy())
	defer ref.Close()
	for _, st := range steps {
		if err := st.run(ref, nil); err != nil {
			t.Fatalf("reference step %s: %v", st.name, err)
		}
	}
	want := faultState(t, ref)
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
