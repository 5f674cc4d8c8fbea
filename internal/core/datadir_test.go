package core_test

// Tests of the data directory's owner: core.Open's refusal rules and
// Checkpoint's failure accounting, plus the empty-batch commit rule.

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/tvr"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// segmentNames lists the log segments of a data directory.
func segmentNames(t *testing.T, dataDir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dataDir, "wal", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestOpenRefusesUnstatableSnapshot: only a snapshot that definitely does
// not exist may start fresh. A snapshot Open cannot stat fails the boot —
// no engine, and no log segment created or removed — because an empty
// engine's first checkpoint would overwrite the durable one.
func TestOpenRefusesUnstatableSnapshot(t *testing.T) {
	dir := t.TempDir()
	e := openFaultEngine(t, dir, wal.Options{})
	if err := e.RegisterStream("Bid", faultBidSchema()); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("Bid", faultBatch(0)); err != nil {
		t.Fatal(err)
	}
	want := faultState(t, e)
	e.Close()
	before := segmentNames(t, dir)
	if len(before) == 0 {
		t.Fatal("the workload left no log segment to protect")
	}

	ffs := vfs.NewFault(vfs.Default)
	ffs.AddFault(vfs.Fault{Op: vfs.OpStat, Path: "checkpoint.ckpt", Err: errors.New("EIO: injected")})
	r, _, err := core.Open(dir, wal.Options{}, core.WithFS(ffs))
	if err == nil || r != nil {
		t.Fatalf("Open with an unstatable snapshot = (%v, %v), want no engine and an error", r, err)
	}
	if got := segmentNames(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatalf("a refused Open changed the log: segments %v, were %v", got, before)
	}

	// The stat error was the only obstacle: the same directory opens.
	r = openFaultEngine(t, dir, wal.Options{})
	if got := faultState(t, r); got != want {
		t.Fatalf("reopened state differs\n got: %s\nwant: %s", got, want)
	}
}

// TestOpenCheckpointFailuresDegrade: Checkpoint counts consecutive failures
// in CheckpointStatus, degrades the engine at the threshold core uses for
// the log, and a later success resets the count and clears degraded mode.
func TestOpenCheckpointFailuresDegrade(t *testing.T) {
	ffs := vfs.NewFault(vfs.Default)
	e := openFaultEngine(t, t.TempDir(), wal.Options{}, core.WithFS(ffs))
	if err := e.RegisterStream("Bid", faultBidSchema()); err != nil {
		t.Fatal(err)
	}
	if st := e.CheckpointStatus(); st.At.IsZero() || st.Bytes <= 0 || st.Failures != 0 {
		t.Fatalf("after the first boot's snapshot: %+v", st)
	}

	ffs.AddFault(vfs.Fault{Op: vfs.OpCreate, Path: "checkpoint.ckpt", Err: vfs.ErrNoSpace})
	for i := 1; i <= core.DegradeAfter; i++ {
		if _, _, err := e.Checkpoint(); err == nil {
			t.Fatalf("checkpoint %d succeeded under a create fault", i)
		}
		st := e.CheckpointStatus()
		if st.Failures != i || !errors.Is(st.Err, vfs.ErrNoSpace) {
			t.Fatalf("after %d failures: %+v", i, st)
		}
		if degraded := e.Degraded() != nil; degraded != (i == core.DegradeAfter) {
			t.Fatalf("after %d of %d failed checkpoints degraded = %v", i, core.DegradeAfter, degraded)
		}
	}
	if err := e.AppendLog("Bid", faultBatch(0)); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("ingest while degraded = %v, want ErrDegraded", err)
	}

	ffs.ClearFaults()
	if _, _, err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the fault cleared: %v", err)
	}
	if st := e.CheckpointStatus(); st.Failures != 0 || st.Err != nil {
		t.Fatalf("a success must reset the failures: %+v", st)
	}
	if err := e.Degraded(); err != nil {
		t.Fatalf("a successful checkpoint must clear degraded mode: %v", err)
	}
	if err := e.AppendLog("Bid", faultBatch(0)); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
}

// TestEmptyAppendLogCommitsNothing: an empty batch is checked like any
// other but takes no log record, no fsync, no sequence number and no
// fan-out.
func TestEmptyAppendLogCommitsNothing(t *testing.T) {
	ffs := vfs.NewFault(vfs.Default)
	e := openFaultEngine(t, t.TempDir(), wal.Options{Mode: wal.SyncAlways}, core.WithFS(ffs))
	if err := e.RegisterStream("Bid", faultBidSchema()); err != nil {
		t.Fatal(err)
	}
	sub, err := e.SubscribeStream(faultStateQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	seq, ops := e.WALSeq(), ffs.Ops()
	for i := 0; i < 5; i++ {
		if err := e.AppendLog("Bid", nil); err != nil {
			t.Fatalf("empty batch %d: %v", i, err)
		}
		if err := e.AppendLog("Bid", tvr.Changelog{}); err != nil {
			t.Fatalf("empty batch %d: %v", i, err)
		}
	}
	if got := e.WALSeq(); got != seq {
		t.Fatalf("empty batches moved the log from seq %d to %d", seq, got)
	}
	if got := ffs.Ops(); got != ops {
		t.Fatalf("empty batches did %d file-system operations", got-ops)
	}
	expectNoDelta(t, sub)

	if err := e.AppendLog("Nope", nil); err == nil {
		t.Fatal("an empty batch to an unregistered relation was accepted")
	}
	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, Err: errors.New("EIO: injected")})
	if err := e.AppendLog("Bid", faultBatch(0)); err == nil {
		t.Fatal("ingest with a failing fsync was accepted")
	}
	if err := e.AppendLog("Bid", nil); !errors.Is(err, core.ErrDegraded) {
		t.Fatalf("empty batch while degraded = %v, want ErrDegraded", err)
	}
}

// TestOpenCheckpointDuringCommits: checkpoints taken while another
// goroutine commits lose nothing. Commits land between a snapshot and its
// truncation, and the truncation must stop at the snapshot's own sequence
// number: with one record per segment, an overshoot removes a record the
// snapshot does not hold, and recovery after the last checkpoint (commits
// continue past it) then fails or comes back short.
func TestOpenCheckpointDuringCommits(t *testing.T) {
	dir := t.TempDir()
	e := openFaultEngine(t, dir, wal.Options{SegmentBytes: 1})
	if err := e.RegisterStream("Bid", faultBidSchema()); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := e.AppendLog("Bid", faultBatch(i)); err != nil {
				done <- err
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want := faultState(t, e)

	r := openFaultEngine(t, dir, wal.Options{SegmentBytes: 1})
	if got := faultState(t, r); got != want {
		t.Fatalf("recovered state differs from the acknowledged one\n got: %s\nwant: %s", got, want)
	}
}
