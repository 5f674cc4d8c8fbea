package core

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/wal"
)

// The data directory's layout (see doc.go).
const (
	checkpointName = "checkpoint.ckpt"
	walDirName     = "wal"
)

// Recovery is what Open found: whether a snapshot was restored (false is a
// first boot) and the log tail it replayed.
type Recovery struct {
	Restored bool
	Replay   wal.ReplayInfo
}

// Open opens the durable engine kept in dir, as doc.go's "The data
// directory" describes. walOpts chooses the log's sync policy and segment
// size; its FS and Obs are the engine's (WithFS, WithObs). Close closes the
// log. On error no engine is returned.
func Open(dir string, walOpts wal.Options, opts ...Option) (*Engine, Recovery, error) {
	e := NewEngine(opts...)
	rec, err := e.open(dir, walOpts)
	if err != nil {
		e.Close()
		return nil, Recovery{}, err
	}
	return e, rec, nil
}

func (e *Engine) open(dir string, walOpts wal.Options) (Recovery, error) {
	var rec Recovery
	if err := e.fs.MkdirAll(dir, 0o755); err != nil {
		return rec, err
	}
	// Snapshots a crash interrupted are temp files the atomic swap never
	// renamed; none is ever the live snapshot.
	ents, err := e.fs.ReadDir(dir)
	if err != nil {
		return rec, err
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), checkpointName+".tmp") {
			if err := e.fs.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return rec, fmt.Errorf("core: sweeping interrupted snapshot: %w", err)
			}
		}
	}
	path := filepath.Join(dir, checkpointName)
	switch _, err := e.fs.Stat(path); {
	case err == nil:
		if err := checkpoint.ReadFileFS(e.fs, path, e.loadAll); err != nil {
			return rec, fmt.Errorf("core: restoring %s: %w", path, err)
		}
		rec.Restored = true
	case !errors.Is(err, fs.ErrNotExist):
		return rec, fmt.Errorf("core: checking %s: %w", path, err)
	}
	walDir := filepath.Join(dir, walDirName)
	if rec.Replay, err = wal.ReplayFS(e.fs, walDir, e.replayWALRecord); err != nil {
		return rec, fmt.Errorf("core: replaying %s: %w", walDir, err)
	}
	walOpts.FS, walOpts.Obs = e.fs, e.obsReg
	w, err := wal.Open(walDir, e.WALSeq()+1, walOpts)
	if err != nil {
		return rec, fmt.Errorf("core: opening %s: %w", walDir, err)
	}
	if err := e.AttachWAL(w); err != nil {
		w.Close()
		return rec, err
	}
	e.ckptPath = path
	if !rec.Restored {
		if _, _, err := e.Checkpoint(); err != nil {
			return rec, fmt.Errorf("core: initial checkpoint: %w", err)
		}
	}
	return rec, nil
}

// CheckpointStatus is the data directory's compaction state: the snapshot
// file ("" for an engine NewEngine built, which cannot checkpoint), this
// process's last successful checkpoint (At is zero before the first), the
// consecutive failures since, and the last failure or, after a success,
// the log truncation's failure.
type CheckpointStatus struct {
	Path     string
	At       time.Time
	Bytes    int64
	Failures int
	Err      error
}

// CheckpointStatus reports the data directory's compaction state.
func (e *Engine) CheckpointStatus() CheckpointStatus {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := e.ckpt
	st.Path = e.ckptPath
	return st
}

// Checkpoint compacts the data directory (doc.go, "Truncation as
// compaction"), returning the snapshot's size and the log sequence number
// it covers through, and keeps the failure count degraded mode reads. Safe
// beside serving traffic: the snapshot runs under the live manager's
// ordering lock, and checkpoints are serialized.
func (e *Engine) Checkpoint() (int64, uint64, error) {
	return e.Before(time.Time{}).Checkpoint()
}

// Checkpoint is Engine.Checkpoint under the deadline, checked first under
// the lock that serializes checkpoints. A refused checkpoint writes nothing
// and is not a failure: it leaves CheckpointStatus and degraded mode alone.
func (c Commits) Checkpoint() (int64, uint64, error) {
	e := c.e
	if e.ckptPath == "" {
		return 0, 0, errors.New("core: checkpointing needs an engine opened on a data directory")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if err := c.checkDeadline(); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	var seq uint64
	n, err := checkpoint.WriteFileAtomicFS(e.fs, e.ckptPath, func(enc *checkpoint.Encoder) error {
		return e.saveAll(enc, &seq)
	})
	e.metrics.noteCheckpoint(n, time.Since(t0), err)
	if err != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.ckpt.Failures++
		e.ckpt.Err = err
		if e.ckpt.Failures >= degradeAfter {
			// A disk refusing snapshots will soon refuse appends, and every
			// failure lengthens the tail a restart replays.
			e.degradeLocked(fmt.Errorf("%d consecutive checkpoint failures, last: %w", e.ckpt.Failures, err))
		}
		return 0, 0, err
	}
	truncErr := e.wal.TruncateThrough(seq)
	e.mu.Lock()
	e.ckpt = CheckpointStatus{At: time.Now(), Bytes: n, Err: truncErr}
	degraded := e.degraded != nil
	e.mu.Unlock()
	// A snapshot on disk is evidence the disk is back; ClearDegraded
	// proves the log with a durable probe before ingest reopens.
	if degraded && e.ClearDegraded() == nil {
		slog.Info("degraded mode cleared after successful checkpoint")
	}
	return n, seq, nil
}
