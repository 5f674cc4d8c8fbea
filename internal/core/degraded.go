package core

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
)

// ErrDegraded is the sentinel every refused ingest wraps while the engine
// is in degraded read-only mode (see doc.go). Callers route it with
// errors.Is (serve maps it to 503 + Retry-After).
var ErrDegraded = errors.New("core: engine is in degraded read-only mode")

// degradeAfter is how many consecutive failed log appends, or consecutive
// failed checkpoints, flip the engine into degraded mode. A poisoned log
// (fsync-gate) degrades on the first failure regardless.
const degradeAfter = 3

// Degraded reports the engine's degraded state: nil when healthy,
// otherwise an error wrapping ErrDegraded with the original cause.
func (e *Engine) Degraded() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.degradedLocked()
}

func (e *Engine) degradedLocked() error {
	if e.degraded == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrDegraded, e.degraded)
}

// degradeLocked enters degraded mode with the given cause, keeping the
// first cause if the engine is already degraded. Called with e.mu held.
func (e *Engine) degradeLocked(cause error) {
	if e.degraded == nil {
		e.degraded = cause
		e.metrics.noteDegraded(true)
	}
}

// ClearDegraded attempts to leave degraded mode. It first recovers the log
// (wal.Writer.Recover: abandon the poisoned segment honoring the
// fsync-gate), then proves the log is genuinely writable again by appending
// and syncing a durable no-op probe record through the normal commit path.
// Only a successful probe reopens ingest; on any failure the engine stays
// degraded with the new cause. Returns nil when the engine is healthy
// afterwards.
func (e *Engine) ClearDegraded() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.degraded == nil {
		return nil
	}
	// Only a log failure or a failed checkpoint degrades, and a checkpoint
	// needs Open's log: a degraded engine has a log.
	if err := e.wal.Recover(); err != nil {
		e.degraded = fmt.Errorf("log recovery failed: %w", err)
		return e.degradedLocked()
	}
	err := e.walAppendLocked(func(enc *checkpoint.Encoder) error {
		enc.String(walRecNoop)
		return enc.Err()
	})
	if err == nil {
		// Make the probe itself durable even under a lax sync policy —
		// "the disk took a write" is not "the disk is back".
		err = e.wal.Sync()
	}
	if err != nil {
		e.degraded = fmt.Errorf("recovery probe append failed: %w", err)
		return e.degradedLocked()
	}
	e.degraded = nil
	e.walFails = 0
	e.metrics.noteDegraded(false)
	return nil
}

// noteWALResultLocked is the degraded-mode tripwire, called with e.mu held
// after every commit-log append. Failures count; degradeAfter
// consecutive ones (or a single one that leaves the log poisoned — it will
// never succeed again on its own) flip the engine into degraded mode. Any
// success resets the count.
func (e *Engine) noteWALResultLocked(err error) {
	if err == nil {
		e.walFails = 0
		return
	}
	e.walFails++
	e.metrics.noteWALFailure()
	if e.wal.Sick() != nil || e.walFails >= degradeAfter {
		e.degradeLocked(err)
	}
}
