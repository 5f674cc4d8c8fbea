package core

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
)

// Degraded read-only mode: the engine's defined behavior when the
// durability layer is failing. Accepting an ingest means promising "this
// commit survives a crash"; when the WAL cannot make that promise (a
// poisoned segment, persistent ENOSPC) or checkpoints repeatedly fail, the
// engine refuses new commits with ErrDegraded instead of silently serving
// acks it cannot honor. Reads are unaffected: one-shot queries and
// existing standing-query subscriptions keep serving from the in-memory
// catalog, which is exactly as consistent as it was at the last successful
// commit. Recovery is explicit — ClearDegraded proves the log is writable
// again with a durable no-op probe before ingest reopens.

// ErrDegraded is the sentinel every refused ingest wraps while the engine
// is in degraded read-only mode. Callers route it with errors.Is (serve
// maps it to 503 + Retry-After).
var ErrDegraded = errors.New("core: engine is in degraded read-only mode")

// degradeAfter is how many consecutive commit-log failures flip the engine
// into degraded mode. A poisoned log (fsync-gate) degrades on the first
// failure regardless.
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

// EnterDegraded flips the engine into degraded read-only mode with the
// given cause. The engine does this itself on repeated WAL failures; the
// serving layer calls it when checkpoints fail persistently (a full disk
// that lets WAL appends through today will not for long, and an unbounded
// WAL tail makes recovery unboundedly slow).
func (e *Engine) EnterDegraded(cause error) {
	if cause == nil {
		cause = errors.New("unspecified cause")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.degraded == nil {
		e.degraded = cause
		e.metrics.noteDegraded(true)
	}
}

// ClearDegraded attempts to leave degraded mode. It first repairs the
// commit log if the log supports in-place recovery (wal.Writer.Recover:
// abandon the poisoned segment honoring the fsync-gate), then proves the
// log is genuinely writable again by appending and syncing a durable no-op
// probe record through the normal commit path. Only a successful probe
// reopens ingest; on any failure the engine stays degraded with the new
// cause. Returns nil when the engine is healthy afterwards.
func (e *Engine) ClearDegraded() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.degraded == nil {
		return nil
	}
	if r, ok := e.wal.(interface{ Recover() error }); ok {
		if err := r.Recover(); err != nil {
			e.degraded = fmt.Errorf("log recovery failed: %w", err)
			return e.degradedLocked()
		}
	}
	err := e.walAppendLocked(func(enc *checkpoint.Encoder) error {
		enc.String(walRecNoop)
		return enc.Err()
	})
	if err == nil {
		// Make the probe itself durable even under a lax sync policy —
		// "the disk took a write" is not "the disk is back".
		if s, ok := e.wal.(interface{ Sync() error }); ok {
			err = s.Sync()
		}
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
	poisoned := false
	if s, ok := e.wal.(interface{ Sick() error }); ok && s.Sick() != nil {
		poisoned = true
	}
	if e.degraded == nil && (poisoned || e.walFails >= degradeAfter) {
		e.degraded = err
		e.metrics.noteDegraded(true)
	}
}
