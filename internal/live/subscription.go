package live

import "repro/internal/types"

// Subscription is the consumer-facing handle of a standing query: one
// cursor on a (possibly shared) resident session. Deltas arrive on the
// channel at the consumer's pace, one per delivery, however far the engine
// has run ahead: a subscriber that stops reading stalls no commit and no
// peer. The channel closes when the subscription ends (Cancel, Close, or a
// pipeline error, after the deltas appended before it), after which Err
// explains why — nil means a graceful Close.
type Subscription struct {
	c *cursor
}

// Deltas is the delivery channel. It closes when the subscription
// terminates for any reason.
func (b *Subscription) Deltas() <-chan Delta { return b.c.deltas }

// Err returns the terminal error: ErrClosed after Cancel, a pipeline error
// if execution failed, or nil while live and after a graceful Close. It
// takes no locks.
func (b *Subscription) Err() error { return b.c.loadErr() }

// Stats snapshots the subscription's counters (and the shared pipeline's:
// see Stats.PipelineID / Stats.Subscribers for plan-sharing observability).
func (b *Subscription) Stats() Stats { return b.c.stats() }

// Schema describes the delta rows' columns.
func (b *Subscription) Schema() *types.Schema { return b.c.s.cfg.Schema }

// Cancel terminates the subscription immediately, abandoning every delta
// not yet received. Safe to call any number of times and concurrently with
// ingestion. Peers sharing the resident pipeline are unaffected; the
// pipeline itself tears down only when its last subscriber departs.
func (b *Subscription) Cancel() { b.c.cancel() }

// Close gracefully finishes the subscription and returns, as one final
// delta, every delivery the consumer had not yet received (nil if there was
// none). While other subscribers share the resident pipeline, Close merely
// detaches this cursor; the last subscriber's Close also completes the
// standing query — ingestion stops, the pipeline input finishes (bounded
// relations close, pending EMIT timers flush) — and the emissions those
// completions produce follow the unread deliveries in the final delta, so
// what the channel delivered and the final delta together are gapless. The
// channel is closed when Close returns.
func (b *Subscription) Close() (*Delta, error) { return b.c.closeGraceful() }
