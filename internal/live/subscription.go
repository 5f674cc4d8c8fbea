package live

import "repro/internal/types"

// Subscription is the consumer-facing handle of a standing query: one
// cursor on a (possibly shared) resident session. Deltas arrive on the
// channel as the engine ingests matching changes; the channel closes when
// the subscription ends (Cancel, Close, a slow-consumer drop, or a pipeline
// error), after which Err explains why — nil means a graceful Close.
type Subscription struct {
	c *cursor
}

// Deltas is the bounded delivery channel. It closes when the subscription
// terminates for any reason.
func (b *Subscription) Deltas() <-chan Delta { return b.c.deltas }

// Err returns the terminal error: ErrSlowConsumer after a drop, ErrClosed
// after Cancel, a pipeline error if execution failed, or nil while live and
// after a graceful Close. It takes no locks, so it stays responsive while a
// delivery is blocked on the channel.
func (b *Subscription) Err() error { return b.c.loadErr() }

// Stats snapshots the subscription's counters (and the shared pipeline's:
// see Stats.PipelineID / Stats.Subscribers for plan-sharing observability).
func (b *Subscription) Stats() Stats { return b.c.stats() }

// Schema describes the delta rows' columns.
func (b *Subscription) Schema() *types.Schema { return b.c.s.cfg.Schema }

// Cancel terminates the subscription immediately, abandoning any
// undelivered output. Safe to call any number of times and concurrently
// with ingestion; a producer blocked on this subscriber's full channel is
// released. Peers sharing the resident pipeline are unaffected; the
// pipeline itself tears down only when its last subscriber departs.
func (b *Subscription) Cancel() { b.c.cancel() }

// Close gracefully finishes the subscription. While other subscribers share
// the resident pipeline, Close merely detaches this cursor (returning a
// delivery the close interrupted, if any); the last subscriber's Close
// completes the standing query — ingestion stops, the pipeline input
// finishes (bounded relations close, pending EMIT timers flush), and the
// emissions those completions produce are returned as the final delta (nil
// if there were none). The delta channel closes; drain it before or after
// Close to observe earlier deliveries.
func (b *Subscription) Close() (*Delta, error) { return b.c.closeGraceful() }
