package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/types"
)

// This file is the engine's standing-query surface. A subscription parses
// and plans its SQL, then either attaches to an already-resident pipeline
// for the same plan — subscriptions are keyed by (normalized SQL, mode), so
// N identical subscribers share one compiled pipeline with per-subscriber
// delivery cursors — or compiles the pipeline once and registers it. A fresh pipeline replays the recorded history of
// the scanned relations and is caught up to the engine's processing-time
// clock; a late-attaching cursor instead receives a snapshot hand-off
// synthesized from the pipeline's retained output. Either way, every
// AppendLog that touches a scanned relation is then
// routed to the pipeline incrementally. Because the exec lifecycle makes
// incremental feeding byte-identical to replay, the delta sequence each
// subscriber observes equals what a post-hoc QueryStream over the final
// changelog would return — shared or not.

// SubscribeOptions configures a standing query.
type SubscribeOptions struct {
	// Buffer is the delta channel capacity (default 64).
	Buffer int
	// Policy is the slow-consumer policy (live.Block or
	// live.DropWithError).
	Policy live.Policy
	// Exclusive opts out of plan sharing: the subscription always gets a
	// dedicated resident pipeline, even when an identical one is already
	// serving other subscribers. The delta sequence is identical either
	// way; Exclusive trades the shared pipeline's amortized cost for
	// isolation (a benchmark A/B, or decoupling from a peer's Block-policy
	// backpressure).
	Exclusive bool
	// MaxRetainedRows bounds the shared session's late-attach retention
	// (the Stream-mode output changelog / Table-mode distinct-row
	// accumulator). 0 means unbounded. When the retained output outgrows
	// the cap it is released — memory stays bounded — and later attaches to
	// that session fail with live.ErrRetainedOverflow instead of receiving
	// an incomplete snapshot; existing subscribers are unaffected. The cap
	// is fixed by the subscription that creates the resident pipeline
	// (later sharers inherit it).
	MaxRetainedRows int
}

// SubscribeStream opens a standing query delivering the stream rendering:
// each delta carries new tvr.StreamRows with undo/ptime/ver metadata, the
// paper's EMIT STREAM output, pushed as it materializes.
func (e *Engine) SubscribeStream(sql string, opts SubscribeOptions) (*live.Subscription, error) {
	return e.subscribe(sql, live.Stream, opts)
}

// SubscribeTable opens a standing query delivering consolidated snapshot
// diffs: the net row changes to the table rendering since the previous
// delivery.
func (e *Engine) SubscribeTable(sql string, opts SubscribeOptions) (*live.Subscription, error) {
	return e.subscribe(sql, live.Table, opts)
}

func (e *Engine) subscribe(sql string, mode live.Mode, opts SubscribeOptions) (*live.Subscription, error) {
	pq, err := e.plan(sql)
	if err != nil {
		return nil, err
	}
	// ORDER BY / LIMIT are presentation of a complete snapshot; an
	// incremental diff stream has no way to honor them (that would need
	// top-K maintenance), so reject rather than silently diverge from
	// QueryTable. The stream rendering ignores them exactly as
	// QueryStream does.
	if mode == live.Table && (len(pq.OrderBy) > 0 || pq.Limit != nil) {
		return nil, fmt.Errorf("core: ORDER BY/LIMIT are not supported by table subscriptions (diffs cannot maintain presentation order)")
	}
	key := ""
	if !opts.Exclusive {
		key = planKey(sql, mode)
	}
	names := scanNames(pq.Root)
	create := func() (*live.Session, error) {
		p, err := exec.Compile(pq)
		if err != nil {
			return nil, err
		}
		return live.NewSession(p, live.Config{
			Name:            sql,
			Mode:            mode,
			Schema:          pq.Root.Schema(),
			EmitKeys:        pq.EmitKeyIdxs,
			Sources:         names,
			MaxRetainedRows: opts.MaxRetainedRows,
		})
	}
	// Attach to the resident pipeline for this plan, or compile one and
	// replay recorded history into it. The manager runs both under its
	// ordering lock, so no concurrently committed change can fall between
	// the snapshot (history replay or late-attach hand-off) and live
	// routing; on any failure it cancels the session.
	return e.live.Subscribe(key, live.CursorOpts{Buffer: opts.Buffer, Policy: opts.Policy}, create,
		func() ([]exec.Source, error) { return e.sourcesByName(names) })
}

// planKey identifies a shareable standing-query plan: same normalized SQL
// text, same delta rendering. Whitespace runs are collapsed so trivially
// reformatted SQL still shares; anything beyond that (case, literal
// spelling) conservatively keys a separate pipeline. Snapshots store each
// session under this key and restore registers it verbatim, so the bytes
// must not change: the trailing "1" is a field earlier keys used for the
// partition count, and every serial session wrote it.
func planKey(sql string, mode live.Mode) string {
	return normalizeSQL(sql) + "\x00" + mode.String() + "\x001"
}

// normalizeSQL collapses whitespace runs outside quoted regions into one
// space and trims the ends. Whitespace inside a single-quoted string
// literal or a double-quoted identifier is significant to the lexer ('a b'
// and 'a  b' are different literals, "a b" and "a  b" different relations),
// so quoted bytes pass through verbatim. The ” literal escape reads as
// close-then-reopen, which preserves bytes just the same; quoted
// identifiers have no escape (the next '"' closes them).
func normalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	var quote byte // the delimiter of the quoted region we are inside, or 0
	pendingSpace := false
	for i := 0; i < len(sql); i++ {
		ch := sql[i]
		if quote != 0 {
			b.WriteByte(ch)
			if ch == quote {
				quote = 0
			}
			continue
		}
		switch ch {
		case ' ', '\t', '\n', '\r':
			pendingSpace = true
			continue
		case '\'', '"':
			quote = ch
		}
		if pendingSpace && b.Len() > 0 {
			b.WriteByte(' ')
		}
		pendingSpace = false
		b.WriteByte(ch)
	}
	return b.String()
}

// Heartbeat advances the processing-time clock of every standing query to
// pt, firing due EMIT AFTER DELAY timers. The clock is recorded: a
// subscription opened afterwards starts from it instead of MinTime, so its
// pending timers fire exactly as an earlier subscriber's did. The catalog
// is unchanged; one-shot queries are unaffected. With a write-ahead log
// attached the heartbeat is logged (under the same ordering lock, before
// any session sees it) — timers it fires must refire identically on
// replay — and a log failure suppresses the broadcast.
func (e *Engine) Heartbeat(pt types.Time) error {
	span := e.tracer.Begin("(heartbeat)", 0)
	err := e.live.AdvanceWithSpan(pt, func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.degradedLocked(); err != nil {
			return err
		}
		tWAL := time.Time{}
		if span != nil {
			tWAL = time.Now()
		}
		err := e.walAppendLocked(func(enc *checkpoint.Encoder) error {
			enc.String(walRecHeartbeat)
			enc.Time(pt)
			return enc.Err()
		})
		if err == nil {
			span.AddSince(obs.SpanWAL, tWAL)
		}
		return err
	}, span)
	if err == nil {
		e.metrics.noteHeartbeat()
	}
	return err
}

// LiveSessions reports the number of resident standing-query pipelines.
// Subscriptions sharing a plan count once; see LiveSubscribers for the
// attached-consumer count.
func (e *Engine) LiveSessions() int {
	return e.live.Len()
}

// LiveSubscribers reports the number of attached subscriber cursors across
// all resident pipelines.
func (e *Engine) LiveSubscribers() int {
	return e.live.Subscribers()
}

// ShardStats snapshots the sharded fan-out's per-shard queue depth and lag,
// or nil when the engine runs the serial fan-out (see WithShards). Lock-free,
// so health probes stay responsive while a shard is stalled on a Block-policy
// subscriber.
func (e *Engine) ShardStats() []shard.Stat {
	return e.live.ShardStats()
}
