package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/types"
)

// This file is the engine's standing-query surface. A subscription parses
// and plans its SQL, then either attaches to the resident pipeline already
// computing the same time-varying relation — sessions are keyed by the
// optimized plan (planKey), so any number of subscribers, stream or table
// readers and any spelling of the query, share one compiled pipeline with
// per-subscriber delivery cursors — or compiles the pipeline once and
// registers it. A fresh pipeline replays the recorded history of the scanned
// relations and is caught up to the engine's processing-time clock; a
// late-attaching cursor instead receives a snapshot hand-off synthesized from
// the pipeline's retained output. Either way, every AppendLog that touches a
// scanned relation is then routed to the pipeline incrementally. The exec
// lifecycle makes incremental feeding byte-identical to replay when commits
// reach the pipeline in (ptime, scan order) across the relations it scans;
// then the delta sequence each subscriber observes equals what a post-hoc
// QueryStream over the final changelog would return, whenever it attached. A
// resident pipeline also answers QueryTable and QueryStreamAt at any instant
// from a prefix of its retained output (see residentRead and the read
// contract in package live).

// SubscribeOptions configures a standing query. Delivery has no options: a
// subscription's deltas wait in the shared session's retained output until
// its consumer reads them, so a slow consumer stalls neither commits nor
// other subscribers.
type SubscribeOptions struct {
	// MaxRetainedRows caps the shared session's retained output, counted
	// in changelog rows. 0 means unbounded. The cap is fixed by the
	// subscription that creates the resident pipeline (later sharers
	// inherit it). Past it the session serves no late attach and no
	// resident read, and keeps only the rows some subscriber has not yet
	// read; existing subscribers are unaffected. A later subscription of
	// the plan then gets a successor pipeline, built under its own options
	// like a first subscriber's, which replays the recorded history; it
	// fails with live.ErrRetainedOverflow only when its own cap cannot hold
	// that history's output.
	//
	// The trade of one pipeline per relation: a session that only table
	// readers use retains its changelog too, not one entry per distinct
	// row, so the cap counts changelog rows for every session.
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
	q := e.standing(sql, pq)
	q.Config.MaxRetainedRows = opts.MaxRetainedRows
	// Attach to the resident pipeline for this plan, or compile one (a
	// first pipeline, or the successor of one that closed or overflowed)
	// and replay recorded history into it. The manager runs both under its
	// ordering lock, so no concurrently committed change can fall between
	// the snapshot (history replay or late-attach hand-off) and live
	// routing; on any failure it cancels the session.
	return e.live.Subscribe(q.Key, live.CursorOpts{Mode: mode}, q.Create, q.History)
}

// standing describes the planned query to the live manager: its plan key,
// session config, and how to build its driver fresh or from a checkpoint.
func (e *Engine) standing(sql string, pq *plan.PlannedQuery) live.Query {
	names := scanNames(pq.Root)
	return live.Query{
		Key: planKey(pq),
		Config: live.Config{
			Name:     sql,
			Schema:   pq.Root.Schema(),
			EmitKeys: pq.EmitKeyIdxs,
			Sources:  names,
		},
		Compile: func() (exec.Driver, error) { return exec.Compile(pq) },
		History: func() ([]exec.Source, error) { return e.sourcesByName(names) },
		Load:    func(dec *checkpoint.Decoder) (exec.Driver, error) { return exec.LoadDriver(dec, pq) },
	}
}

// planKey names the time-varying relation a standing query computes: the
// optimized plan as EXPLAIN renders it, the output schema, and the
// materialization control the pipeline applies (EMIT AFTER WATERMARK, the
// AFTER DELAY duration, the emit-key columns). Texts that differ only in
// spelling — whitespace, keyword case, table aliases — plan alike and share
// one pipeline; EMIT STREAM, ORDER BY and LIMIT are left out because they
// choose how a reader renders the relation, not which relation it is.
func planKey(pq *plan.PlannedQuery) string {
	var b strings.Builder
	b.WriteString(plan.Format(pq.Root))
	for _, c := range pq.Root.Schema().Cols {
		fmt.Fprintf(&b, "%q %s event=%t offset=%s windowed=%t\n", c.Name, c.Kind, c.EventTime, c.WmOffset, c.Windowed)
	}
	fmt.Fprintf(&b, "emit wm=%t", pq.Emit.AfterWatermark)
	if pq.Emit.Delay != nil {
		fmt.Fprintf(&b, " delay=%s", *pq.Emit.Delay)
	}
	fmt.Fprintf(&b, " keys=%v", pq.EmitKeyIdxs)
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
	return e.Before(time.Time{}).Heartbeat(pt)
}

// Heartbeat is Engine.Heartbeat under the deadline, checked first under the
// ordering lock.
func (c Commits) Heartbeat(pt types.Time) error {
	e := c.e
	span := e.tracer.Begin("(heartbeat)", 0)
	err := e.live.AdvanceWithSpan(pt, func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := c.checkDeadline(); err != nil {
			return err
		}
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
