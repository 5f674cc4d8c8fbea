package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Engine is a catalog of registered relations and the query interface over
// them. It is safe for concurrent use.
//
// Besides the one-shot query paths, the engine hosts standing queries: a
// subscription compiles and plans its SQL once, replays the recorded
// history, and from then on receives every ingested change incrementally
// (see SubscribeStream/SubscribeTable). All catalog mutations funnel through
// the live manager's ordering lock so standing queries observe changes in
// commit order.
type Engine struct {
	mu   sync.RWMutex
	rels map[string]*relation
	cfg  plan.Config
	live *live.Manager

	// wal, when attached, receives every committed change before it is
	// applied or fanned out; walSeq is the last committed sequence number
	// (both guarded by mu — see "Commit order" in doc.go).
	wal    *wal.Writer
	walSeq uint64

	// fs is the filesystem the data directory's I/O goes through
	// (vfs.Default unless WithFS overrides it). ckptPath is the snapshot
	// file Open set ("" without a data directory), ckptMu serializes
	// Checkpoint, and ckpt is what CheckpointStatus reports (guarded by mu).
	fs       vfs.FS
	ckptPath string
	ckptMu   sync.Mutex
	ckpt     CheckpointStatus

	// Degraded read-only mode (see degraded.go): degraded holds the cause
	// when ingest is refused, walFails counts consecutive commit-log
	// failures. Both guarded by mu.
	degraded error
	walFails int

	// Observability (see obs.go): all nil/zero without WithObs, costing
	// the hot paths only nil checks. tracer hands out a commit-path span
	// per AppendLog/Heartbeat; slowCommit is its log threshold.
	obsReg     *obs.Registry
	metrics    *engineMetrics
	tracer     *obs.CommitTracer
	slowCommit time.Duration
}

type relation struct {
	meta      plan.Relation
	log       tvr.Changelog
	lastPtime types.Time
	lastWM    types.Time
}

// Option configures an Engine.
type Option func(*Engine)

// WithUnboundedGroupBy disables the Extension 2 validation (used by
// experiments that demonstrate unbounded state growth).
func WithUnboundedGroupBy() Option {
	return func(e *Engine) { e.cfg.AllowUnboundedGroupBy = true }
}

// WithFS routes the data directory's I/O (Open's sweep, stat, restore and
// log replay, the write-ahead log, and every Checkpoint) through fsys
// instead of the real filesystem: the fault-injection seam.
func WithFS(fsys vfs.FS) Option {
	return func(e *Engine) {
		if fsys != nil {
			e.fs = fsys
		}
	}
}

// NewEngine creates an empty engine.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{rels: make(map[string]*relation), fs: vfs.Default,
		slowCommit: obs.DefaultSlowCommit}
	for _, o := range opts {
		o(e)
	}
	if e.obsReg != nil {
		e.metrics = newEngineMetrics(e.obsReg)
		e.tracer = obs.NewCommitTracer(e.obsReg, e.slowCommit)
	}
	e.live = live.NewManagerWith(live.Options{Obs: e.obsReg})
	return e
}

// Close closes the write-ahead log if one is attached. Call after
// publishing has stopped; standing subscriptions are not canceled.
func (e *Engine) Close() {
	if e.wal != nil {
		// Every acknowledged commit is already as durable as the sync
		// policy promised; a failed final sync has no caller to refuse.
		_ = e.wal.Close()
	}
}

// RegisterStream registers an unbounded relation (a stream). Columns marked
// EventTime carry the stream's watermark.
func (e *Engine) RegisterStream(name string, schema *types.Schema) error {
	return e.Before(time.Time{}).RegisterStream(name, schema)
}

// RegisterTable registers a bounded relation (a classic table). At query
// time a table is considered complete: a final watermark is asserted when
// its recorded changelog is exhausted.
func (e *Engine) RegisterTable(name string, schema *types.Schema) error {
	return e.Before(time.Time{}).RegisterTable(name, schema)
}

// RegisterStream is Engine.RegisterStream under the deadline.
func (c Commits) RegisterStream(name string, schema *types.Schema) error {
	if err := checkSchema(name, schema); err != nil {
		return err
	}
	return c.register(name, schema, true)
}

// RegisterTable is Engine.RegisterTable under the deadline.
func (c Commits) RegisterTable(name string, schema *types.Schema) error {
	if err := checkSchema(name, schema); err != nil {
		return err
	}
	return c.register(name, schema, false)
}

// ErrInvalidSchema is wrapped by every registration refused for its schema.
var ErrInvalidSchema = errors.New("core: invalid schema")

// checkSchema refuses what the engine cannot serve: a column without a name,
// two columns whose names differ only in case (names resolve
// case-insensitively, so the second could never be read), and an EventTime
// flag on a column that is not TIMESTAMP (watermarks are timestamps, so such
// a column's groups would never close). It runs before anything is logged.
// Replaying a WAL registration skips it, so a log written before it existed
// still replays.
func checkSchema(name string, schema *types.Schema) error {
	if schema == nil {
		return nil // register refuses it
	}
	seen := make(map[string]bool, schema.Len())
	for i, c := range schema.Cols {
		key := strings.ToLower(c.Name)
		switch {
		case key == "":
			return fmt.Errorf("%w: relation %q: column %d has no name", ErrInvalidSchema, name, i+1)
		case seen[key]:
			return fmt.Errorf("%w: relation %q: column %q repeats a column name", ErrInvalidSchema, name, c.Name)
		case c.EventTime && c.Kind != types.KindTimestamp:
			return fmt.Errorf("%w: relation %q: event-time column %q is %s, not TIMESTAMP", ErrInvalidSchema, name, c.Name, c.Kind)
		}
		seen[key] = true
	}
	return nil
}

// register commits a registration under the catalog lock, the one lock
// that orders it: a registration fans out to no one.
func (c Commits) register(name string, schema *types.Schema, unbounded bool) error {
	if name == "" || schema == nil || schema.Len() == 0 {
		return fmt.Errorf("core: relation needs a name and a non-empty schema")
	}
	e := c.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkDeadline(); err != nil {
		return err
	}
	if err := e.degradedLocked(); err != nil {
		return err
	}
	key := strings.ToLower(name)
	if _, dup := e.rels[key]; dup {
		return fmt.Errorf("core: relation %q already registered", name)
	}
	// Log before mutating: a relation registered after the last snapshot
	// must reappear on replay, or the WAL tail's publishes to it would have
	// nowhere to land.
	err := e.walAppendLocked(func(enc *checkpoint.Encoder) error {
		enc.String(walRecRegister)
		enc.String(name)
		enc.Bool(unbounded)
		saveSchema(enc, schema)
		return enc.Err()
	})
	if err != nil {
		return err
	}
	e.rels[key] = &relation{
		meta:      plan.Relation{Name: name, Schema: schema.Clone(), Unbounded: unbounded},
		lastPtime: types.MinTime,
		lastWM:    types.MinTime,
	}
	return nil
}

// AppendLog appends a pre-built changelog to the relation atomically, in the
// commit order doc.go describes: a mid-log validation error leaves the
// relation untouched rather than half-appended, and an empty log commits
// nothing.
//
// A commit-path span is carried when tracing is enabled: validate and WAL
// stages are timed inside applyLog, sequence by the manager,
// apply/render/deliver inside each session. The span finishes — recording
// histograms and possibly the slow-commit log line — before AppendLog
// returns.
func (e *Engine) AppendLog(name string, log tvr.Changelog) error {
	return e.Before(time.Time{}).AppendLog(name, log)
}

// AppendLog is Engine.AppendLog under the deadline. An empty log commits
// nothing, so it is never refused for its deadline.
func (c Commits) AppendLog(name string, log tvr.Changelog) error {
	e := c.e
	if len(log) == 0 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		_, err := e.relationLocked(name)
		return err
	}
	span := e.tracer.Begin(name, len(log))
	err := e.live.PublishSpan(func() error { return c.applyLog(name, log, span) }, name, log, span)
	if err == nil {
		e.metrics.notePublish(len(log))
	}
	return err
}

// applyLog checks the deadline, validates the whole log against the
// relation's current cursors, write-ahead-logs it, then applies it, all
// under one catalog lock acquisition and inside the manager's ordering lock
// (deadline → validate → WAL → apply, doc.go's commit order).
func (c Commits) applyLog(name string, log tvr.Changelog, span *obs.CommitSpan) error {
	e := c.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := c.checkDeadline(); err != nil {
		return err
	}
	rel, err := e.relationLocked(name)
	if err != nil {
		return err
	}
	tValidate := time.Time{}
	if span != nil {
		tValidate = time.Now()
	}
	lastPtime, lastWM := rel.lastPtime, rel.lastWM
	for _, ev := range log {
		lastPtime, lastWM, err = validateEvent(name, &rel.meta, ev, lastPtime, lastWM)
		if err != nil {
			return err
		}
	}
	span.AddSince(obs.SpanValidate, tValidate)
	tWAL := time.Time{}
	if span != nil {
		tWAL = time.Now()
	}
	err = e.walAppendLocked(func(enc *checkpoint.Encoder) error {
		enc.String(walRecPublish)
		enc.String(rel.meta.Name)
		tvr.SaveChangelog(enc, log)
		return enc.Err()
	})
	if err != nil {
		return err
	}
	span.AddSince(obs.SpanWAL, tWAL)
	rel.lastPtime, rel.lastWM = lastPtime, lastWM
	rel.log = append(rel.log, log...)
	return nil
}

// relationLocked returns the relation a commit appends to, refusing while
// the engine is degraded. Called with e.mu held.
func (e *Engine) relationLocked(name string) (*relation, error) {
	if err := e.degradedLocked(); err != nil {
		return nil, err
	}
	rel, ok := e.rels[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: relation %q not registered", name)
	}
	return rel, nil
}

// validateEvent checks one event against the relation schema and the running
// monotonicity cursors, returning the advanced cursors.
func validateEvent(name string, meta *plan.Relation, ev tvr.Event, lastPtime, lastWM types.Time) (types.Time, types.Time, error) {
	if ev.Ptime < lastPtime {
		return 0, 0, fmt.Errorf("core: %s: ptime %s regresses from %s", name, ev.Ptime, lastPtime)
	}
	switch ev.Kind {
	case tvr.Insert, tvr.Delete:
		if len(ev.Row) != meta.Schema.Len() {
			return 0, 0, fmt.Errorf("core: %s: row has %d columns, schema has %d", name, len(ev.Row), meta.Schema.Len())
		}
		for i, c := range meta.Schema.Cols {
			v := ev.Row[i]
			if !v.IsNull() && v.Kind() != c.Kind {
				if v.Kind().IsNumeric() && c.Kind.IsNumeric() {
					continue
				}
				return 0, 0, fmt.Errorf("core: %s: column %s expects %s, got %s", name, c.Name, c.Kind, v.Kind())
			}
		}
	case tvr.Watermark:
		if ev.Wm < lastWM {
			return 0, 0, fmt.Errorf("core: %s: watermark %s regresses from %s", name, ev.Wm, lastWM)
		}
		lastWM = ev.Wm
	}
	return ev.Ptime, lastWM, nil
}

// Resolve implements plan.Catalog.
func (e *Engine) Resolve(name string) (*plan.Relation, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rel, ok := e.rels[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("core: relation %q not found", name)
	}
	meta := rel.meta
	return &meta, nil
}

// TableResult is the table rendering of a query: the output relation's rows
// at the evaluation time, in presentation order.
type TableResult struct {
	Schema *types.Schema
	Rows   []types.Row
	// Stats are the replaying pipeline's; a read answered from a resident
	// pipeline walks no operator state and leaves them zero.
	Stats exec.Stats
}

// Format renders the result as the paper's bordered listing tables.
func (r *TableResult) Format() string {
	return tvr.FormatRelationTable(r.Schema, r.Rows)
}

// StreamResult is the stream rendering of a query: the changelog with
// undo/ptime/ver metadata (Extension 4).
type StreamResult struct {
	Schema *types.Schema
	Rows   []tvr.StreamRow
	// Stats are zero for a read answered from a resident pipeline, as in
	// TableResult.
	Stats exec.Stats
}

// QueryTable evaluates the query as a classic point-in-time table at
// processing time `at` (only input changes with ptime <= at are visible).
// When a resident pipeline for the same plan holds the answer, the read
// takes the snapshot at at from that pipeline's fold of its retained output
// (see residentRead); otherwise the recorded history is replayed.
func (e *Engine) QueryTable(sql string, at types.Time) (*TableResult, error) {
	r, err := e.run(sql, at, live.Table)
	if err != nil {
		return nil, err
	}
	return &TableResult{Schema: r.schema, Rows: r.Table, Stats: r.stats}, nil
}

// QueryStream evaluates the query over the full recorded input and returns
// the stream rendering of its output TVR.
func (e *Engine) QueryStream(sql string) (*StreamResult, error) {
	return e.QueryStreamAt(sql, types.MaxTime)
}

// QueryStreamAt evaluates the stream rendering with input truncated at the
// given processing time. Like QueryTable, it renders the ptime <= at prefix
// of a resident pipeline's retained output when one holds the answer, with
// versions counted from 1 as a replay counts them, and replays otherwise.
func (e *Engine) QueryStreamAt(sql string, at types.Time) (*StreamResult, error) {
	r, err := e.run(sql, at, live.Stream)
	if err != nil {
		return nil, err
	}
	return &StreamResult{Schema: r.schema, Rows: r.Stream, Stats: r.stats}, nil
}

// Explain returns the optimized logical plan of the query.
func (e *Engine) Explain(sql string) (string, error) {
	pq, err := e.plan(sql)
	if err != nil {
		return "", err
	}
	return plan.Format(pq.Root), nil
}

func (e *Engine) plan(sql string) (*plan.PlannedQuery, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	pq, err := plan.New(e, e.cfg).Plan(q)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(pq), nil
}

// reading is a one-shot read's answer in the rendering its caller asked for
// (a table read's rows with presentation applied).
type reading struct {
	live.Reading
	schema *types.Schema
	stats  exec.Stats
}

// run plans the query and evaluates it at at, in the rendering mode names:
// from a resident pipeline's retained output when one qualifies, otherwise
// by replaying the recorded changelogs of the relations it scans through a
// freshly compiled pipeline. Query latency feeds the engine_queries_*
// families.
func (e *Engine) run(sql string, at types.Time, mode live.Mode) (*reading, error) {
	if e.metrics == nil {
		return e.runInner(sql, at, mode)
	}
	t0 := time.Now()
	r, err := e.runInner(sql, at, mode)
	e.metrics.noteQuery(time.Since(t0), err)
	return r, err
}

func (e *Engine) runInner(sql string, at types.Time, mode live.Mode) (*reading, error) {
	pq, err := e.plan(sql)
	if err != nil {
		return nil, err
	}
	r := &reading{schema: pq.Root.Schema()}
	replay, err := e.residentRead(pq, at, mode, r)
	if replay == "" {
		return r, err
	}
	e.metrics.noteReplay(replay)
	sources, err := e.sources(pq.Root)
	if err != nil {
		return nil, err
	}
	pipe, err := exec.Compile(pq)
	if err != nil {
		return nil, err
	}
	res, err := pipe.Run(sources, at)
	if err != nil {
		return nil, err
	}
	if mode == live.Table {
		r.Table = res.TableRows()
	} else {
		r.Stream = res.StreamRows()
	}
	r.stats = pipe.Stats()
	return r, nil
}

// replayNotInert is the replay reason of a plan that emits at Close.
const replayNotInert = "not_inert"

// residentRead answers a read at processing time at into r from the session
// resident under the query's plan key, whatever its readers' modes: from the
// cut of its retained output at at (live.Manager.ResidentRead). A table read
// takes the snapshot from the session's fold and presents it with the read's
// own ORDER BY and LIMIT; a stream read is the cut at its retained versions.
// Why that cut is what a replay up to at collects is the read contract in
// package live. Unless the plan is close-inert and the session qualifies,
// replay names why the caller must replay. The read takes no ordering lock:
// the fan-out appends a commit's output before the commit is acknowledged,
// so the retained output reflects every commit acknowledged before the read
// began.
func (e *Engine) residentRead(pq *plan.PlannedQuery, at types.Time, mode live.Mode, r *reading) (replay string, err error) {
	if !closeInert(pq) {
		return replayNotInert, nil
	}
	res, replay, err := e.live.ResidentRead(planKey(pq), at, mode)
	if replay != "" {
		return replay, nil
	}
	e.metrics.noteResident(res.Folded)
	r.Reading = res
	r.Table = exec.PresentRows(r.Table, pq.OrderBy, pq.Limit)
	return "", err
}

// closeInert reports whether the heartbeat and Close a one-shot Run ends with
// emit nothing for pq, so the output a resident pipeline has retained up to
// an instant is all a Run up to that instant would collect. Only two
// operators emit at Close: a bounded or AS OF scan asserts its final
// watermark, and EMIT AFTER DELAY flushes its timers (it also fires them on
// a heartbeat). Heartbeats pass through every other operator.
func closeInert(pq *plan.PlannedQuery) bool {
	if pq.Emit.Delay != nil {
		return false
	}
	for _, s := range scans(pq.Root) {
		if !s.Unbounded() {
			return false
		}
	}
	return true
}

// scans lists the plan's scan nodes.
func scans(root plan.Node) []*plan.Scan {
	var out []*plan.Scan
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			out = append(out, s)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return out
}

// scanNames lists the distinct (lower-cased, sorted) relations a plan scans.
func scanNames(root plan.Node) []string {
	set := map[string]bool{}
	for _, s := range scans(root) {
		set[strings.ToLower(s.Name)] = true
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sources collects the recorded changelog of every relation the plan scans.
func (e *Engine) sources(root plan.Node) ([]exec.Source, error) {
	return e.sourcesByName(scanNames(root))
}

// sourcesByName snapshots the recorded changelogs of the named relations.
// The snapshot caps rather than copies: drivers treat source logs as
// immutable (the batched feed hands sub-slices of them straight to operator
// chains), and the three-index slice keeps appends committed after the
// snapshot from aliasing into this view.
func (e *Engine) sourcesByName(names []string) ([]exec.Source, error) {
	var out []exec.Source
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, name := range names {
		rel, ok := e.rels[name]
		if !ok {
			return nil, fmt.Errorf("core: relation %q not found", name)
		}
		out = append(out, exec.Source{Name: name, Log: rel.log[:len(rel.log):len(rel.log)]})
	}
	return out, nil
}
