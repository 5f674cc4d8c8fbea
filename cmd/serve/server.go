package main

// Server is the HTTP/JSON front-end over the streaming SQL engine: register
// relations, ingest changelog events, run one-shot queries, and open
// standing-query subscriptions whose deltas stream back over a chunked
// ndjson response. It exists so the engine can run as a long-lived process
// serving live traffic instead of a per-query batch tool.
//
// Standing queries share plans: concurrent subscriptions with the same
// (SQL, mode) are served from one resident pipeline,
// each over its own delivery cursor, so N identical subscribers cost one
// compilation and one incremental evaluation per ingested change. The
// /v1/subscriptions listing exposes the sharing: each entry reports the
// resident pipeline's id and how many subscribers are attached to it
// (entries sharing a pipeline report the same id). Pass exclusive=1 to
// /v1/subscribe to opt a subscription out of sharing.
//
// Endpoints:
//
//	POST /v1/relations                  register a stream or table
//	POST /v1/relations/{name}/events    append a changelog batch (atomic)
//	POST /v1/heartbeat                  advance processing time for EMIT AFTER DELAY
//	GET  /v1/query?sql=&at=&mode=       one-shot table or stream rendering
//	GET  /v1/subscribe?sql=&mode=&...   standing query; chunked ndjson deltas
//	GET  /v1/subscriptions              per-subscription stats + plan sharing
//	DELETE /v1/subscriptions/{id}       cancel a standing query
//	POST /v1/checkpoint                 force a durable checkpoint (needs -data-dir)
//	GET  /v1/healthz                    liveness + pipeline/subscriber/checkpoint state
//	GET  /metrics                       Prometheus text-format metrics (engine/WAL/checkpoint/shard/live/exec/commit families)
//	GET  /debug/pprof/...               net/http/pprof profiling (only with -pprof)
import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// Server routes HTTP requests to one engine. It tracks the subscriptions it
// opened so they can be listed and canceled by id.
type Server struct {
	engine *core.Engine
	mux    *http.ServeMux

	mu     sync.Mutex
	nextID int
	subs   map[int]*subEntry

	// Durable checkpoint state (enabled by -data-dir). ckptMu serializes
	// checkpoint writes so the periodic ticker and the HTTP trigger cannot
	// interleave temp-file swaps.
	ckptPath string
	ckptMu   sync.Mutex
	lastCkpt struct {
		at    time.Time
		bytes int64
	}
	// Consecutive checkpoint failures and the latest failure, surfaced by
	// /healthz so repeated periodic-checkpoint failures are visible outside
	// the process log. Reset on the next success.
	ckptFails   int
	ckptLastErr error

	// walTrunc, when set, truncates the write-ahead log through a sequence
	// number after a snapshot covering it is durable.
	walTrunc func(seq uint64) error

	// reqTimeout bounds one-shot handlers (-request-timeout). Streaming
	// subscribe is exempt: its whole point is an unbounded response. Set
	// before serving; zero disables the wrapper.
	reqTimeout time.Duration
}

// maxBodyBytes caps every POST body (register, ingest, heartbeat). A larger
// body is refused with 413 before anything is decoded or committed, so one
// request cannot make the server buffer an unbounded amount of memory. 8 MiB
// holds tens of thousands of changelog events; larger loads belong in several
// requests.
const maxBodyBytes = 8 << 20

// ckptDegradeAfter is how many consecutive checkpoint failures flip the
// engine into degraded read-only mode. A disk that keeps refusing snapshots
// will not keep honoring WAL appends for long, and every failed snapshot
// means an ever-longer WAL tail to replay — refusing new ingest is the
// defined behavior, not an ever-growing durability debt.
const ckptDegradeAfter = 3

// maxSubscribeBuffer caps the buffer= parameter of /v1/subscribe. The delta
// channel allocates every slot up front, so an unchecked buffer would let one
// GET reserve gigabytes.
const maxSubscribeBuffer = 65536

type subEntry struct {
	id   int
	sql  string
	mode string
	sub  *live.Subscription
}

// NewServer wraps the engine in the HTTP front-end.
func NewServer(e *core.Engine) *Server {
	s := &Server{engine: e, subs: make(map[int]*subEntry), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/relations", s.timed(s.handleRegister))
	s.mux.HandleFunc("POST /v1/relations/{name}/events", s.timed(s.handleIngest))
	s.mux.HandleFunc("POST /v1/heartbeat", s.timed(s.handleHeartbeat))
	s.mux.HandleFunc("GET /v1/query", s.timed(s.handleQuery))
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe) // streaming: never timed
	s.mux.HandleFunc("GET /v1/subscriptions", s.timed(s.handleSubscriptions))
	s.mux.HandleFunc("DELETE /v1/subscriptions/{id}", s.timed(s.handleUnsubscribe))
	s.mux.HandleFunc("POST /v1/checkpoint", s.timed(s.handleCheckpoint))
	s.mux.HandleFunc("GET /v1/healthz", s.timed(s.handleHealthz))
	// Metrics scrape: untimed (it is cheap and lock-light by design — see
	// internal/obs) and only mounted when the engine carries a registry.
	if reg := e.Obs(); reg != nil {
		s.mux.Handle("GET /metrics", reg.Handler())
	}
	return s
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ (-pprof flag). Off
// by default: the profiling endpoints expose heap contents and should not be
// reachable on an open listener unless asked for.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// SetRequestTimeout bounds every one-shot handler to d (-request-timeout):
// past the deadline the client gets a 503 and the handler's request context
// is canceled. The streaming subscribe endpoint is exempt. d <= 0 disables
// the bound. Call before serving traffic.
func (s *Server) SetRequestTimeout(d time.Duration) { s.reqTimeout = d }

// timed wraps a one-shot handler with the request deadline, consulted at
// request time so SetRequestTimeout works after route registration.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := s.reqTimeout
		if d <= 0 {
			h(w, r)
			return
		}
		http.TimeoutHandler(h, d, `{"error":"request timed out"}`).ServeHTTP(w, r)
	}
}

// EnableCheckpoint turns on durable checkpointing to the given file path
// (inside -data-dir). CheckpointNow and POST /v1/checkpoint refuse until
// this is called.
func (s *Server) EnableCheckpoint(path string) { s.ckptPath = path }

// EnableWALTruncation registers the log-compaction hook: after each
// successful checkpoint, trunc is called with the WAL sequence number the
// snapshot covers through, so applied segments are reclaimed.
func (s *Server) EnableWALTruncation(trunc func(seq uint64) error) { s.walTrunc = trunc }

// CheckpointNow writes one durable checkpoint with the crash-safe atomic
// swap, returning its size, then truncates the write-ahead log through the
// snapshot's commit point (snapshots are the log's compaction). Safe to
// call concurrently with serving traffic: the engine snapshot runs under
// the live manager's ordering lock, and writes are serialized here.
// Failures are counted for /healthz; a truncation failure is logged there
// too but does not fail the call — the snapshot is durable, and an
// uncompacted log only costs disk until the next snapshot retries.
func (s *Server) CheckpointNow() (int64, error) {
	if s.ckptPath == "" {
		return 0, fmt.Errorf("checkpointing disabled: run with -data-dir")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	n, seq, err := s.engine.CheckpointFile(s.ckptPath)
	if err != nil {
		s.mu.Lock()
		s.ckptFails++
		s.ckptLastErr = err
		fails := s.ckptFails
		s.mu.Unlock()
		// Persistent snapshot failure is a durability emergency: flip the
		// engine into degraded read-only mode so it refuses acks it may not
		// be able to honor, instead of growing an unbounded WAL tail.
		if fails >= ckptDegradeAfter {
			s.engine.EnterDegraded(fmt.Errorf("%d consecutive checkpoint failures, last: %w", fails, err))
		}
		return 0, err
	}
	var truncErr error
	if s.walTrunc != nil {
		truncErr = s.walTrunc(seq)
	}
	s.mu.Lock()
	s.lastCkpt.at = time.Now()
	s.lastCkpt.bytes = n
	s.ckptFails = 0
	s.ckptLastErr = truncErr // usually nil; kept visible without counting as a checkpoint failure
	s.mu.Unlock()
	// A successful snapshot is evidence the disk recovered; try to reopen
	// ingest. ClearDegraded proves writability with a durable WAL probe and
	// keeps the engine degraded if the log is still sick, so this is safe
	// to attempt unconditionally.
	if s.engine.Degraded() != nil {
		if err := s.engine.ClearDegraded(); err == nil {
			slog.Info("degraded mode cleared after successful checkpoint")
		}
	}
	return n, nil
}

// CancelSubscriptions ends every tracked standing query, releasing the
// chunked subscribe handlers so a graceful HTTP shutdown can drain. Call
// AFTER the final checkpoint: canceling a session's last cursor tears the
// resident pipeline down, and a torn-down pipeline has nothing left to
// checkpoint.
func (s *Server) CancelSubscriptions() {
	s.mu.Lock()
	entries := make([]*subEntry, 0, len(s.subs))
	for _, e := range s.subs {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	for _, e := range entries {
		e.sub.Cancel()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---- wire types ----

type columnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
	// EventTime marks the column as watermarked event time (Extension 1).
	EventTime bool `json:"eventTime,omitempty"`
}

type registerJSON struct {
	Name string `json:"name"`
	// Kind is "stream" (unbounded) or "table" (bounded).
	Kind   string       `json:"kind"`
	Schema []columnJSON `json:"schema"`
}

type eventJSON struct {
	// Kind is "insert", "delete", or "watermark".
	Kind string `json:"kind"`
	// Ptime is the processing time in engine milliseconds.
	Ptime types.Time `json:"ptime"`
	// Row holds the column values for insert/delete.
	Row []any `json:"row,omitempty"`
	// Wm is the watermark value for watermark events.
	Wm types.Time `json:"wm,omitempty"`
}

type ingestJSON struct {
	Events []eventJSON `json:"events"`
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// decodeBody decodes the request's JSON body into v, reading at most
// maxBodyBytes of it. Numbers decoded into untyped values stay json.Number,
// preserving full BIGINT precision. On failure it writes the error response
// (413 for an oversized body, 400 otherwise) and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.UseNumber()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
	} else {
		writeErr(w, http.StatusBadRequest, err)
	}
	return false
}

// writeCommitErr routes a failed commit-path request (register, ingest,
// heartbeat). A degraded engine is overload/fault shedding, not a client
// mistake: 503 with Retry-After tells well-behaved clients to back off and
// retry once the operator (or a successful checkpoint) clears the fault.
// Anything else keeps the handler's usual status.
func writeCommitErr(w http.ResponseWriter, fallback int, err error) {
	if errors.Is(err, core.ErrDegraded) {
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeErr(w, fallback, err)
}

// parseKind maps a wire type name to a value kind.
func parseKind(s string) (types.Kind, error) {
	switch strings.ToUpper(s) {
	case "BOOLEAN", "BOOL":
		return types.KindBool, nil
	case "BIGINT", "INT", "INTEGER":
		return types.KindInt64, nil
	case "DOUBLE", "FLOAT":
		return types.KindFloat64, nil
	case "VARCHAR", "STRING", "TEXT":
		return types.KindString, nil
	case "TIMESTAMP":
		return types.KindTimestamp, nil
	case "INTERVAL":
		return types.KindInterval, nil
	default:
		return 0, fmt.Errorf("unknown column type %q", s)
	}
}

// asInt64 extracts an integral JSON value. Bodies decode with UseNumber, so
// numbers arrive as json.Number and never take the float64 round-trip that
// corrupts integers above 2^53; a fractional number is refused, not
// truncated.
func asInt64(v any) (int64, bool) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, false
	}
	i, err := n.Int64()
	return i, err == nil
}

// decodeRow coerces JSON values into a typed row using the relation schema.
func decodeRow(vals []any, sch *types.Schema) (types.Row, error) {
	if len(vals) != sch.Len() {
		return nil, fmt.Errorf("row has %d values, schema has %d columns", len(vals), sch.Len())
	}
	row := make(types.Row, len(vals))
	for i, v := range vals {
		c := sch.Cols[i]
		if v == nil {
			row[i] = types.Null()
			continue
		}
		switch c.Kind {
		case types.KindBool:
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("column %s: expected boolean", c.Name)
			}
			row[i] = types.NewBool(b)
		case types.KindInt64:
			n, ok := asInt64(v)
			if !ok {
				return nil, fmt.Errorf("column %s: expected integer", c.Name)
			}
			row[i] = types.NewInt(n)
		case types.KindFloat64:
			n, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("column %s: expected number", c.Name)
			}
			f, err := n.Float64()
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", c.Name, err)
			}
			row[i] = types.NewFloat(f)
		case types.KindString:
			str, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("column %s: expected string", c.Name)
			}
			row[i] = types.NewString(str)
		case types.KindTimestamp:
			n, ok := asInt64(v)
			if !ok {
				return nil, fmt.Errorf("column %s: expected timestamp milliseconds", c.Name)
			}
			row[i] = types.NewTimestamp(types.Time(n))
		case types.KindInterval:
			n, ok := asInt64(v)
			if !ok {
				return nil, fmt.Errorf("column %s: expected interval milliseconds", c.Name)
			}
			row[i] = types.NewInterval(types.Duration(n))
		default:
			return nil, fmt.Errorf("column %s: unsupported kind", c.Name)
		}
	}
	return row, nil
}

// encodeRow renders a typed row as JSON scalars (timestamps and intervals as
// engine milliseconds).
func encodeRow(row types.Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind() {
		case types.KindNull:
			out[i] = nil
		case types.KindBool:
			out[i] = v.Bool()
		case types.KindInt64:
			out[i] = v.Int()
		case types.KindFloat64:
			out[i] = v.Float()
		case types.KindString:
			out[i] = v.Str()
		case types.KindTimestamp:
			out[i] = int64(v.Timestamp())
		case types.KindInterval:
			out[i] = int64(v.Interval())
		}
	}
	return out
}

func encodeSchema(sch *types.Schema) []columnJSON {
	out := make([]columnJSON, sch.Len())
	for i, c := range sch.Cols {
		out[i] = columnJSON{Name: c.Name, Type: c.Kind.String(), EventTime: c.EventTime}
	}
	return out
}

// ---- handlers ----

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerJSON
	if !decodeBody(w, r, &req) {
		return
	}
	cols := make([]types.Column, 0, len(req.Schema))
	for _, c := range req.Schema {
		k, err := parseKind(c.Type)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		cols = append(cols, types.Column{Name: c.Name, Kind: k, EventTime: c.EventTime})
	}
	sch := types.NewSchema(cols...)
	var err error
	switch strings.ToLower(req.Kind) {
	case "", "stream":
		err = s.engine.RegisterStream(req.Name, sch)
	case "table":
		err = s.engine.RegisterTable(req.Name, sch)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("kind must be stream or table, got %q", req.Kind))
		return
	}
	if errors.Is(err, core.ErrInvalidSchema) {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err != nil {
		writeCommitErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": req.Name, "kind": req.Kind})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rel, err := s.engine.Resolve(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	var req ingestJSON
	if !decodeBody(w, r, &req) {
		return
	}
	log := make(tvr.Changelog, 0, len(req.Events))
	for i, ev := range req.Events {
		switch kind := strings.ToLower(ev.Kind); kind {
		case "insert", "delete":
			row, err := decodeRow(ev.Row, rel.Schema)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("event %d: %w", i, err))
				return
			}
			if kind == "insert" {
				log = append(log, tvr.InsertEvent(ev.Ptime, row))
			} else {
				log = append(log, tvr.DeleteEvent(ev.Ptime, row))
			}
		case "watermark":
			log = append(log, tvr.WatermarkEvent(ev.Ptime, ev.Wm))
		default:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("event %d: unknown kind %q", i, ev.Kind))
			return
		}
	}
	// AppendLog validates and applies the whole batch atomically and
	// routes it to standing queries in commit order.
	if err := s.engine.AppendLog(name, log); err != nil {
		writeCommitErr(w, http.StatusConflict, err)
		return
	}
	// The reply is written directly: it is the same bytes writeJSON would
	// encode ({"appended":N} plus the encoder's newline), without a map and a
	// reflecting encoder on every ingest.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var buf [40]byte
	reply := strconv.AppendInt(append(buf[:0], `{"appended":`...), int64(len(log)), 10)
	_, _ = w.Write(append(reply, "}\n"...))
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Ptime types.Time `json:"ptime"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.engine.Heartbeat(req.Ptime); err != nil {
		// Only a write-ahead-log append (or degraded mode) can fail here;
		// the heartbeat was suppressed, so refusing keeps ack == durable.
		writeCommitErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ptime": req.Ptime})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("sql")
	if sql == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing sql parameter"))
		return
	}
	at := types.MaxTime
	if v := r.URL.Query().Get("at"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad at parameter: %w", err))
			return
		}
		at = types.Time(n)
	}
	switch r.URL.Query().Get("mode") {
	case "", "table":
		res, err := s.engine.QueryTable(sql, at)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		rows := make([][]any, len(res.Rows))
		for i, row := range res.Rows {
			rows[i] = encodeRow(row)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"schema": encodeSchema(res.Schema), "rows": rows,
		})
	case "stream":
		res, err := s.engine.QueryStreamAt(sql, at)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		rows := make([]map[string]any, len(res.Rows))
		for i, sr := range res.Rows {
			rows[i] = encodeStreamRow(sr)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"schema": encodeSchema(res.Schema), "rows": rows,
		})
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("mode must be table or stream"))
	}
}

func encodeStreamRow(sr tvr.StreamRow) map[string]any {
	return map[string]any{
		"row": encodeRow(sr.Row), "undo": sr.Undo,
		"ptime": int64(sr.Ptime), "ver": sr.Ver,
	}
}

func encodeDelta(d live.Delta) map[string]any {
	out := map[string]any{"type": "delta", "watermark": int64(d.Watermark)}
	if d.Table != nil {
		ins := make([][]any, len(d.Table.Inserted))
		for i, r := range d.Table.Inserted {
			ins[i] = encodeRow(r)
		}
		del := make([][]any, len(d.Table.Deleted))
		for i, r := range d.Table.Deleted {
			del[i] = encodeRow(r)
		}
		out["ptime"] = int64(d.Table.Ptime)
		out["inserted"] = ins
		out["deleted"] = del
		return out
	}
	rows := make([]map[string]any, len(d.Stream))
	for i, sr := range d.Stream {
		rows[i] = encodeStreamRow(sr)
	}
	out["rows"] = rows
	return out
}

// handleSubscribe opens a standing query and streams its deltas as ndjson
// over a chunked response: first a schema line, then one line per delta,
// then an end line when the subscription terminates. Client disconnect
// cancels the standing query.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sql := q.Get("sql")
	if sql == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing sql parameter"))
		return
	}
	opts := core.SubscribeOptions{}
	if v := q.Get("buffer"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad buffer parameter: %w", err))
			return
		}
		if n > maxSubscribeBuffer {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("buffer %d exceeds the limit of %d", n, maxSubscribeBuffer))
			return
		}
		opts.Buffer = n
	}
	if v := q.Get("retain"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad retain parameter: %w", err))
			return
		}
		if n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("retain %d is negative; use 0 for unbounded", n))
			return
		}
		opts.MaxRetainedRows = n
	}
	switch q.Get("policy") {
	case "", "block":
		opts.Policy = live.Block
	case "drop":
		opts.Policy = live.DropWithError
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("policy must be block or drop"))
		return
	}
	switch q.Get("exclusive") {
	case "", "0", "false":
	case "1", "true":
		opts.Exclusive = true
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("exclusive must be 0 or 1"))
		return
	}
	mode := q.Get("mode")
	var sub *live.Subscription
	var err error
	switch mode {
	case "", "stream":
		mode = "stream"
		sub, err = s.engine.SubscribeStream(sql, opts)
	case "table":
		sub, err = s.engine.SubscribeTable(sql, opts)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("mode must be table or stream"))
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	entry := s.track(sql, mode, sub)
	defer s.untrack(entry.id)
	defer sub.Cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeLine := func(v any) bool {
		if err := enc.Encode(v); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !writeLine(map[string]any{
		"type": "schema", "id": entry.id, "mode": mode,
		"columns": encodeSchema(sub.Schema()),
	}) {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case d, ok := <-sub.Deltas():
			if !ok {
				end := map[string]any{"type": "end"}
				if err := sub.Err(); err != nil {
					end["error"] = err.Error()
				}
				writeLine(end)
				return
			}
			if !writeLine(encodeDelta(d)) {
				return
			}
		}
	}
}

func (s *Server) track(sql, mode string, sub *live.Subscription) *subEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	e := &subEntry{id: id, sql: sql, mode: mode, sub: sub}
	s.subs[id] = e
	return e
}

func (s *Server) untrack(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, id)
}

func (s *Server) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := make([]*subEntry, 0, len(s.subs))
	for _, e := range s.subs {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	out := make([]map[string]any, 0, len(entries))
	for _, e := range entries {
		st := e.sub.Stats()
		out = append(out, map[string]any{
			"id": e.id, "sql": e.sql, "mode": e.mode,
			"eventsIn": st.EventsIn, "deltasOut": st.DeltasOut,
			"rowsOut": st.RowsOut, "watermark": int64(st.Watermark),
			"queueDepth": st.QueueDepth,
			// Plan sharing: subscriptions served from the same resident
			// pipeline report the same pipeline id and the count of
			// subscribers attached to it.
			"pipeline": st.PipelineID, "subscribers": st.Subscribers,
			// Shard placement: which shard worker applies this pipeline's
			// deliveries, or -1 under the serial fan-out.
			"shard": st.Shard,
			// Batching efficiency: mean source events carried per
			// operator-chain dispatch (1.0 = pure per-event delivery).
			"dispatches": st.Dispatches, "eventsPerDispatch": st.EventsPerDispatch,
		})
	}
	resp := map[string]any{"subscriptions": out}
	// Per-shard ingest queue state (depth = commits waiting, lag = enqueued
	// minus applied), present only when running with -shards.
	if stats := s.engine.ShardStats(); stats != nil {
		resp["shards"] = stats
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	e, ok := s.subs[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no subscription %d", id))
		return
	}
	e.sub.Cancel()
	writeJSON(w, http.StatusOK, map[string]any{"canceled": id})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	n, err := s.CheckpointNow()
	if err != nil {
		code := http.StatusInternalServerError
		if s.ckptPath == "" {
			code = http.StatusConflict
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": s.ckptPath, "bytes": n})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"ok": true, "liveSessions": s.engine.LiveSessions(),
		"liveSubscribers": s.engine.LiveSubscribers(),
		"checkpointing":   s.ckptPath != "",
	}
	// Degraded read-only mode: the process is alive (ok stays true — reads
	// and standing queries keep serving) but ingest is refused until the
	// durability fault clears. status + cause let an operator see why every
	// write is bouncing with 503 without grepping logs.
	if derr := s.engine.Degraded(); derr != nil {
		out["status"] = "degraded"
		out["degraded"] = true
		out["degradedCause"] = derr.Error()
	} else {
		out["status"] = "ok"
		out["degraded"] = false
	}
	// Sharded fan-out health: per-shard queue depth and apply lag, read
	// lock-free so the probe stays responsive while a shard is parked on a
	// stalled Block-policy subscriber.
	if stats := s.engine.ShardStats(); stats != nil {
		out["shards"] = len(stats)
		out["shardStats"] = stats
	}
	if s.walTrunc != nil {
		out["walEnabled"] = true
		out["walSeq"] = s.engine.WALSeq()
	}
	s.mu.Lock()
	if !s.lastCkpt.at.IsZero() {
		out["lastCheckpoint"] = s.lastCkpt.at.UTC().Format(time.RFC3339)
		out["lastCheckpointBytes"] = s.lastCkpt.bytes
	}
	out["checkpointFailures"] = s.ckptFails
	if s.ckptLastErr != nil {
		out["lastCheckpointError"] = s.ckptLastErr.Error()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}
