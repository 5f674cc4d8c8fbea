package main

// Server is the HTTP/JSON front-end over the streaming SQL engine: register
// relations, ingest changelog events, run one-shot queries, and open
// standing-query subscriptions whose deltas stream back over a chunked
// ndjson response. It exists so the engine can run as a long-lived process
// serving live traffic instead of a per-query batch tool.
//
// Standing queries share plans: concurrent subscriptions of the same
// optimized plan are served from one resident pipeline, whatever their mode
// (stream and table readers render one output changelog) and however the
// SQL is spelled, each over its own delivery cursor, so N subscribers of one
// relation cost one compilation and one incremental evaluation per ingested
// change. The
// /v1/subscriptions listing exposes the sharing: each entry reports the
// resident pipeline's id and how many subscribers are attached to it
// (entries sharing a pipeline report the same id). A pipeline whose retained
// output outgrew its retain= cap keeps serving the subscriptions it has,
// while a later subscription of the plan gets a successor pipeline built
// under its own retain=; it is refused with 400 only when its own cap cannot
// hold the recorded history's output (retain=0, unbounded, always can).
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
//	GET  /metrics                       Prometheus text-format metrics (engine/WAL/checkpoint/live/exec/commit families)
//	GET  /debug/pprof/...               net/http/pprof profiling (only with -pprof)
import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/live"
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

	// reqTimeout bounds every request but subscribe (-request-timeout).
	// The four commit routes carry it to the engine as a deadline their
	// commit checks; the one-shot reads run under the timed wrapper.
	// Streaming subscribe is exempt: its whole point is an unbounded
	// response. Set before serving; zero disables both bounds.
	reqTimeout time.Duration
}

// maxBodyBytes caps every POST body (register, ingest, heartbeat). A larger
// body is refused with 413 before anything is decoded or committed, so one
// request cannot make the server buffer an unbounded amount of memory. 8 MiB
// holds tens of thousands of changelog events; larger loads belong in several
// requests.
const maxBodyBytes = 8 << 20

type subEntry struct {
	id   int
	sql  string
	mode string
	sub  *live.Subscription
}

// NewServer wraps the engine in the HTTP front-end.
func NewServer(e *core.Engine) *Server {
	s := &Server{engine: e, subs: make(map[int]*subEntry), mux: http.NewServeMux()}
	// The commit routes run on the connection's goroutine and bound
	// themselves by their deadline (see deadline); the reads are timed.
	s.mux.HandleFunc("POST /v1/relations", s.handleRegister)
	s.mux.HandleFunc("POST /v1/relations/{name}/events", s.handleIngest)
	s.mux.HandleFunc("POST /v1/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("GET /v1/query", s.timed(s.handleQuery))
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe) // streaming: never timed
	s.mux.HandleFunc("GET /v1/subscriptions", s.timed(s.handleSubscriptions))
	s.mux.HandleFunc("DELETE /v1/subscriptions/{id}", s.timed(s.handleUnsubscribe))
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
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

// SetRequestTimeout bounds every request but subscribe to d
// (-request-timeout). A commit route (register, ingest, heartbeat,
// checkpoint) gives its commit the deadline of its arrival plus d: the
// commit checks it once, under the lock that orders it, and past it
// commits nothing and answers 503; a commit that passed the check answers
// with its outcome, however late. A one-shot read past d gets a 503 from the
// timed wrapper and its request context is canceled. The streaming
// subscribe endpoint is exempt. d <= 0 disables the bound. Call before
// serving traffic.
func (s *Server) SetRequestTimeout(d time.Duration) { s.reqTimeout = d }

// deadline is the commit deadline of a request arriving now, or the zero
// time (no deadline) when the bound is disabled. It is a value the commit
// compares with the clock, not a timer: a commit route runs on the
// connection's goroutine, and only the commit can tell whether it still may
// change the engine.
func (s *Server) deadline() time.Time {
	if s.reqTimeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(s.reqTimeout)
}

// timed wraps a one-shot read with the request timeout, consulted at request
// time so SetRequestTimeout works after route registration. The wrapper runs
// the handler on a goroutine of its own and answers 503 when the timeout
// fires first, whatever the handler is doing; a read changes nothing, so
// abandoning it is truthful. Commit routes are never wrapped: an abandoned
// commit could still commit after its 503.
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
// maxBodyBytes of it. Anything but whitespace after the value is refused,
// not ignored. On failure it writes the error response (413 for an oversized
// body, 400 otherwise) and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		at := dec.InputOffset()
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			err = &wireError{Event: -1, Offset: int(at), Err: errTrailingData}
		}
	}
	writeBodyErr(w, err)
	return false
}

// writeBodyErr answers a body that could not be read or decoded: 413 for an
// oversized body, 400 otherwise.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}

// writeCommitErr routes a failed commit-path request (register, ingest,
// heartbeat, checkpoint). A degraded engine is overload/fault shedding, not
// a client mistake: 503 with Retry-After tells well-behaved clients to back
// off and retry once the operator (or a successful checkpoint) clears the
// fault. A commit refused for its deadline is a 503 too, and it committed
// nothing, so the client may retry it at once. Anything else keeps the
// handler's usual status.
func writeCommitErr(w http.ResponseWriter, fallback int, err error) {
	switch {
	case errors.Is(err, core.ErrDegraded):
		w.Header().Set("Retry-After", "5")
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, core.ErrDeadlinePassed):
		writeErr(w, http.StatusServiceUnavailable, err)
	default:
		writeErr(w, fallback, err)
	}
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

// ---- handlers ----

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	commits := s.engine.Before(s.deadline())
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
		err = commits.RegisterStream(req.Name, sch)
	case "table":
		err = commits.RegisterTable(req.Name, sch)
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
	commits := s.engine.Before(s.deadline())
	name := r.PathValue("name")
	rel, err := s.engine.Resolve(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	d := ingestDecoders.Get().(*ingestDecoder)
	defer ingestDecoders.Put(d)
	body, err := d.readBody(w, r)
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	log, err := d.decode(body, rel.Schema)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// AppendLog validates and applies the whole batch atomically and
	// routes it to standing queries in commit order, unless the request's
	// deadline has passed by the time the commit is ordered.
	if err := commits.AppendLog(name, log); err != nil {
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
	commits := s.engine.Before(s.deadline())
	var req struct {
		Ptime types.Time `json:"ptime"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := commits.Heartbeat(req.Ptime); err != nil {
		// Only a write-ahead-log append, degraded mode or the deadline can
		// fail here; the heartbeat was suppressed, so refusing keeps
		// ack == durable.
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
	var body []byte
	var err error
	switch r.URL.Query().Get("mode") {
	case "", "table":
		var res *core.TableResult
		if res, err = s.engine.QueryTable(sql, at); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		body, err = appendTableResponse(nil, res.Schema, res.Rows)
	case "stream":
		var res *core.StreamResult
		if res, err = s.engine.QueryStreamAt(sql, at); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		body, err = appendStreamResponse(nil, res.Schema, res.Rows)
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("mode must be table or stream"))
		return
	}
	// The body is built before the header goes out, so a result JSON
	// cannot carry (a non-finite DOUBLE) is refused rather than cut short.
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handleSubscribe opens a standing query and streams its deltas as ndjson
// over a chunked response: first a schema line, then one line per delta,
// then an end line when the subscription terminates. It takes sql, mode
// (stream or table) and retain (the session's MaxRetainedRows); any other
// parameter is ignored. The handler writes at the socket's pace: deltas it
// has not yet written wait in the session's retained output, and ingest
// never waits on it. Client disconnect cancels the standing query.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sql := q.Get("sql")
	if sql == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing sql parameter"))
		return
	}
	opts := core.SubscribeOptions{}
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
	// One buffer, reused for every line of the subscription.
	line := appendSchemaLine(nil, entry.id, mode, sub.Schema())
	send := func() bool {
		if _, err := w.Write(line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !send() {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case d, ok := <-sub.Deltas():
			if !ok {
				line = appendEndLine(line[:0], sub.Err())
				send()
				return
			}
			var err error
			if line, err = appendDelta(line[:0], d); err != nil {
				// A delta JSON cannot carry ends the subscription with a
				// reason rather than a cut connection.
				line = appendEndLine(line[:0], err)
				send()
				return
			}
			if !send() {
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
			"queueDepth": st.Unread,
			// Plan sharing: subscriptions served from the same resident
			// pipeline report the same pipeline id and the count of
			// subscribers attached to it.
			"pipeline": st.PipelineID, "subscribers": st.Subscribers,
			// Batching efficiency: mean source events carried per
			// operator-chain dispatch (1.0 = pure per-event delivery).
			"dispatches": st.Dispatches, "eventsPerDispatch": st.EventsPerDispatch,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"subscriptions": out})
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
	commits := s.engine.Before(s.deadline())
	path := s.engine.CheckpointStatus().Path
	if path == "" {
		writeErr(w, http.StatusConflict, errors.New("checkpointing disabled: run with -data-dir"))
		return
	}
	n, _, err := commits.Checkpoint()
	if err != nil {
		writeCommitErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": path, "bytes": n})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ckpt := s.engine.CheckpointStatus()
	out := map[string]any{
		"ok": true, "liveSessions": s.engine.LiveSessions(),
		"liveSubscribers": s.engine.LiveSubscribers(),
		"checkpointing":   ckpt.Path != "",
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
	// With -data-dir the engine logs every commit and can checkpoint.
	if ckpt.Path != "" {
		out["walEnabled"] = true
		out["walSeq"] = s.engine.WALSeq()
	}
	if !ckpt.At.IsZero() {
		out["lastCheckpoint"] = ckpt.At.UTC().Format(time.RFC3339)
		out["lastCheckpointBytes"] = ckpt.Bytes
	}
	out["checkpointFailures"] = ckpt.Failures
	if ckpt.Err != nil {
		out["lastCheckpointError"] = ckpt.Err.Error()
	}
	writeJSON(w, http.StatusOK, out)
}
