package core

import (
	"time"

	"repro/internal/live"
	"repro/internal/obs"
)

// WithObs attaches a metrics registry to the engine: the engine_*,
// checkpoint_*, and commit_* families register here, and the registry is
// threaded into the live manager (live_*, exec_*) and, by Open,
// into the write-ahead log (wal_*), so one scrape covers every layer. Without this option the engine records nothing and the hot
// paths pay only nil checks.
func WithObs(reg *obs.Registry) Option {
	return func(e *Engine) { e.obsReg = reg }
}

// WithSlowCommit sets the commit-latency threshold above which a traced
// commit emits a structured span-breakdown log line
// (obs.DefaultSlowCommit without this option; <= 0 disables the log while
// keeping the histograms). Only meaningful together with WithObs.
func WithSlowCommit(d time.Duration) Option {
	return func(e *Engine) { e.slowCommit = d }
}

// Obs returns the engine's metrics registry (nil without WithObs). The
// serving layer mounts its Handler at GET /metrics.
func (e *Engine) Obs() *obs.Registry { return e.obsReg }

// engineMetrics are the engine-layer families. All note* helpers are
// nil-safe on the receiver, so call sites need no enablement branches.
type engineMetrics struct {
	commitsPublish   *obs.Counter
	commitsHeartbeat *obs.Counter
	commitEvents     *obs.Counter
	walFailures      *obs.Counter
	degraded         *obs.Gauge
	degradedTrans    *obs.Counter

	queries       *obs.Counter
	queryErrors   *obs.Counter
	querySeconds  *obs.Histogram
	queryResident *obs.Counter
	queryFolded   *obs.Counter
	queryReplay   map[string]*obs.Counter // by replay reason

	ckptTotal    *obs.Counter
	ckptFailures *obs.Counter
	ckptBytes    *obs.Gauge
	ckptSeconds  *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{
		commitsPublish:   reg.Counter("engine_commits_total", "Committed changes by kind.", "kind", "publish"),
		commitsHeartbeat: reg.Counter("engine_commits_total", "Committed changes by kind.", "kind", "heartbeat"),
		commitEvents:     reg.Counter("engine_commit_events_total", "Events carried by committed publishes."),
		walFailures:      reg.Counter("engine_wal_failures_total", "Commit-log append failures."),
		degraded:         reg.Gauge("engine_degraded", "1 while the engine is in degraded read-only mode."),
		degradedTrans:    reg.Counter("engine_degraded_transitions_total", "Healthy-to-degraded transitions."),
		queries:          reg.Counter("engine_queries_total", "One-shot queries that succeeded."),
		queryErrors:      reg.Counter("engine_query_errors_total", "One-shot queries that failed."),
		querySeconds:     reg.Histogram("engine_query_seconds", "One-shot query latency.", obs.DurationScale, obs.DurationBuckets),
		queryResident:    reg.Counter("engine_query_resident_total", "One-shot queries answered from a resident pipeline."),
		queryFolded:      reg.Counter("engine_query_folded_rows_total", "Retained-output rows folded by one-shot queries answered from a resident pipeline."),
		queryReplay:      map[string]*obs.Counter{},
		ckptTotal:        reg.Counter("checkpoint_total", "Checkpoints written."),
		ckptFailures:     reg.Counter("checkpoint_failures_total", "Checkpoint writes that failed."),
		ckptBytes:        reg.Gauge("checkpoint_bytes", "Size of the last successful checkpoint."),
		ckptSeconds:      reg.Histogram("checkpoint_seconds", "Checkpoint write duration.", obs.DurationScale, obs.DurationBuckets),
	}
	reg.GaugeFunc("engine_history_events", "Input events the catalog's recorded changelogs hold.",
		func() float64 { return float64(e.history.Load()) })
	for _, reason := range []string{replayNotInert, live.ReplayNoSession, live.ReplayOutOfOrder, live.ReplayOverflow, live.ReplayClosed} {
		m.queryReplay[reason] = reg.Counter("engine_query_replay_total",
			"One-shot queries that replayed history, by why no resident pipeline answered.", "reason", reason)
	}
	return m
}

func (m *engineMetrics) notePublish(events int) {
	if m == nil {
		return
	}
	m.commitsPublish.Inc()
	m.commitEvents.Add(int64(events))
}

func (m *engineMetrics) noteHeartbeat() {
	if m == nil {
		return
	}
	m.commitsHeartbeat.Inc()
}

func (m *engineMetrics) noteWALFailure() {
	if m == nil {
		return
	}
	m.walFailures.Inc()
}

// noteDegraded tracks the degraded gauge and counts 0->1 transitions.
func (m *engineMetrics) noteDegraded(on bool) {
	if m == nil {
		return
	}
	if on {
		if m.degraded.Value() == 0 {
			m.degradedTrans.Inc()
		}
		m.degraded.Set(1)
	} else {
		m.degraded.Set(0)
	}
}

func (m *engineMetrics) noteQuery(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.queryErrors.Inc()
		return
	}
	m.queries.Inc()
	m.querySeconds.Observe(int64(d))
}

// noteResident counts a read answered from a resident pipeline that folded
// folded rows of its retained output.
func (m *engineMetrics) noteResident(folded int) {
	if m == nil {
		return
	}
	m.queryResident.Inc()
	m.queryFolded.Add(int64(folded))
}

func (m *engineMetrics) noteReplay(reason string) {
	if m == nil {
		return
	}
	m.queryReplay[reason].Inc()
}

func (m *engineMetrics) noteCheckpoint(bytes int64, d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.ckptFailures.Inc()
		return
	}
	m.ckptTotal.Inc()
	m.ckptBytes.Set(bytes)
	m.ckptSeconds.Observe(int64(d))
}
