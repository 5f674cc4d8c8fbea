package live

import (
	"repro/internal/obs"
	"repro/internal/types"
)

// liveMetrics are the manager-wide delivery counters, incremented from the
// hot path through nil-safe obs handles (a manager built without
// Options.Obs carries a nil *liveMetrics and records nothing). Gauge-style
// series (sessions, subscribers, queue depth, renderer groups, watermark
// lag) are instead sampled at scrape time from the manager's existing
// lock-free observability state, so a scrape never takes the ordering lock.
type liveMetrics struct {
	eventsIn         *obs.Counter
	deltasOut        *obs.Counter
	rowsOut          *obs.Counter
	dispatches       *obs.Counter
	dispatchedEvents *obs.Counter
}

// The increment helpers are nil-safe on the *liveMetrics itself so sessions
// can call them unconditionally.

func (m *liveMetrics) noteEventsIn(n int64) {
	if m == nil {
		return
	}
	m.eventsIn.Add(n)
}

func (m *liveMetrics) noteDelivered(deltas, rows int64) {
	if m == nil {
		return
	}
	m.deltasOut.Add(deltas)
	m.rowsOut.Add(rows)
}

func (m *liveMetrics) noteDispatched(dispatches, events int64) {
	if m == nil {
		return
	}
	m.dispatches.Add(dispatches)
	m.dispatchedEvents.Add(events)
}

// registerMetrics wires the live_* and exec_* families onto reg. Called
// once from NewManagerWith, before the manager routes anything.
func (m *Manager) registerMetrics(reg *obs.Registry) {
	m.obsm = &liveMetrics{
		eventsIn:  reg.Counter("live_events_in_total", "Source events delivered into live sessions (counted per matching session)."),
		deltasOut: reg.Counter("live_deltas_out_total", "Deltas owed to subscriber cursors (see live.Stats.DeltasOut)."),
		rowsOut:   reg.Counter("live_rows_out_total", "Output rows owed to subscriber cursors (see live.Stats.RowsOut)."),
		dispatches: reg.Counter("exec_dispatches_total",
			"Driver dispatches across resident pipelines."),
		dispatchedEvents: reg.Counter("exec_dispatched_events_total",
			"Events pushed through driver dispatches across resident pipelines."),
	}
	reg.GaugeFunc("live_sessions", "Resident live pipelines.",
		func() float64 { return float64(m.Len()) })
	reg.GaugeFunc("live_subscribers", "Attached subscriber cursors.",
		func() float64 { return float64(m.Subscribers()) })
	reg.GaugeFunc("live_queue_depth", "Deltas appended but not yet received, across all cursors.",
		func() float64 {
			n := 0
			for _, sess := range *m.sessions.Load() {
				n += sess.queueDepth()
			}
			return float64(n)
		})
	reg.GaugeFunc("live_renderer_groups", "Stream version counters (one per event-time grouping rendered) held across sessions.",
		func() float64 {
			n := int64(0)
			for _, sess := range *m.sessions.Load() {
				n += sess.groups.Load()
			}
			return float64(n)
		})
	reg.GaugeFunc("live_retained_rows", "Output rows the sessions' retained outputs hold.",
		func() float64 {
			n := int64(0)
			for _, sess := range *m.sessions.Load() {
				n += sess.retained.Load()
			}
			return float64(n)
		})
	reg.GaugeFunc("live_watermark_lag_seconds", "Worst session watermark lag behind the last committed heartbeat.",
		func() float64 {
			hb := types.Time(m.lastHeartbeat.Load())
			if hb == types.MinTime {
				return 0
			}
			var worst int64
			for _, sess := range *m.sessions.Load() {
				wm := sess.wm.Load()
				if wm == int64(types.MinTime) {
					continue
				}
				if lag := int64(hb) - wm; lag > worst {
					worst = lag
				}
			}
			// types.Time is milliseconds.
			return float64(worst) / 1e3
		})
}

// queueDepth sums the deltas this session's cursors have not yet received.
func (s *Session) queueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.cursors {
		n += c.queueDepthLocked()
	}
	return n
}

// setObs hands the session the manager's delivery counters. Called under
// the manager's ordering lock before the session is routed to, so the
// write happens-before any hot-path read.
func (s *Session) setObs(m *liveMetrics) { s.obsm = m }
