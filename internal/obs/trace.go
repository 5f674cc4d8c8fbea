package obs

import (
	"log/slog"
	"time"
)

// SpanStage identifies one stage of the commit path, in pipeline order.
type SpanStage int

const (
	// SpanValidate is event validation against the relation schema.
	SpanValidate SpanStage = iota
	// SpanWAL is the WAL append (including fsync under SyncAlways).
	SpanWAL
	// SpanSequence is sequencing + fan-out bookkeeping under the manager lock.
	SpanSequence
	// SpanApply is driver Feed/Advance — pushing the batch through operators.
	SpanApply
	// SpanRender is Drain + delta render + retention accounting.
	SpanRender
	// SpanDeliver is cursor fan-out: owing each cursor the delivery and waking its reader.
	SpanDeliver

	numSpanStages
)

// stageNames index by SpanStage; also the `stage` label values on
// commit_stage_seconds.
var stageNames = [numSpanStages]string{
	"validate", "wal", "sequence", "apply", "render", "deliver",
}

// String returns the stage's label value.
func (s SpanStage) String() string {
	if s < 0 || s >= numSpanStages {
		return "unknown"
	}
	return stageNames[s]
}

// DefaultSlowCommit is the default threshold above which a commit emits a
// structured span-breakdown log line (the serve -slow-commit flag default).
const DefaultSlowCommit = 100 * time.Millisecond

// CommitTracer owns the commit-path histograms and the slow-commit log
// policy. One tracer per engine; it hands out a CommitSpan per commit.
// A nil tracer hands out nil spans, and every CommitSpan method is nil-safe,
// so untraced engines pay only nil checks.
type CommitTracer struct {
	stages    [numSpanStages]*Histogram // commit_stage_seconds{stage=...}
	total     *Histogram                // commit_seconds
	slow      *Counter                  // commit_slow_total
	threshold int64                     // ns; <=0 disables slow logging
}

// NewCommitTracer registers the commit-path metric families on reg and
// returns a tracer. slow <= 0 disables slow-commit logging; the log line
// goes to slog.Default() at emit time.
func NewCommitTracer(reg *Registry, slow time.Duration) *CommitTracer {
	t := &CommitTracer{threshold: int64(slow)}
	for i := SpanStage(0); i < numSpanStages; i++ {
		t.stages[i] = reg.Histogram("commit_stage_seconds",
			"Time spent per commit-path stage.",
			DurationScale, DurationBuckets, "stage", i.String())
	}
	t.total = reg.Histogram("commit_seconds",
		"End-to-end commit latency (publish to final delivery).",
		DurationScale, DurationBuckets)
	t.slow = reg.Counter("commit_slow_total",
		"Commits slower than the slow-commit threshold.")
	return t
}

// Begin starts a span for one commit. name is the target relation, events
// the batch size. Returns nil (a valid no-op span) on a nil tracer.
func (t *CommitTracer) Begin(name string, events int) *CommitSpan {
	if t == nil {
		return nil
	}
	return &CommitSpan{tracer: t, name: name, events: events, start: time.Now()}
}

// CommitSpan accumulates per-stage durations for one commit. Its one
// participant, the committing goroutine, times every stage and calls Finish
// once, which records the histograms and possibly emits the slow-commit log
// line. All methods are nil-safe.
type CommitSpan struct {
	tracer *CommitTracer
	name   string
	events int
	seq    uint64
	start  time.Time
	stages [numSpanStages]int64 // ns per stage
	done   bool                 // finished or discarded
}

// AddSince accrues the elapsed time since t0 to the given stage.
func (s *CommitSpan) AddSince(stage SpanStage, t0 time.Time) {
	if s == nil {
		return
	}
	s.stages[stage] += int64(time.Since(t0))
}

// SetSeq records the commit's global sequence number for the slow log line.
func (s *CommitSpan) SetSeq(seq uint64) {
	if s == nil {
		return
	}
	s.seq = seq
}

// Finish records the stage and total histograms and emits the slow-commit
// log line if the commit exceeded the tracer's threshold. Only the first
// Finish of a span that was not discarded records anything.
func (s *CommitSpan) Finish() {
	if s == nil || s.done {
		return
	}
	s.done = true
	t := s.tracer
	total := time.Since(s.start)
	for i := SpanStage(0); i < numSpanStages; i++ {
		// Skip stages this commit never touched (e.g. apply when no session
		// matched) so their histograms aren't flooded with zeros.
		if v := s.stages[i]; v > 0 {
			t.stages[i].Observe(v)
		}
	}
	t.total.Observe(int64(total))
	if t.threshold <= 0 || int64(total) < t.threshold {
		return
	}
	t.slow.Inc()
	attrs := make([]any, 0, 2*int(numSpanStages)+8)
	attrs = append(attrs,
		slog.String("relation", s.name),
		slog.Int("events", s.events),
		slog.Uint64("seq", s.seq),
		slog.Duration("total", total),
	)
	for i := SpanStage(0); i < numSpanStages; i++ {
		if v := s.stages[i]; v > 0 {
			attrs = append(attrs, slog.Duration(i.String(), time.Duration(v)))
		}
	}
	slog.Default().Warn("slow commit", attrs...)
}

// Discard abandons the span without recording anything — for commits that
// fail before publication. A later Finish is a no-op.
func (s *CommitSpan) Discard() {
	if s == nil {
		return
	}
	s.done = true
}
