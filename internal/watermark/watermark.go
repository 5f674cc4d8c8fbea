// Package watermark implements watermark tracking and generation.
//
// A watermark is a monotonic function from processing time to event time: if
// a watermark observed at processing time y has event-time value x, all
// records arriving after y are asserted to carry event timestamps greater
// than or equal to x (Section 3.2.2 of the paper). Operators use watermarks
// to reason about input completeness — to close event-time groupings, emit
// watermark-delayed results, and free state.
package watermark

import "repro/internal/types"

// Tracker maintains a single monotonic watermark. The zero Tracker starts at
// types.MinTime (nothing known complete).
type Tracker struct {
	current types.Time
	set     bool
}

// Current returns the present watermark, or types.MinTime if none observed.
func (t *Tracker) Current() types.Time {
	if !t.set {
		return types.MinTime
	}
	return t.current
}

// Advance moves the watermark forward to wm and reports whether it actually
// advanced. Regressions are ignored (watermarks are monotonic by definition),
// so upstream operators may safely re-deliver stale watermarks.
func (t *Tracker) Advance(wm types.Time) bool {
	if !t.set || wm > t.current {
		t.current = wm
		t.set = true
		return true
	}
	return false
}

// BoundedOutOfOrderness is the heuristic watermark generator used by the
// NEXMark source: it trails the maximum observed event timestamp by a fixed
// slack, asserting that events arrive at most `bound` out of order. This is
// the "sufficient slack time" configuration the paper mentions.
type BoundedOutOfOrderness struct {
	bound   types.Duration
	maxSeen types.Time
	seen    bool
}

// NewBoundedOutOfOrderness creates a generator with the given slack.
func NewBoundedOutOfOrderness(bound types.Duration) *BoundedOutOfOrderness {
	return &BoundedOutOfOrderness{bound: bound}
}

// Observe records an event timestamp and returns the current watermark.
func (b *BoundedOutOfOrderness) Observe(et types.Time) types.Time {
	if !b.seen || et > b.maxSeen {
		b.maxSeen = et
		b.seen = true
	}
	return b.Current()
}

// Current returns max(observed) - bound, or MinTime before any observation.
func (b *BoundedOutOfOrderness) Current() types.Time {
	if !b.seen {
		return types.MinTime
	}
	return b.maxSeen.Add(-b.bound)
}
