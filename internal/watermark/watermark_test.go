package watermark

import (
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestTrackerMonotonic(t *testing.T) {
	var tr Tracker
	if tr.Current() != types.MinTime {
		t.Fatal("initial watermark should be -inf")
	}
	if !tr.Advance(types.ClockTime(8, 5)) {
		t.Fatal("first advance should succeed")
	}
	if tr.Advance(types.ClockTime(8, 4)) {
		t.Fatal("regression should be ignored")
	}
	if tr.Current() != types.ClockTime(8, 5) {
		t.Fatalf("current = %v", tr.Current())
	}
	if !tr.Advance(types.ClockTime(8, 8)) {
		t.Fatal("forward advance should succeed")
	}
}

func TestQuickTrackerNeverRegresses(t *testing.T) {
	f := func(vals []int64) bool {
		var tr Tracker
		prev := tr.Current()
		for _, v := range vals {
			tr.Advance(types.Time(v % 1000000))
			if tr.Current() < prev {
				return false
			}
			prev = tr.Current()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundedOutOfOrderness(t *testing.T) {
	g := NewBoundedOutOfOrderness(2 * types.Minute)
	if g.Current() != types.MinTime {
		t.Fatal("initial should be -inf")
	}
	if wm := g.Observe(types.ClockTime(8, 10)); wm != types.ClockTime(8, 8) {
		t.Fatalf("wm = %v", wm)
	}
	// Late event does not move the watermark backwards.
	if wm := g.Observe(types.ClockTime(8, 5)); wm != types.ClockTime(8, 8) {
		t.Fatalf("wm after late event = %v", wm)
	}
	if wm := g.Observe(types.ClockTime(8, 20)); wm != types.ClockTime(8, 18) {
		t.Fatalf("wm = %v", wm)
	}
}
