package exec

import (
	"reflect"
	"testing"

	"repro/internal/tvr"
	"repro/internal/types"
)

// TestMergedRunsCutTiesAtHorizon pins the horizon cut of forEachMergedRuns:
// every event with ptime <= upTo is delivered, ties at upTo included, and
// nothing after, in (ptime, scan rank) order, on both the single-source
// fast path and the k-way merge.
func TestMergedRunsCutTiesAtHorizon(t *testing.T) {
	ev := func(pt int64, v int64) tvr.Event {
		return tvr.InsertEvent(types.Time(pt), types.Row{types.NewInt(v)})
	}
	s := tvr.Changelog{ev(1, 10), ev(2, 11), ev(2, 12), ev(2, 13), ev(3, 14)}
	r := tvr.Changelog{ev(2, 20), ev(2, 21), ev(4, 22)}
	cases := []struct {
		name  string
		batch []Source
		upTo  types.Time
		want  []int64 // delivered values, in order
	}{
		{"single/ties", []Source{{Name: "s", Log: s}}, 2, []int64{10, 11, 12, 13}},
		{"single/before-all", []Source{{Name: "s", Log: s}}, 0, nil},
		{"single/all", []Source{{Name: "s", Log: s}}, 3, []int64{10, 11, 12, 13, 14}},
		{"merge/ties", []Source{{Name: "s", Log: s}, {Name: "r", Log: r}}, 2, []int64{10, 11, 12, 13, 20, 21}},
		{"merge/one-each-side", []Source{{Name: "s", Log: s}, {Name: "r", Log: r}}, 1, []int64{10}},
		{"merge/past-one-log", []Source{{Name: "s", Log: s}, {Name: "r", Log: r}}, 3, []int64{10, 11, 12, 13, 20, 21, 14}},
		{"merge/unbounded", []Source{{Name: "s", Log: s}, {Name: "r", Log: r}}, types.MaxTime, []int64{10, 11, 12, 13, 20, 21, 14, 22}},
	}
	for _, c := range cases {
		var got []int64
		err := forEachMergedRuns(c.batch, []string{"s", "r"}, c.upTo, false, func(rank int, evs []tvr.Event) error {
			for _, e := range evs {
				got = append(got, e.Row[0].Int())
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: delivered %v, want %v", c.name, got, c.want)
		}
	}
}
