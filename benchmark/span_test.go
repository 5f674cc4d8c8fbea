package main

import "testing"

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64 // self time per span id
	}{
		{"no children", []span{{0, "root", 0, 100, -1, 0}}, []int64{100}},
		{"nested", []span{
			{0, "root", 0, 100, -1, 0},
			{1, "child", 10, 60, 0, 0},
			{2, "grandchild", 20, 30, 1, 0},
		}, []int64{50, 40, 10}},
		{"back to back", []span{
			{0, "root", 0, 100, -1, 0},
			{1, "a", 0, 30, 0, 0},
			{2, "b", 30, 70, 0, 0},
		}, []int64{30, 30, 40}},
		{"overlapping children count once", []span{
			{0, "root", 0, 100, -1, 0},
			{1, "a", 10, 50, 0, 0},
			{2, "b", 40, 80, 0, 0},
			{3, "c", 45, 60, 0, 0},
		}, []int64{30, 40, 40, 15}},
		{"children longer than the parent", []span{
			{0, "root", 100, 200, -1, 0},
			{1, "a", 100, 180, 0, 0},
			{2, "b", 180, 260, 0, 0},
			{3, "before", 0, 50, 0, 0},
		}, []int64{0, 80, 80, 50}},
		{"two requests", []span{
			{0, "root", 0, 10, -1, 0},
			{1, "root", 10, 30, -1, 1},
			{2, "a", 12, 20, 1, 1},
		}, []int64{10, 12, 8}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: span %d self = %d, want %d", c.name, i, got[i], c.want[i])
			}
			if got[i] < 0 {
				t.Errorf("%s: span %d self time is negative", c.name, i)
			}
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Fatalf("one value: spread %v, want 0", got)
	}
}
