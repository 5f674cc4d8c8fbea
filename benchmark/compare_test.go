package main

import (
	"strings"
	"testing"
)

// compare must not call a pair "within bound" that it could not judge: a
// file with one run is judged by that run's cycles, a noisy pair is
// unresolved, and a declared metric a file lacks is a breach.
func TestCompareVerdicts(t *testing.T) {
	bound := 0.10
	decl := &benchmarkJSON{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}},
		EndToEnd: []declaredMetric{{Name: "setup_s", Unit: "s", Better: "lower", Bound: &bound}},
	}
	file := func(value float64, cycles ...float64) resultFile {
		return resultFile{Runs: []*runResult{{
			Workload: "w", Correct: true,
			Metrics:  map[string]float64{"setup_s": value},
			PerCycle: map[string][]float64{"setup_s": cycles},
		}}}
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name                 string
		a, b                 resultFile
		breaches, unresolved int
		says                 string
	}{
		{"same", file(1, steady...), file(1.02, steady...), 0, 0, "within bound"},
		{"worse by more than the bound", file(1, steady...), file(1.2, steady...), 1, 0, "REGRESSION"},
		{"one run's cycles scatter wider than the bound", file(1, steady...), file(1.2, 0.8, 1.0, 1.2, 1.4, 1.6), 0, 1, "unresolved (spread"},
		{"one run without cycles", file(1, steady...), file(1), 0, 1, "unresolved (no spread"},
		{"metric absent from b", file(1, steady...), resultFile{}, 1, 0, "MISSING"},
	}
	for _, c := range cases {
		var out strings.Builder
		breaches, unresolved := compareFiles(&out, decl, c.a, c.b)
		if breaches != c.breaches || unresolved != c.unresolved || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: %d breaches, %d unresolved, want %d, %d and %q in:\n%s", c.name, breaches, unresolved, c.breaches, c.unresolved, c.says, out.String())
		}
	}
}
