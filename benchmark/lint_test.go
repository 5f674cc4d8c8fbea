package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is read by a driver that refuses the file outright when it
// breaks a limit, so the limits are checked here first, and the file is held
// to the harness's own tables: a metric the harness emits but the file does
// not declare (or the reverse) is a failure.
func TestBenchmarkJSONLint(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	decl, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err) // unknown keys are refused
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range decl.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range decl.EndToEnd {
		checkName(m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`end_to_end lacks setup_s with unit "s", better "lower"`)
	}
	for _, m := range decl.PerLayer {
		checkName(m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]declaredMetric(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", decl.RunSeconds)
	}
	// 4 + 22 x workloads runs, with set-up and two builds, in 3420 s: a run
	// may take 30 s of wall time at most, and measures run_seconds of it.
	if runs := 4 + 22*len(decl.Workloads); runs*30 > 3420-300 {
		t.Errorf("%d runs of 30 s do not fit the driver's 3420 s", runs)
	}
	if len(decl.Command) == 0 || len(decl.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(decl.Command))
	}
	for _, p := range decl.Paths {
		if strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q leaves the repo", p)
		}
	}

	if want := declaration(); !reflect.DeepEqual(*decl, want) {
		got, _ := json.MarshalIndent(decl, "", "  ")
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the harness's tables (metrics.go, workload.go)\nfile:\n%s\nharness:\n%s", got, exp)
	}
}

// README.md is where a reader finds what each number means; a metric or
// workload it does not name is undocumented.
func TestReadmeNamesEverything(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, d := range metricDefs {
		if !strings.Contains(text, "`"+d.name+"`") {
			t.Errorf("README.md does not name metric `%s`", d.name)
		}
	}
	for _, w := range workloads() {
		if !strings.Contains(text, "`"+w.name+"`") {
			t.Errorf("README.md does not name workload `%s`", w.name)
		}
	}
}
