package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// leftovers lists what a run must not leave behind: processes running the
// server binary and data or WAL directories under outDir.
func leftovers(t *testing.T, bin, outDir string) []string {
	t.Helper()
	var left []string
	procs, err := filepath.Glob("/proc/[0-9]*/exe")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		if exe, err := os.Readlink(p); err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			left = append(left, "process "+p)
		}
	}
	entries, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			left = append(left, "directory "+e.Name())
		}
	}
	return left
}

// TestSmoke runs the whole benchmark at 1/100 size over a real listener:
// all four workloads, end to end and traced, including the durable
// workload's SIGKILL and recovery.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/serve")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	outDir := t.TempDir()
	bin, buildTime, err := buildServer(ctx, "..", outDir)
	if err != nil {
		t.Fatal(err)
	}
	// One cycle per run keeps the test short; the cycles are identical code.
	cfg := runConfig{outDir: outDir, bin: bin, buildS: buildTime.Seconds(), seed: 3, seconds: 0.1, cycles: 1}

	emitted := map[string]bool{}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			cfg.w, cfg.trace = w, traced
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Metrics["client.failed_share"] != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if res.Hash == "" || res.Attempted == 0 {
				t.Errorf("%s trace=%v: nothing verified", w.name, traced)
			}
			for name, v := range res.Metrics {
				d, ok := metricByName(name)
				if !ok {
					t.Errorf("%s: harness emits %s, which metrics.go does not declare", w.name, name)
				}
				emitted[name] = true
				// At 1/100 size the saturate phase is shorter than the 10 ms
				// tick /proc counts CPU in, so that one figure may read 0.
				if d.group == endToEnd && v <= 0 && name != "server_cpu_s_per_mevent" {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v)
				}
			}
			for _, d := range metricDefs {
				if _, ok := res.Metrics[d.name]; d.group == endToEnd && !ok {
					t.Errorf("%s trace=%v: end-to-end metric %s not emitted", w.name, traced, d.name)
				}
			}
			if w.durable && res.Metrics["recovery.restart_s"] <= 0 {
				t.Errorf("%s: no recovery was timed", w.name)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
	for _, d := range metricDefs {
		if !emitted[d.name] {
			t.Errorf("metrics.go declares %s, which no workload emits", d.name)
		}
	}
	if left := leftovers(t, bin, outDir); len(left) > 0 {
		t.Errorf("left behind after the runs: %v", left)
	}

	// A run that fails part-way (here: its context ends during the paced
	// phase, as on SIGINT) must still stop its server and remove its data.
	short, stop := context.WithTimeout(ctx, 500*time.Millisecond)
	defer stop()
	cfg.w, cfg.trace, cfg.seconds = workloads()[1], false, 10
	if _, err := runWorkload(short, cfg); err == nil {
		t.Error("a run whose context ended reported success")
	}
	if left := leftovers(t, bin, outDir); len(left) > 0 {
		t.Errorf("left behind after an interrupted run: %v", left)
	}
}
