// Command benchdiff compares two standing-query benchmark records
// (BENCH_live*.json) — typically the committed baseline and a fresh run at
// the same scale — and prints per-subscription ingest throughput and delta
// latency deltas (including the K-subscriber shared-plan fan-out rows) plus
// the recovery rows, so a perf regression is visible as one table in a PR.
// `make bench-diff` wires it like for like: a fresh short run against the
// committed short-mode baseline.
//
// Usage:
//
//	benchdiff OLD.json NEW.json
//
// Exit status is 0 even when throughput regressed: environment stamps
// (cores, load) still differ between runs, so judging is left to the reader;
// a scale/environment mismatch between the two records is called out in the
// header.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

// record is the on-disk shape of a live record.
type record struct {
	Benchmark     string                 `json:"benchmark"`
	Timestamp     string                 `json:"timestamp"`
	GoMaxProcs    int                    `json:"gomaxprocs"`
	ShortMode     bool                   `json:"short_mode"`
	Subscriptions []bench.LiveResult     `json:"subscriptions"`
	Recovery      []bench.RecoveryResult `json:"recovery"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintf(os.Stderr, "usage: %s OLD.json NEW.json\n", os.Args[0])
		os.Exit(2)
	}
	oldRec, err := load(os.Args[1])
	if err != nil {
		fatal(err)
	}
	newRec, err := load(os.Args[2])
	if err != nil {
		fatal(err)
	}
	header(os.Stdout, oldRec, newRec)
	if len(newRec.Subscriptions) > 0 || len(oldRec.Subscriptions) > 0 {
		diffLive(os.Stdout, oldRec, newRec)
	}
	if len(newRec.Recovery) > 0 || len(oldRec.Recovery) > 0 {
		diffRecovery(os.Stdout, oldRec, newRec)
	}
}

func load(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}

func header(w *os.File, oldRec, newRec *record) {
	fmt.Fprintf(w, "baseline: %s %s (%d entries, gomaxprocs=%d, short=%v)\n",
		oldRec.Benchmark, oldRec.Timestamp, len(oldRec.Subscriptions),
		oldRec.GoMaxProcs, oldRec.ShortMode)
	fmt.Fprintf(w, "fresh:    %s %s (%d entries, gomaxprocs=%d, short=%v)\n\n",
		newRec.Benchmark, newRec.Timestamp, len(newRec.Subscriptions),
		newRec.GoMaxProcs, newRec.ShortMode)
	if oldRec.ShortMode != newRec.ShortMode || oldRec.GoMaxProcs != newRec.GoMaxProcs {
		fmt.Fprintf(w, "note: environments differ; deltas are indicative only\n\n")
	}
}

// liveKey identifies a standing-query scenario across records: the same
// query measured at a different mode, fan-out width, sharing posture, shard
// count, query count, or pinned GOMAXPROCS is a different row. The
// shard/query/proc fields are zero for pre-sharding records, so old
// baselines keep matching.
func liveKey(q bench.LiveResult) string {
	return fmt.Sprintf("%s/%s/k%d/shared=%v/sh%d/q%d/procs%d",
		q.Query, q.Mode, q.Subscribers, q.Shared, q.Shards, q.Queries, q.Procs)
}

func diffLive(w *os.File, oldRec, newRec *record) {
	byKey := make(map[string]bench.LiveResult, len(oldRec.Subscriptions))
	for _, q := range oldRec.Subscriptions {
		byKey[liveKey(q)] = q
	}
	fmt.Fprintf(w, "%-40s %-6s %3s %7s %3s %5s %12s %10s %10s %12s %8s\n",
		"subscription", "mode", "k", "shared", "sh", "procs", "ingest ev/s", "p50", "p99", "baseline", "delta")
	for _, nq := range newRec.Subscriptions {
		line := fmt.Sprintf("%-40.40s %-6s %3d %7v %3d %5d %12.0f %10s %10s",
			nq.Query, nq.Mode, nq.Subscribers, nq.Shared, nq.Shards, nq.Procs, nq.EventsPerSec,
			time.Duration(nq.LatencyP50Ns), time.Duration(nq.LatencyP99Ns))
		oq, ok := byKey[liveKey(nq)]
		if !ok {
			fmt.Fprintf(w, "%s %12s %8s\n", line, "(new)", "")
			continue
		}
		delete(byKey, liveKey(nq))
		fmt.Fprintf(w, "%s %12.0f %+7.1f%%\n", line, oq.EventsPerSec, pct(nq.EventsPerSec, oq.EventsPerSec))
	}
	for _, oq := range oldRec.Subscriptions {
		if _, gone := byKey[liveKey(oq)]; gone {
			fmt.Fprintf(w, "%-40.40s %-6s %3d %7v %3d %5d %12s (removed, was %.0f ev/s)\n",
				oq.Query, oq.Mode, oq.Subscribers, oq.Shared, oq.Shards, oq.Procs, "-", oq.EventsPerSec)
		}
	}
}

// recoveryKey identifies a checkpoint/restore (or steady-state durability)
// scenario across records. Durability rows repeat one query at several
// history sizes, so the event count joins the key.
func recoveryKey(q bench.RecoveryResult) string {
	return fmt.Sprintf("%s/%s/e%d", q.Query, q.Mode, q.Events)
}

// diffRecovery prints the checkpoint-size and restore-vs-replay deltas from
// the Recovery section of live records (`make bench-recovery`), then the
// steady-state durability rows (fixed WAL delta vs full snapshot, keyed by
// history size) when either record carries them.
func diffRecovery(w *os.File, oldRec, newRec *record) {
	byKey := make(map[string]bench.RecoveryResult, len(oldRec.Recovery))
	for _, q := range oldRec.Recovery {
		byKey[recoveryKey(q)] = q
	}
	fmt.Fprintf(w, "\n%-40s %10s %10s %10s %9s %9s %8s\n",
		"recovery", "ckpt KiB", "restore", "replay", "speedup", "baseline", "delta")
	for _, nq := range newRec.Recovery {
		if nq.DeltaEvents > 0 {
			continue // durability rows get their own table below
		}
		line := fmt.Sprintf("%-40.40s %10.1f %10s %10s %8.2fx",
			nq.Query, float64(nq.CheckpointBytes)/1024,
			time.Duration(nq.RestoreNs), time.Duration(nq.ReplayNs), nq.Speedup)
		oq, ok := byKey[recoveryKey(nq)]
		if !ok {
			fmt.Fprintf(w, "%s %9s %8s\n", line, "(new)", "")
			continue
		}
		delete(byKey, recoveryKey(nq))
		fmt.Fprintf(w, "%s %8.2fx %+7.1f%%\n", line, oq.Speedup, pct(nq.Speedup, oq.Speedup))
	}
	for _, oq := range oldRec.Recovery {
		if oq.DeltaEvents > 0 {
			continue
		}
		if _, gone := byKey[recoveryKey(oq)]; gone {
			fmt.Fprintf(w, "%-40.40s %10s %10s %10s %9s (removed, was %.2fx)\n",
				oq.Query, "-", "-", "-", "-", oq.Speedup)
		}
	}
	diffDurability(w, oldRec, newRec, byKey)
}

// diffDurability prints the steady-state durability rows: the WAL bytes and
// fsyncs one fixed delta cost at each history size, next to the full-snapshot
// alternative. The baseline comparison tracks the WAL interval bytes — the
// number that must stay flat as history grows.
func diffDurability(w *os.File, oldRec, newRec *record, byKey map[string]bench.RecoveryResult) {
	any := false
	for _, q := range newRec.Recovery {
		any = any || q.DeltaEvents > 0
	}
	for _, q := range oldRec.Recovery {
		any = any || q.DeltaEvents > 0
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "\n%-40s %9s %7s %9s %6s %10s %9s %8s\n",
		"durability (per-delta cost)", "history", "delta", "wal KiB", "syncs", "snap KiB", "baseline", "delta")
	for _, nq := range newRec.Recovery {
		if nq.DeltaEvents == 0 {
			continue
		}
		line := fmt.Sprintf("%-40.40s %9d %7d %9.1f %6d %10.1f",
			nq.Query, nq.Events, nq.DeltaEvents, float64(nq.WalIntervalBytes)/1024,
			nq.WalIntervalSyncs, float64(nq.CheckpointBytes)/1024)
		oq, ok := byKey[recoveryKey(nq)]
		if !ok {
			fmt.Fprintf(w, "%s %9s %8s\n", line, "(new)", "")
			continue
		}
		delete(byKey, recoveryKey(nq))
		fmt.Fprintf(w, "%s %8.1fK %+7.1f%%\n", line, float64(oq.WalIntervalBytes)/1024,
			pct(float64(nq.WalIntervalBytes), float64(oq.WalIntervalBytes)))
	}
	for _, oq := range oldRec.Recovery {
		if oq.DeltaEvents == 0 {
			continue
		}
		if _, gone := byKey[recoveryKey(oq)]; gone {
			fmt.Fprintf(w, "%-40.40s %9d %7d %9s %6s %10s (removed, was %.1f KiB)\n",
				oq.Query, oq.Events, oq.DeltaEvents, "-", "-", "-", float64(oq.WalIntervalBytes)/1024)
		}
	}
}

func pct(now, was float64) float64 {
	if was == 0 {
		return 0
	}
	return (now/was - 1) * 100
}
