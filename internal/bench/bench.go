// Package bench is a small benchmark reporter for the in-process
// standing-query benchmarks: it collects subscription and recovery
// measurements and writes them as a JSON perf record. The record captures the
// execution environment (GOMAXPROCS, CPU count) because a timing is only
// meaningful relative to the hardware that produced it.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// LiveResult is one standing-query subscription measurement: steady-state
// ingest throughput and the distribution of per-delta delivery latency
// (ingest call start to delta receipt).
type LiveResult struct {
	// Query is the standing query's short description.
	Query string `json:"query"`
	// Mode is the delta rendering ("stream" or "table").
	Mode string `json:"mode"`
	// Subscribers is the number of concurrent subscriptions to the query.
	Subscribers int `json:"subscribers"`
	// Shared reports whether the subscriptions shared one resident
	// pipeline (plan cache on) or each ran a dedicated pipeline.
	Shared bool `json:"shared"`
	// Shards is the fan-out configuration: 0 means the serial fan-out
	// (deliveries run on the ingesting goroutine), N > 0 means N shard
	// workers applying commits asynchronously in commit order.
	Shards int `json:"shards,omitempty"`
	// Queries is the number of distinct standing queries fed by the same
	// ingest in a multi-query scaling scenario (0/1 = single query).
	Queries int `json:"queries,omitempty"`
	// Procs is the GOMAXPROCS the scenario pinned for the measurement
	// (0 = the process default, recorded in the record header).
	Procs int `json:"procs,omitempty"`
	// Events is the number of source events ingested while subscribed.
	Events int `json:"events"`
	// Deltas / Rows count deliveries and output rows received.
	Deltas int64 `json:"deltas"`
	Rows   int64 `json:"rows"`
	// IngestNs is the total wall-clock time spent ingesting.
	IngestNs int64 `json:"ingest_ns"`
	// EventsPerSec is the steady-state ingest throughput with the
	// subscription attached.
	EventsPerSec float64 `json:"events_per_sec"`
	// Latency percentiles over per-delta delivery latencies.
	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP95Ns int64 `json:"latency_p95_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`
	LatencyMaxNs int64 `json:"latency_max_ns"`
}

// RecoveryResult is one checkpoint/restore measurement: how big the durable
// snapshot of an engine (catalog + resident standing-query pipelines) is,
// and how restoring from it compares with rebuilding the same standing query
// by full-history replay.
type RecoveryResult struct {
	// Query is the standing query measured.
	Query string `json:"query"`
	// Mode is the delta rendering ("stream" or "table").
	Mode string `json:"mode"`
	// Events is the number of source events ingested before the checkpoint.
	Events int `json:"events"`
	// DeltaEvents, when non-zero, marks this row as a steady-state
	// durability measurement: with Events of history already resident, the
	// next DeltaEvents were committed through the write-ahead log and the
	// WalInterval* counters record what staying durable for just that
	// interval cost — versus CheckpointBytes, the price of re-snapshotting
	// the whole engine at this history size.
	DeltaEvents int `json:"delta_events,omitempty"`
	// WalIntervalBytes / WalIntervalSyncs are the bytes fsynced and fsync
	// calls the WAL spent committing the DeltaEvents interval.
	WalIntervalBytes int64 `json:"wal_interval_bytes,omitempty"`
	WalIntervalSyncs int64 `json:"wal_interval_syncs,omitempty"`
	// CheckpointBytes is the encoded size of the engine checkpoint.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// CheckpointNs is the median wall-clock time to take the checkpoint.
	CheckpointNs int64 `json:"checkpoint_ns"`
	// RestoreNs is the median wall-clock time to restore a fresh engine
	// (catalog + resident pipeline) from the checkpoint bytes.
	RestoreNs int64 `json:"restore_ns"`
	// ReplayNs is the median wall-clock time to rebuild the same standing
	// query the pre-checkpoint way: compile and replay the full recorded
	// history through a new pipeline.
	ReplayNs int64 `json:"replay_ns"`
	// Speedup is ReplayNs / RestoreNs — how much faster recovery is than
	// the replay it replaces.
	Speedup float64 `json:"speedup"`
}

// LiveRecord is a full standing-query benchmark run.
type LiveRecord struct {
	Benchmark     string       `json:"benchmark"`
	Timestamp     string       `json:"timestamp"`
	GoVersion     string       `json:"go_version"`
	GoMaxProcs    int          `json:"gomaxprocs"`
	NumCPU        int          `json:"num_cpu"`
	ShortMode     bool         `json:"short_mode"`
	Subscriptions []LiveResult `json:"subscriptions"`
	// Recovery holds checkpoint/restore measurements (populated by
	// `make bench-recovery`; preserved by the subscription benchmark when
	// it rewrites the file, and vice versa).
	Recovery []RecoveryResult `json:"recovery,omitempty"`
}

// LoadLive reads a live record from disk. A missing file returns (nil, nil)
// so benchmarks that merge into an existing record can start fresh.
func LoadLive(path string) (*LiveRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var rec LiveRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("bench: read %s: %w", path, err)
	}
	return &rec, nil
}

// AddRecovery appends one recovery measurement, deriving the speedup field.
func (r *LiveRecord) AddRecovery(q RecoveryResult) {
	if q.RestoreNs > 0 {
		q.Speedup = float64(q.ReplayNs) / float64(q.RestoreNs)
	}
	r.Recovery = append(r.Recovery, q)
}

// NewLive creates a live record stamped with the current environment.
func NewLive(name string, short bool) *LiveRecord {
	return &LiveRecord{
		Benchmark:  name,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		ShortMode:  short,
	}
}

// Add appends one subscription measurement, deriving the throughput field.
func (r *LiveRecord) Add(q LiveResult) {
	if q.IngestNs > 0 {
		q.EventsPerSec = float64(q.Events) / (float64(q.IngestNs) / 1e9)
	}
	r.Subscriptions = append(r.Subscriptions, q)
}

// WriteFile writes the live record as indented JSON.
func (r *LiveRecord) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return nil
}

// PercentileNs returns the p-th percentile (0 < p <= 1) of the samples using
// the nearest-rank method. The input is not modified.
func PercentileNs(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]int64, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// MedianNs times fn over runs executions and returns the median wall-clock
// nanoseconds. The median (rather than the minimum or mean) keeps one-off
// scheduler hiccups from dominating small benchmark runs.
func MedianNs(runs int, fn func() error) (int64, error) {
	if runs < 1 {
		runs = 1
	}
	times := make([]int64, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Nanoseconds())
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}
