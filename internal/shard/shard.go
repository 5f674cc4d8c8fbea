// Package shard implements the sharded ingest subsystem behind the live
// manager: a global commit sequencer plus a pool of shard workers, each with
// a bounded FIFO ingest queue.
//
// The division of labor is the paper-preserving part. A commit still happens
// under one short critical section (the manager's ordering lock): validate,
// write-ahead-log, apply to the catalog, acquire the next global sequence
// number — ack == durable is unchanged. Only the fan-out moves off the
// committing goroutine: every resident session is placed on exactly one
// shard (a hash of its pipeline id, never rebalanced), and the commit
// enqueues one task per affected shard while still inside the critical
// section. Per-shard queues are FIFO and each shard has a single worker, so
// a shard applies its tasks in exactly the global commit order restricted to
// its sessions — which is why a subscriber's delta sequence through the
// sharded path is byte-identical to the serial fan-out, and why a
// Block-policy subscriber that stops draining stalls only its own shard.
//
// Backpressure composes: a full shard queue blocks Enqueue, i.e. the
// committing publisher, exactly as a parked serial fan-out would — just with
// `depth` commits of slack instead of zero.
package shard

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// Sequencer issues global commit sequence numbers and tracks the last
// broadcast processing-time heartbeat. Both values are advanced only inside
// the owning manager's commit critical section, so they are authoritative
// ordering-path state; reads are atomic and lock-free, which is what lets a
// registration catch a new session up to the clock without racing the
// asynchronous shard application of the very heartbeats it reads.
type Sequencer struct {
	seq    atomic.Uint64
	lastPt atomic.Int64 // types.Time
}

// NewSequencer starts at sequence 0 with the clock at MinTime.
func NewSequencer() *Sequencer {
	q := &Sequencer{}
	q.lastPt.Store(int64(types.MinTime))
	return q
}

// Next allocates the next commit sequence number. Call only inside the
// commit critical section.
func (q *Sequencer) Next() uint64 { return q.seq.Add(1) }

// RecordHeartbeat advances the last-heartbeat clock to pt if it moved
// forward. Call only inside the commit critical section, before the
// heartbeat is enqueued to any shard.
func (q *Sequencer) RecordHeartbeat(pt types.Time) {
	if pt > types.Time(q.lastPt.Load()) {
		q.lastPt.Store(int64(pt))
	}
}

// LastHeartbeat returns the latest committed heartbeat (MinTime = none).
// Lock-free: safe from any goroutine.
func (q *Sequencer) LastHeartbeat() types.Time { return types.Time(q.lastPt.Load()) }

// Task is one sequenced unit of fan-out work on one shard.
type Task struct {
	// Seq is the commit's global sequence number, for lag observability.
	Seq uint64
	// Apply performs the fan-out (feeding the shard's matching sessions).
	// It must not take the enqueuing manager's lock: a publisher may hold
	// it while blocked on this shard's full queue.
	Apply func()
}

// Stat is one shard's point-in-time queue observability snapshot.
type Stat struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Depth is the number of tasks queued but not yet picked up.
	Depth int `json:"depth"`
	// Lag is the number of enqueued tasks not yet fully applied
	// (Depth plus any task the worker is mid-apply).
	Lag int `json:"lag"`
	// LastSeq is the sequence number of the last fully applied task.
	LastSeq uint64 `json:"lastSeq"`
}

// worker is one shard: a FIFO task queue and the single goroutine applying
// it. enqueued/applied are cumulative task counts; waiting on
// applied >= enqueued-at-some-instant is the drain barrier.
type worker struct {
	tasks    chan Task
	enqueued atomic.Uint64
	applied  atomic.Uint64
	lastSeq  atomic.Uint64

	// mApply (nil without observability) records per-task apply latency.
	// Set before the worker goroutine starts; methods are nil-safe.
	mApply *obs.Histogram

	mu   sync.Mutex
	cond *sync.Cond
	done bool // the worker goroutine has exited
}

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for t := range w.tasks {
		t0 := time.Now()
		runTask(t)
		w.mApply.ObserveSince(t0)
		w.lastSeq.Store(t.Seq)
		w.mu.Lock()
		w.applied.Add(1)
		w.cond.Broadcast()
		w.mu.Unlock()
	}
	w.mu.Lock()
	w.done = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// runTask is the worker's last-resort panic backstop. The fan-out layer
// (internal/live) converts per-session panics to session errors before
// they reach the task boundary; anything that still escapes must not kill
// the worker goroutine — a dead worker would silently wedge its shard's
// queue and every drain barrier behind it. The sequence point is still
// recorded by the caller, so barriers keep advancing.
func runTask(t Task) {
	defer func() { recover() }() //nolint:errcheck
	t.Apply()
}

// waitApplied blocks until the worker has applied at least target tasks (or
// has shut down). The fast path is one atomic load.
func (w *worker) waitApplied(target uint64) {
	if w.applied.Load() >= target {
		return
	}
	w.mu.Lock()
	for w.applied.Load() < target && !w.done {
		w.cond.Wait()
	}
	w.mu.Unlock()
}

// Pool is a fixed set of shard workers. It is created with its final shard
// count; sessions are never rebalanced across shards.
type Pool struct {
	workers []*worker
	wg      sync.WaitGroup
	closed  atomic.Bool
}

// DefaultQueueDepth bounds each shard's ingest queue when the caller does
// not choose one: enough slack to decouple the committer from transient
// consumer stalls, small enough that backpressure still reaches the
// publisher quickly.
const DefaultQueueDepth = 64

// NewPoolObs starts n shard workers with bounded queues of the given depth
// (DefaultQueueDepth when depth <= 0); n must be >= 1. With a non-nil reg the
// shard_* metric families are registered on it. Per-shard queue
// depth/lag gauges and enqueue/apply counters are sampled from the workers'
// existing atomics at scrape time; apply latency is recorded by the worker
// goroutine into a pool-wide histogram. All metric state is wired before
// any worker goroutine starts, so workers never race the registration.
func NewPoolObs(n, depth int, reg *obs.Registry) *Pool {
	if n < 1 {
		n = 1
	}
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	p := &Pool{workers: make([]*worker, n)}
	var mApply *obs.Histogram
	if reg != nil {
		mApply = reg.Histogram("shard_apply_seconds", "Per-task shard apply latency.",
			obs.DurationScale, obs.DurationBuckets)
	}
	for i := range p.workers {
		w := &worker{tasks: make(chan Task, depth), mApply: mApply}
		w.cond = sync.NewCond(&w.mu)
		p.workers[i] = w
		if reg != nil {
			sh := strconv.Itoa(i)
			reg.GaugeFunc("shard_queue_depth", "Tasks queued but not yet picked up, per shard.",
				func() float64 { return float64(len(w.tasks)) }, "shard", sh)
			reg.GaugeFunc("shard_lag", "Enqueued tasks not yet fully applied, per shard.",
				func() float64 { return float64(w.enqueued.Load() - w.applied.Load()) }, "shard", sh)
			reg.CounterFunc("shard_enqueued_total", "Tasks enqueued, per shard.",
				func() float64 { return float64(w.enqueued.Load()) }, "shard", sh)
			reg.CounterFunc("shard_applied_total", "Tasks fully applied, per shard.",
				func() float64 { return float64(w.applied.Load()) }, "shard", sh)
		}
		p.wg.Add(1)
		go w.run(&p.wg)
	}
	return p
}

// Shards reports the number of shard workers.
func (p *Pool) Shards() int { return len(p.workers) }

// ShardOf places a pipeline id on its shard: an FNV-1a hash of the id,
// modulo the shard count. The placement is a pure function of (id, shards),
// so a session stays on one shard for its whole life.
func (p *Pool) ShardOf(id int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	v := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return int(h % uint64(len(p.workers)))
}

// Enqueue appends one task to a shard's FIFO queue, blocking while the
// queue is full (that block is the backpressure path to the publisher).
// Callers serialize Enqueue under their commit critical section; per-shard
// FIFO order therefore equals global commit order restricted to the shard.
func (p *Pool) Enqueue(sh int, seq uint64, apply func()) {
	w := p.workers[sh]
	w.enqueued.Add(1)
	w.tasks <- Task{Seq: seq, Apply: apply}
}

// DrainShard blocks until every task enqueued to the shard before the call
// has been applied. Lock-free bookkeeping: it captures the shard's enqueued
// watermark once, so tasks enqueued concurrently with the drain are not
// waited for.
func (p *Pool) DrainShard(sh int) {
	w := p.workers[sh]
	w.waitApplied(w.enqueued.Load())
}

// Drain is DrainShard over every shard: afterwards, every commit enqueued
// before the call is applied. This is the quiesce barrier CheckpointAll and
// read-your-writes waits use.
func (p *Pool) Drain() {
	for i := range p.workers {
		p.DrainShard(i)
	}
}

// Close drains and stops the workers. Enqueue must not be called after (or
// concurrently with) Close; pending tasks are applied before the workers
// exit, so Close is itself a drain barrier. Idempotent.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	for _, w := range p.workers {
		close(w.tasks)
	}
	p.wg.Wait()
}

// Stats snapshots every shard's queue state. Lock-free.
func (p *Pool) Stats() []Stat {
	out := make([]Stat, len(p.workers))
	for i, w := range p.workers {
		enq, app := w.enqueued.Load(), w.applied.Load()
		out[i] = Stat{
			Shard:   i,
			Depth:   len(w.tasks),
			Lag:     int(enq - app),
			LastSeq: w.lastSeq.Load(),
		}
	}
	return out
}
