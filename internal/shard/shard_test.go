package shard_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/types"
)

// TestPerShardFIFO is the ordering contract: tasks enqueued to one shard are
// applied strictly in enqueue order, while different shards proceed
// independently.
func TestPerShardFIFO(t *testing.T) {
	p := shard.NewPoolObs(4, 8, nil)
	defer p.Close()
	const perShard = 200
	got := make([][]uint64, p.Shards())
	var mu sync.Mutex
	var seq uint64
	for i := 0; i < perShard; i++ {
		for sh := 0; sh < p.Shards(); sh++ {
			sh := sh
			seq++
			s := seq
			p.Enqueue(sh, s, func() {
				mu.Lock()
				got[sh] = append(got[sh], s)
				mu.Unlock()
			})
		}
	}
	p.Drain()
	mu.Lock()
	defer mu.Unlock()
	for sh, seqs := range got {
		if len(seqs) != perShard {
			t.Fatalf("shard %d applied %d tasks, want %d", sh, len(seqs), perShard)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("shard %d applied out of order: %d after %d", sh, seqs[i], seqs[i-1])
			}
		}
	}
}

// TestDrainShardBarrier: DrainShard waits for everything enqueued before the
// call, and only on that shard.
func TestDrainShardBarrier(t *testing.T) {
	p := shard.NewPoolObs(2, 8, nil)
	defer p.Close()
	release := make(chan struct{})
	var applied atomic.Int64
	// Shard 1 is wedged on a task that waits for release; shard 0 is free.
	p.Enqueue(1, 1, func() { <-release })
	p.Enqueue(0, 2, func() { applied.Add(1) })
	p.DrainShard(0) // must not wait on the wedged shard 1
	if n := applied.Load(); n != 1 {
		t.Fatalf("shard 0 applied %d tasks after DrainShard(0), want 1", n)
	}
	done := make(chan struct{})
	go func() {
		p.DrainShard(1)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("DrainShard(1) returned while its task was still blocked")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("DrainShard(1) did not return after the task unblocked")
	}
}

// TestEnqueueBackpressure: a full bounded queue blocks Enqueue until the
// worker makes space — the publisher-facing backpressure path.
func TestEnqueueBackpressure(t *testing.T) {
	p := shard.NewPoolObs(1, 1, nil)
	defer p.Close()
	release := make(chan struct{})
	p.Enqueue(0, 1, func() { <-release }) // worker picks this up and blocks
	// Wait for the worker to take the task so the queue slot frees.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats()[0].Depth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the first task")
		}
		time.Sleep(time.Millisecond)
	}
	p.Enqueue(0, 2, func() {}) // fills the queue
	blocked := make(chan struct{})
	go func() {
		p.Enqueue(0, 3, func() {}) // must block: queue full
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("Enqueue returned on a full queue")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Enqueue never unblocked after the worker drained")
	}
	p.Drain()
	st := p.Stats()[0]
	if st.Lag != 0 || st.LastSeq != 3 {
		t.Fatalf("after drain: lag=%d lastSeq=%d, want 0/3", st.Lag, st.LastSeq)
	}
}

// TestShardOfStable: placement is a pure function of the id — the
// rebalance-free property — and spreads ids across shards.
func TestShardOfStable(t *testing.T) {
	p := shard.NewPoolObs(4, 1, nil)
	defer p.Close()
	hit := make(map[int]bool)
	for id := 0; id < 64; id++ {
		sh := p.ShardOf(id)
		if sh < 0 || sh >= p.Shards() {
			t.Fatalf("ShardOf(%d) = %d out of range", id, sh)
		}
		if p.ShardOf(id) != sh {
			t.Fatalf("ShardOf(%d) not stable", id)
		}
		hit[sh] = true
	}
	if len(hit) < 2 {
		t.Fatalf("64 ids landed on %d shard(s); hash is degenerate", len(hit))
	}
}

// TestCloseAppliesPending: Close drains queued tasks before stopping, and is
// idempotent; a drain after Close returns immediately.
func TestCloseAppliesPending(t *testing.T) {
	p := shard.NewPoolObs(2, 16, nil)
	var applied atomic.Int64
	for i := 0; i < 10; i++ {
		p.Enqueue(i%2, uint64(i+1), func() { applied.Add(1) })
	}
	p.Close()
	p.Close()
	if n := applied.Load(); n != 10 {
		t.Fatalf("Close applied %d of 10 pending tasks", n)
	}
	p.Drain() // workers are gone; must not hang
}

// TestSequencer: Next is dense and monotonic under concurrency, and the
// heartbeat clock is a monotonic max readable lock-free.
func TestSequencer(t *testing.T) {
	q := shard.NewSequencer()
	if q.LastHeartbeat() != types.MinTime {
		t.Fatalf("fresh sequencer clock = %s, want MinTime", q.LastHeartbeat())
	}
	var wg sync.WaitGroup
	seen := make([]atomic.Bool, 1000)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				s := q.Next()
				if s < 1 || s > 1000 {
					t.Errorf("seq %d out of range", s)
					return
				}
				if seen[s-1].Swap(true) {
					t.Errorf("seq %d issued twice", s)
				}
			}
		}()
	}
	wg.Wait()
	if next := q.Next(); next != 1001 {
		t.Fatalf("Next after 1000 = %d, want 1001", next)
	}
	q.RecordHeartbeat(100)
	q.RecordHeartbeat(50) // regress: ignored
	if q.LastHeartbeat() != 100 {
		t.Fatalf("LastHeartbeat = %s, want 100", q.LastHeartbeat())
	}
	q.RecordHeartbeat(250)
	if q.LastHeartbeat() != 250 {
		t.Fatalf("LastHeartbeat = %s, want 250", q.LastHeartbeat())
	}
}
