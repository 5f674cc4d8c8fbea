package exec_test

// The checkpoint/restore invariant, property-tested serial and partitioned:
// for random Feed splits of the source changelogs, checkpointing the
// pipeline at a split boundary, discarding it, and restoring a fresh
// pipeline from the checkpoint yields byte-identical output to the
// uninterrupted run — at EVERY split boundary, including mid-window, with
// armed EMIT AFTER DELAY timers, partially-complete groups, and in-flight
// join state.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// checkpointRoundTrip snapshots d, rebuilds a driver from the snapshot, and
// returns it along with the encoded size. The original driver is NOT closed:
// discarding it mid-flight is exactly the crash the checkpoint protects
// against (its goroutines, if any, are shut down to keep tests leak-free).
func checkpointRoundTrip(t *testing.T, d exec.Driver, pq *plan.PlannedQuery) exec.Driver {
	t.Helper()
	var buf bytes.Buffer
	switch x := d.(type) {
	case *exec.Pipeline:
		if err := x.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		restored, err := exec.CompileFromCheckpoint(pq, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		return restored
	case *exec.PartitionedPipeline:
		if err := x.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		restored, err := exec.CompilePartitionedFromCheckpoint(pq, bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		// Release the abandoned pipeline's worker goroutines; a real crash
		// would take the whole process with it.
		x.Abandon()
		return restored
	default:
		t.Fatalf("unknown driver type %T", d)
		return nil
	}
}

// feedWithRestores drives the incremental lifecycle like feedInBatches, but
// after every batch boundary the pipeline is checkpointed, thrown away, and
// replaced by a restore — the process-restart-at-every-split-point property.
// It returns the concatenation of all Drain calls across the restarts.
func feedWithRestores(t *testing.T, pq *plan.PlannedQuery, parts int, sources []exec.Source, cuts []types.Time, upTo types.Time) tvr.Changelog {
	t.Helper()
	d := compileDriver(t, pq, parts)
	if err := d.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	sources = trimSources(sources, upTo)
	pos := make([]int, len(sources))
	var drained tvr.Changelog
	boundaries := append(append([]types.Time{}, cuts...), types.MaxTime)
	for _, cut := range boundaries {
		var batch []exec.Source
		for i, s := range sources {
			start := pos[i]
			end := start
			for end < len(s.Log) && s.Log[end].Ptime <= cut {
				end++
			}
			if end > start {
				batch = append(batch, exec.Source{Name: s.Name, Log: s.Log[start:end]})
				pos[i] = end
			}
		}
		if err := d.Feed(batch); err != nil {
			t.Fatalf("feed: %v", err)
		}
		drained = append(drained, d.Drain()...)
		// Restart the process at this split point.
		d = checkpointRoundTrip(t, d, pq)
	}
	if upTo != types.MaxTime {
		if err := d.Advance(upTo); err != nil {
			t.Fatalf("advance: %v", err)
		}
		drained = append(drained, d.Drain()...)
		d = checkpointRoundTrip(t, d, pq)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return append(drained, d.Drain()...)
}

// TestCheckpointRestoreEquivalence: for every query shape, both executors,
// and several random cut sets, restoring from a checkpoint at every split
// boundary produces the same drained output sequence — and so the same
// stream and table renderings — as the uninterrupted one-shot Run.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	e := lifecycleEngine(t)
	for _, q := range lifecycleQueries() {
		q := q
		t.Run(q.name, func(t *testing.T) {
			pq := planSQL(t, e, q.sql)
			sources := execSourcesFor(t, e, pq.Root)
			pts := splitPoints(sources)
			horizons := []types.Time{types.MaxTime}
			if len(pts) > 2 {
				horizons = append(horizons, pts[len(pts)/2])
			}
			for _, parts := range []int{1, 3} {
				parts := parts
				t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
					if strings.HasPrefix(q.name, "short-window") {
						// These queries are here for restores onto mostly
						// evicted state: halfway through the input, closed
						// groups must outnumber open ones.
						d := compileDriver(t, pq, parts)
						if err := d.Start(); err != nil {
							t.Fatal(err)
						}
						if err := d.Feed(trimSources(sources, pts[len(pts)/2])); err != nil {
							t.Fatal(err)
						}
						if st := d.Stats(); st.FreedGroups <= st.StateGroups {
							t.Fatalf("halfway: %d groups evicted, %d open; want mostly evicted", st.FreedGroups, st.StateGroups)
						}
						if err := d.Close(); err != nil {
							t.Fatal(err)
						}
					}
					for hi, upTo := range horizons {
						oneShot := compileDriver(t, pq, parts)
						if pp, ok := oneShot.(*exec.PartitionedPipeline); ok {
							pp.SetSmallInputGate(0)
						}
						want, err := oneShot.(interface {
							Run([]exec.Source, types.Time) (*exec.Result, error)
						}).Run(sources, upTo)
						if err != nil {
							t.Fatalf("run: %v", err)
						}
						rng := rand.New(rand.NewSource(int64(977 + hi)))
						cutsets := [][]types.Time{
							randomCuts(rng, pts, 4),
							randomCuts(rng, pts, len(pts)/4+1),
						}
						if !testing.Short() {
							cutsets = append(cutsets, pts) // restart after every distinct ptime
						}
						for ci, cuts := range cutsets {
							drained := feedWithRestores(t, pq, parts, sources, cuts, upTo)
							assertDrainedMatchesRun(t, fmt.Sprintf("horizon=%s cutset=%d", upTo, ci), drained, want)
						}
					}
				})
			}
		})
	}
}

// TestCheckpointDeterministic: checkpointing the same state twice yields
// identical bytes — the property the golden-file format tests rely on.
func TestCheckpointDeterministic(t *testing.T) {
	e := lifecycleEngine(t)
	for _, q := range lifecycleQueries() {
		pq := planSQL(t, e, q.sql)
		sources := execSourcesFor(t, e, pq.Root)
		d := compileDriver(t, pq, 1).(*exec.Pipeline)
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		if err := d.Feed(sources); err != nil {
			t.Fatal(err)
		}
		d.Drain()
		var a, b bytes.Buffer
		if err := d.Checkpoint(&a); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two checkpoints of the same state differ", q.name)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointLifecycleErrors: checkpoints are refused outside the
// started-and-unclosed window, and restores reject mismatched plans.
func TestCheckpointLifecycleErrors(t *testing.T) {
	e := lifecycleEngine(t)
	pq := planSQL(t, e, `SELECT auction, price FROM Bid`)
	p, err := exec.Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Checkpoint(&buf); err == nil {
		t.Error("checkpoint before Start should fail")
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := p.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint of a started pipeline: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var post bytes.Buffer
	if err := p.Checkpoint(&post); err == nil {
		t.Error("checkpoint after Close should fail")
	}

	// Restoring into a different plan shape fails loudly at the first
	// divergent operator frame, not silently.
	other := planSQL(t, e, `SELECT COUNT(*) c FROM Bid`)
	if _, err := exec.CompileFromCheckpoint(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("restore into a mismatched plan should fail")
	}
}
