package exec_test

// The checkpoint/restore invariant, property-tested: for random Feed splits
// of the source changelogs, checkpointing the pipeline at a split boundary,
// discarding it, and restoring a fresh pipeline from the checkpoint yields
// byte-identical output to the uninterrupted run — at EVERY split boundary,
// including mid-window, with armed EMIT AFTER DELAY timers,
// partially-complete groups, and in-flight join state.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// saveCheckpoint writes d's state as a standalone checkpoint stream.
func saveCheckpoint(w io.Writer, d exec.Driver) error {
	enc := checkpoint.NewEncoder(w)
	if err := exec.SaveDriver(enc, d); err != nil {
		return err
	}
	return enc.Close()
}

// loadCheckpoint compiles pq and restores it from a stream saveCheckpoint
// wrote.
func loadCheckpoint(pq *plan.PlannedQuery, r io.Reader) (*exec.Pipeline, error) {
	dec, err := checkpoint.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	p, err := exec.LoadDriver(dec, pq)
	if err != nil {
		return nil, err
	}
	return p, dec.Close()
}

// checkpointRoundTrip snapshots p and returns a pipeline rebuilt from the
// snapshot. The original pipeline is NOT closed: discarding it mid-flight is
// exactly the crash the checkpoint protects against.
func checkpointRoundTrip(t *testing.T, p *exec.Pipeline, pq *plan.PlannedQuery) *exec.Pipeline {
	t.Helper()
	var buf bytes.Buffer
	if err := saveCheckpoint(&buf, p); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	restored, err := loadCheckpoint(pq, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return restored
}

// feedWithRestores drives the incremental lifecycle like feedInBatches, but
// after every batch boundary the pipeline is checkpointed, thrown away, and
// replaced by a restore — the process-restart-at-every-split-point property.
// It returns the concatenation of all Drain calls across the restarts.
func feedWithRestores(t *testing.T, pq *plan.PlannedQuery, sources []exec.Source, cuts []types.Time, upTo types.Time) tvr.Changelog {
	t.Helper()
	d := compileDriver(t, pq)
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

// TestCheckpointRestoreEquivalence: for every query shape and several random
// cut sets, restoring from a checkpoint at every split boundary produces the
// same drained output sequence — and so the same stream and table renderings
// — as the uninterrupted one-shot Run.
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
			// parts=1: the whole input runs through one pipeline.
			t.Run("parts=1", func(t *testing.T) {
				if strings.HasPrefix(q.name, "short-window") {
					// These queries are here for restores onto mostly evicted
					// state: halfway through the input, closed groups must
					// outnumber open ones.
					d := compileDriver(t, pq)
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
					want, err := compileDriver(t, pq).Run(sources, upTo)
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
						drained := feedWithRestores(t, pq, sources, cuts, upTo)
						assertDrainedMatchesRun(t, fmt.Sprintf("horizon=%s cutset=%d", upTo, ci), drained, want)
					}
				}
			})
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
		d := compileDriver(t, pq)
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		if err := d.Feed(sources); err != nil {
			t.Fatal(err)
		}
		d.Drain()
		var a, b bytes.Buffer
		if err := saveCheckpoint(&a, d); err != nil {
			t.Fatal(err)
		}
		if err := saveCheckpoint(&b, d); err != nil {
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
	if err := saveCheckpoint(&buf, p); err == nil {
		t.Error("checkpoint before Start should fail")
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := saveCheckpoint(&buf, p); err != nil {
		t.Fatalf("checkpoint of a started pipeline: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var post bytes.Buffer
	if err := saveCheckpoint(&post, p); err == nil {
		t.Error("checkpoint after Close should fail")
	}

	// Restoring into a different plan shape fails loudly at the first
	// divergent operator frame, not silently.
	other := planSQL(t, e, `SELECT COUNT(*) c FROM Bid`)
	if _, err := loadCheckpoint(other, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("restore into a mismatched plan should fail")
	}
}
