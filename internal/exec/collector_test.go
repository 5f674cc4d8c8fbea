package exec

// The output-retention contract from the package doc: a standing pipeline
// keeps nothing it has handed out through Drain, and only a one-shot Run folds
// the table rendering — a fold that still rejects a retraction of a row the
// output never inserted.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/tvr"
	"repro/internal/types"
)

// TestStandingCollectorRetainsNothing: across 120k source events fed in
// batches, serial and partitioned, the collector holds no output after every
// Drain — and it has no relation field to hold one in.
func TestStandingCollectorRetainsNothing(t *testing.T) {
	relType := reflect.TypeOf((*tvr.Relation)(nil))
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Collector{})) {
		if f.Type == relType {
			t.Fatalf("Collector.%s holds a relation", f.Name)
		}
	}
	const batch = 500
	evs := batchEvents(120_000)
	for _, parts := range []int{1, 2} {
		var d Driver
		var c *Collector
		if parts == 1 {
			p, err := Compile(batchChainPlan(t))
			if err != nil {
				t.Fatal(err)
			}
			d, c = p, p.collector
		} else {
			pp, err := CompilePartitioned(batchChainPlan(t), parts)
			if err != nil {
				t.Fatal(err)
			}
			d, c = pp, pp.collector
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		drained := 0
		for off := 0; off < len(evs); off += batch {
			end := min(off+batch, len(evs))
			if err := d.Feed([]Source{{Name: "s", Log: evs[off:end]}}); err != nil {
				t.Fatal(err)
			}
			drained += len(d.Drain())
			if c.out != nil {
				t.Fatalf("parts=%d: after the Drain at event %d the collector still holds %d events (cap %d)", parts, end, len(c.out), cap(c.out))
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		drained += len(d.Drain())
		if c.out != nil {
			t.Fatalf("parts=%d: after the final Drain the collector holds %d events", parts, len(c.out))
		}
		if out := d.Stats().OutputEvents; drained != out || drained < len(evs)/2 {
			t.Fatalf("parts=%d: drained %d events, pipeline output %d", parts, drained, out)
		}
	}
}

// TestRunRejectsRetractionOfAbsentRow: a one-shot Run whose output log
// retracts a row it never inserted fails while folding the table rendering,
// on the serial pipeline, the partitioned one, and the partitioned driver's
// small-input serial fallback.
func TestRunRejectsRetractionOfAbsentRow(t *testing.T) {
	row := func(key, price int64) types.Row {
		return types.Row{types.NewInt(key), types.NewInt(price), types.NewString("abcdefgh")}
	}
	sources := []Source{{Name: "s", Log: tvr.Changelog{
		tvr.InsertEvent(1, row(1, 10)),
		tvr.DeleteEvent(2, row(2, 20)), // never inserted; the projection passes it through
	}}}
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"serial", func() (*Result, error) {
			p, err := Compile(batchChainPlan(t))
			if err != nil {
				t.Fatal(err)
			}
			return p.Run(sources, types.MaxTime)
		}},
		{"partitioned", func() (*Result, error) {
			pp, err := CompilePartitioned(batchChainPlan(t), 2)
			if err != nil {
				t.Fatal(err)
			}
			pp.SetSmallInputGate(0)
			return pp.Run(sources, types.MaxTime)
		}},
		{"partitioned-small-input", func() (*Result, error) {
			pp, err := CompilePartitioned(batchChainPlan(t), 2)
			if err != nil {
				t.Fatal(err)
			}
			return pp.Run(sources, types.MaxTime)
		}},
	}
	for _, r := range runs {
		if _, err := r.run(); err == nil || !strings.Contains(err.Error(), "retraction of absent row") {
			t.Errorf("%s: Run = %v, want a retraction-of-absent-row error", r.name, err)
		}
	}
}
