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
// batches, the collector holds no output after every Drain — and it has no
// relation field to hold one in.
func TestStandingCollectorRetainsNothing(t *testing.T) {
	relType := reflect.TypeOf((*tvr.Relation)(nil))
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Collector{})) {
		if f.Type == relType {
			t.Fatalf("Collector.%s holds a relation", f.Name)
		}
	}
	const batch = 500
	evs := batchEvents(120_000)
	p, err := Compile(batchChainPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	c := p.collector
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	drained := 0
	for off := 0; off < len(evs); off += batch {
		end := min(off+batch, len(evs))
		if err := p.Feed([]Source{{Name: "s", Log: evs[off:end]}}); err != nil {
			t.Fatal(err)
		}
		drained += len(p.Drain())
		if c.out != nil {
			t.Fatalf("after the Drain at event %d the collector still holds %d events (cap %d)", end, len(c.out), cap(c.out))
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	drained += len(p.Drain())
	if c.out != nil {
		t.Fatalf("after the final Drain the collector holds %d events", len(c.out))
	}
	if out := p.Stats().OutputEvents; drained != out || drained < len(evs)/2 {
		t.Fatalf("drained %d events, pipeline output %d", drained, out)
	}
}

// TestRunRejectsRetractionOfAbsentRow: a one-shot Run whose output log
// retracts a row it never inserted fails while folding the table rendering.
func TestRunRejectsRetractionOfAbsentRow(t *testing.T) {
	row := func(key, price int64) types.Row {
		return types.Row{types.NewInt(key), types.NewInt(price), types.NewString("abcdefgh")}
	}
	sources := []Source{{Name: "s", Log: tvr.Changelog{
		tvr.InsertEvent(1, row(1, 10)),
		tvr.DeleteEvent(2, row(2, 20)), // never inserted; the projection passes it through
	}}}
	p, err := Compile(batchChainPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(sources, types.MaxTime); err == nil || !strings.Contains(err.Error(), "retraction of absent row") {
		t.Errorf("Run = %v, want a retraction-of-absent-row error", err)
	}
}
