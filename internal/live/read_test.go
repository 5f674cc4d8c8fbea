package live

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/tvr"
	"repro/internal/types"
)

// inOrderDriver outputs every fed data event as is and reports itself fed
// in merge order, so its session answers reads.
type inOrderDriver struct{ out tvr.Log[tvr.Event] }

func (d *inOrderDriver) Start() error { return nil }

func (d *inOrderDriver) Feed(batch []exec.Source) error {
	for _, s := range batch {
		for _, ev := range s.Log {
			if ev.IsData() {
				d.out.Stage(ev)
			}
		}
	}
	return nil
}

func (d *inOrderDriver) Output() *tvr.Log[tvr.Event] { return &d.out }

func (d *inOrderDriver) Advance(types.Time) error      { return nil }
func (d *inOrderDriver) Close() error                  { return nil }
func (d *inOrderDriver) OutputWatermark() types.Time   { return types.MinTime }
func (d *inOrderDriver) DispatchStats() (int64, int64) { return 0, 0 }
func (d *inOrderDriver) FedInMergeOrder() bool         { return true }

// TestTableFoldReleasedWithRetainedOutput: the fold a table read builds goes
// when the retained output does — on overflow and at close — and later
// reads replay instead of reading it.
func TestTableFoldReleasedWithRetainedOutput(t *testing.T) {
	feed := func(s *Session, vs ...int64) {
		t.Helper()
		var log tvr.Changelog
		for _, v := range vs {
			log = append(log, tvr.InsertEvent(types.Time(v), types.Row{types.NewInt(v)}))
		}
		if err := s.IngestLog([]exec.Source{{Name: "r", Log: log}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		release func(*Session)
		replay  string
	}{
		{"overflow", func(s *Session) { feed(s, 3, 4) }, ReplayOverflow},
		{"close", func(s *Session) { s.cancel() }, ReplayClosed},
	} {
		s, err := NewSession(&inOrderDriver{}, Config{Name: c.name, Sources: []string{"r"}, MaxRetainedRows: 3})
		if err != nil {
			t.Fatal(err)
		}
		feed(s, 1, 2)
		r, replay, err := s.read(types.MaxTime, Table)
		if err != nil || replay != "" || len(r.Table) != 2 || r.Folded != 2 || s.out.fold == nil {
			t.Fatalf("%s: first read: %d rows, folded %d, replay %q, err %v, fold kept %v", c.name, len(r.Table), r.Folded, replay, err, s.out.fold != nil)
		}
		c.release(s)
		if s.out.fold != nil {
			t.Fatalf("%s: the fold outlived the retained output", c.name)
		}
		if _, replay, _ := s.read(types.MaxTime, Table); replay != c.replay || s.out.fold != nil {
			t.Fatalf("%s: read after release: replay %q, want %q; fold rebuilt %v", c.name, replay, c.replay, s.out.fold != nil)
		}
	}
}
