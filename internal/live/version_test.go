package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// vgSchema is the schema of the stream s(v, g); its rows are versioned by
// g, the emit key vgKeys names.
var (
	vgSchema = types.NewSchema(types.Column{Name: "v", Kind: types.KindInt64}, types.Column{Name: "g", Kind: types.KindInt64})
	vgKeys   = []int{1}
)

// vgCatalog holds one unbounded relation, s of vgSchema.
type vgCatalog struct{}

func (vgCatalog) Resolve(name string) (*plan.Relation, error) {
	if name != "s" {
		return nil, fmt.Errorf("relation %q not found", name)
	}
	return &plan.Relation{Name: "s", Schema: vgSchema, Unbounded: true}, nil
}

// vgSession is a session of SELECT v, g FROM s on a real pipeline, which
// can be checkpointed, versioning by g and capped at max rows.
func vgSession(t *testing.T, max int) *Session {
	t.Helper()
	q, err := sqlparser.Parse("SELECT v, g FROM s")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := plan.New(vgCatalog{}, plan.Config{}).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(p, Config{Name: "vg", Schema: vgSchema, EmitKeys: vgKeys, Sources: []string{"s"}, MaxRetainedRows: max})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// vgCommits is n commits of 1 to 5 changes each to s, over 4 groups, in
// ptime order; a delete retracts a row inserted earlier.
func vgCommits(seed int64, n int) []tvr.Changelog {
	rng := rand.New(rand.NewSource(seed))
	var live []types.Row
	commits := make([]tvr.Changelog, n)
	pt := types.Time(0)
	for i := range commits {
		for k := 1 + rng.Intn(5); k > 0; k-- {
			pt++
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				commits[i] = append(commits[i], tvr.DeleteEvent(pt, live[j]))
				live = append(live[:j], live[j+1:]...)
				continue
			}
			row := types.Row{types.NewInt(int64(pt)), types.NewInt(int64(rng.Intn(4)))}
			commits[i] = append(commits[i], tvr.InsertEvent(pt, row))
			live = append(live, row)
		}
	}
	return commits
}

// subscribe attaches a cursor in mode to s, resident in m under "vg".
func subscribe(t *testing.T, m *Manager, s *Session, mode Mode) *Subscription {
	t.Helper()
	sub, err := m.Subscribe("vg", CursorOpts{Mode: mode}, func() (*Session, error) { return s, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func publish(t *testing.T, m *Manager, log tvr.Changelog) {
	t.Helper()
	if err := m.PublishSpan(func() error { return nil }, "s", log, nil); err != nil {
		t.Fatal(err)
	}
}

func saveAll(t *testing.T, m *Manager) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	if err := m.CheckpointAll(enc, nil); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// eagerCheckpoint is the checkpoint of a session capped at max that was fed
// commits and versioned each before the next: a stream cursor receives
// every delivery as it is committed.
func eagerCheckpoint(t *testing.T, max int, commits []tvr.Changelog) []byte {
	t.Helper()
	m := NewManagerWith(Options{})
	sub := subscribe(t, m, vgSession(t, max), Stream)
	defer sub.Cancel()
	for _, log := range commits {
		publish(t, m, log)
		recv(t, sub)
	}
	return saveAll(t, m)
}

func flatten(commits []tvr.Changelog) tvr.Changelog {
	var all tvr.Changelog
	for _, log := range commits {
		all = append(all, log...)
	}
	return all
}

// cutAt is the prefix of log with ptime <= at.
func cutAt(log tvr.Changelog, at types.Time) tvr.Changelog {
	return log[:sort.Search(len(log), func(i int) bool { return log[i].Ptime > at })]
}

// TestTableCursorsVersionNothing: a session whose cursors are all table
// cursors versions nothing however many commits it takes, and a stream read
// or a checkpoint that comes later versions exactly as a session that
// versioned each delivery at its commit.
func TestTableCursorsVersionNothing(t *testing.T) {
	commits := vgCommits(1, 60)
	all := flatten(commits)
	want := tvr.RenderStream(all, vgKeys)
	eager := eagerCheckpoint(t, 0, commits)
	for _, readFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("readFirst=%v", readFirst), func(t *testing.T) {
			m := NewManagerWith(Options{})
			s := vgSession(t, 0)
			sub := subscribe(t, m, s, Table)
			defer sub.Cancel()
			for _, log := range commits {
				publish(t, m, log)
				recv(t, sub)
			}
			s.vmu.Lock()
			groups, versioned := s.out.v.renderer.Groups(), s.out.v.log.End()
			s.vmu.Unlock()
			if groups != 0 || s.groups.Load() != 0 || versioned != 0 {
				t.Fatalf("after %d commits under a table cursor: %d groups (gauge %d), versioned through %d; want none",
					len(commits), groups, s.groups.Load(), versioned)
			}
			if !readFirst {
				if got := saveAll(t, m); !bytes.Equal(got, eager) {
					t.Fatal("a checkpoint of the unversioned output differs from the eagerly versioned one")
				}
			}
			at := all[len(all)/2].Ptime
			for _, at := range []types.Time{at, types.MaxTime} {
				r, replay, err := s.read(at, Stream)
				if err != nil || replay != "" {
					t.Fatalf("stream read at %v: replay %q, err %v", at, replay, err)
				}
				if w := want[:len(cutAt(all, at))]; !reflect.DeepEqual(r.Stream, w) {
					t.Fatalf("stream read at %v:\n%v\nwant\n%v", at, r.Stream, w)
				}
			}
			if got := saveAll(t, m); !bytes.Equal(got, eager) {
				t.Fatal("a checkpoint after the stream reads differs from the eagerly versioned one")
			}
			if got := s.groups.Load(); got != 4 {
				t.Fatalf("live_renderer_groups share %d after versioning, want 4", got)
			}
		})
	}
}

// TestLazyVersionsRace: commits race the parties that version — two stream
// cursors, one stalled until the commits end, a table cursor, stream
// one-shot reads at random cuts, and checkpoints — and a capped session whose
// only cursor is a table cursor versions at its trims. Every delta, read and
// checkpoint must equal the eager reference: RenderStream of the committed
// changes, their fold, and the checkpoint of a session that versioned each
// delivery at its commit. Run it with -race.
func TestLazyVersionsRace(t *testing.T) {
	commits := vgCommits(2, 300)
	all := flatten(commits)
	want := tvr.RenderStream(all, vgKeys)
	for _, c := range []struct {
		name   string
		max    int
		stream bool    // the two stream cursors attach
		saves  []int64 // checkpoint once this many commits have returned
	}{
		{"uncapped", 0, true, []int64{20, 150, int64(len(commits))}},
		// No checkpoint races it: only the trims version, until the
		// checkpoint after the commits.
		{"capped table only", 16, false, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewManagerWith(Options{})
			s := vgSession(t, c.max)
			table := subscribe(t, m, s, Table)
			defer table.Cancel()
			var reading, stalled *Subscription
			if c.stream {
				reading, stalled = subscribe(t, m, s, Stream), subscribe(t, m, s, Stream)
				defer reading.Cancel()
				defer stalled.Cancel()
			}
			var (
				wg        sync.WaitGroup
				published atomic.Int64 // commits returned
				applied   atomic.Int64 // commits applied, read under the ordering lock
				done      = make(chan struct{})
				errs      = make(chan error, 16)
			)
			fail := func(format string, args ...any) {
				select {
				case errs <- fmt.Errorf(format, args...):
				default:
				}
			}
			wg.Add(1)
			go func() { // the committer
				defer wg.Done()
				defer close(done)
				for _, log := range commits {
					if err := m.PublishSpan(func() error { applied.Add(1); return nil }, "s", log, nil); err != nil {
						fail("publish: %v", err)
						return
					}
					published.Add(1)
				}
			}()
			var streamed []tvr.StreamRow
			if c.stream {
				wg.Add(1)
				go func() { // the reading stream cursor
					defer wg.Done()
					for len(streamed) < len(all) {
						select {
						case d := <-reading.Deltas():
							streamed = append(streamed, d.Stream...)
						case <-time.After(10 * time.Second):
							fail("the reading stream cursor got %d of %d rows", len(streamed), len(all))
							return
						}
					}
				}()
			}
			folded := tvr.NewRelation()
			wg.Add(1)
			go func() { // the table cursor
				defer wg.Done()
				for n := int64(0); n < int64(len(commits)); n++ {
					select {
					case d := <-table.Deltas():
						for _, r := range d.Table.Deleted {
							_ = folded.Apply(tvr.DeleteEvent(0, r))
						}
						for _, r := range d.Table.Inserted {
							_ = folded.Apply(tvr.InsertEvent(0, r))
						}
					case <-time.After(10 * time.Second):
						fail("the table cursor got %d of %d deltas", n, len(commits))
						return
					}
				}
			}()
			wg.Add(1)
			go func() { // stream one-shot reads at random cuts
				defer wg.Done()
				rng := rand.New(rand.NewSource(3))
				for {
					select {
					case <-done:
						return
					default:
					}
					at := types.Time(rng.Intn(len(all) + 2))
					lo := len(cutAt(flatten(commits[:published.Load()]), at))
					r, replay, err := s.read(at, Stream)
					hi := len(cutAt(flatten(commits[:applied.Load()]), at))
					switch {
					case err != nil:
						fail("read at %v: %v", at, err)
						return
					case replay == ReplayOverflow && c.max > 0:
					case replay != "":
						fail("read at %v replays (%s)", at, replay)
						return
					case len(r.Stream) < lo || len(r.Stream) > hi || len(r.Stream) > 0 && !reflect.DeepEqual(r.Stream, want[:len(r.Stream)]):
						fail("read at %v: %d rows, want %d to %d rows of the reference", at, len(r.Stream), lo, hi)
						return
					}
				}
			}()
			type saved struct {
				commits int
				bytes   []byte
			}
			var checkpoints []saved
			wg.Add(1)
			go func() { // checkpoints
				defer wg.Done()
				for _, after := range c.saves {
					for published.Load() < after {
						time.Sleep(100 * time.Microsecond)
					}
					var buf bytes.Buffer
					enc := checkpoint.NewEncoder(&buf)
					k := 0
					err := m.CheckpointAll(enc, func(*checkpoint.Encoder) error { k = int(applied.Load()); return nil })
					if err == nil {
						err = enc.Close()
					}
					if err != nil {
						fail("checkpoint: %v", err)
						return
					}
					checkpoints = append(checkpoints, saved{k, buf.Bytes()})
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if c.stream {
				if !reflect.DeepEqual(streamed, want) {
					t.Fatal("the reading stream cursor's rows differ from RenderStream of the commits")
				}
				var late []tvr.StreamRow
				for len(late) < len(all) {
					late = append(late, recv(t, stalled).Stream...)
				}
				if !reflect.DeepEqual(late, want) {
					t.Fatal("the stalled stream cursor's rows differ from RenderStream of the commits")
				}
			}
			ref := tvr.NewRelation()
			if err := ref.ApplyOwned(append(tvr.Changelog{}, all...)); err != nil {
				t.Fatal(err)
			}
			if got, w := sortedRows(folded.Rows()), sortedRows(ref.Rows()); !reflect.DeepEqual(got, w) {
				t.Fatalf("the table cursor's deltas fold to\n%v\nwant\n%v", got, w)
			}
			// Past the cap, the table cursor's reader versions what held its
			// trims back, so once it has read everything no row is retained.
			for deadline := time.Now().Add(5 * time.Second); c.max > 0 && s.retained.Load() != 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d rows retained after every cursor read them all", s.retained.Load())
				}
			}
			if c.max > 0 {
				checkpoints = append(checkpoints, saved{len(commits), saveAll(t, m)})
			}
			for _, cp := range checkpoints {
				if !bytes.Equal(cp.bytes, eagerCheckpoint(t, c.max, commits[:cp.commits])) {
					t.Fatalf("the checkpoint after %d commits differs from the eagerly versioned one", cp.commits)
				}
			}
		})
	}
}

func sortedRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}
