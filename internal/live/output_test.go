package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/tvr"
	"repro/internal/types"
)

// outputModel is the plain-slice model of an output: every row ever
// appended, and the deliveries since the output was last restored as index
// ranges into those rows. A delivery's rows begin where its predecessor's
// end, except the first after a restore past the cap, which saved no rows.
type outputModel struct {
	hist       tvr.Changelog
	vers       []int // RenderStream's version of each row of hist
	dels       []modelDelivery
	base       int // deliveries below it were trimmed
	wm         types.Time
	overflowed bool
	foldN      int
	off        int // hist position minus output row position: the rows a restore past the cap dropped
}

type modelDelivery struct {
	start, end int
	wm         types.Time
}

// piece is deliveries [from, to) as one piece at watermark wm.
func (m *outputModel) piece(from, to int, wm types.Time) piece {
	i, j := m.dels[from].start, m.dels[to-1].end
	return piece{log: tvr.RangeOf(m.hist[i:j]), vers: tvr.RangeOf(m.vers[i:j]), wm: wm, next: to}
}

// retained counts the rows of the deliveries not trimmed.
func (m *outputModel) retained() int {
	if m.base == len(m.dels) {
		return 0
	}
	return m.dels[len(m.dels)-1].end - m.dels[m.base].start
}

// samePiece fails unless got and want hold the same rows, versions,
// watermark and next delivery.
func samePiece(t *testing.T, op string, got, want piece) {
	t.Helper()
	gl, gv, wl, wv := got.log.Flat(), got.vers.Flat(), want.log.Flat(), want.vers.Flat()
	if len(gl) != len(wl) || len(gl) > 0 && !reflect.DeepEqual(gl, wl) || len(gv) != len(gl) ||
		len(gv) > 0 && !reflect.DeepEqual(gv, wv) || got.wm != want.wm || got.next != want.next {
		t.Fatalf("%s: got %v vers %v wm %v next %d, want %v vers %v wm %v next %d",
			op, gl, gv, got.wm, got.next, wl, wv, want.wm, want.next)
	}
}

// versioned gives p its versions as Session.capture does: it versions only
// the rows below p's end that have none yet, and drops the versions of rows
// no longer retained.
func versioned(t *testing.T, o *output, p piece) piece {
	t.Helper()
	o.v.version(o.unversioned(p.from + p.log.Len()))
	if o.v.log.Base() != o.rows.Base() {
		t.Fatalf("versions kept from row %d, the retained rows from %d", o.v.log.Base(), o.rows.Base())
	}
	p.vers = o.v.of(p)
	return p
}

// TestOutputMatchesSliceModel drives an output and its model through random
// deliveries (some with no rows, moving only the watermark), readers
// attaching and detaching at arbitrary points, piece by piece and unread
// reads, trims past a MaxRetainedRows cap, at= cuts, table folds, and
// save/load round trips; every piece, cut, fold and retained row count must
// equal the model's. Versions are assigned lazily, as the readers assign
// them: a delivery versions nothing, each piece and cut versions only up to
// its end, a trim held back by unversioned rows versions only up to where
// it trims, and the versions at every one of those points, and the whole
// versions log after each step, must equal the eager model's.
func TestOutputMatchesSliceModel(t *testing.T) {
	keys := []int{0}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limit := 0
		if rng.Intn(2) == 0 {
			limit = 4 + rng.Intn(30)
		}
		o := new(output)
		o.init(new(tvr.Log[tvr.Event]), keys, limit)
		m := &outputModel{wm: types.MinTime}
		var got, want []position // the readers, in the output and the model
		var live []types.Row     // rows inserted and not yet deleted
		clock := types.Time(0)
		for op := 0; op < 200; op++ {
			where := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := rng.Intn(10); {
			case k < 3: // a commit: 0 to 4 rows, and a watermark
				var out tvr.Changelog
				for n := rng.Intn(5); n > 0; n-- {
					clock += types.Time(rng.Intn(3))
					if len(live) > 0 && rng.Intn(3) == 0 {
						i := rng.Intn(len(live))
						out = append(out, tvr.DeleteEvent(clock, live[i]))
						live = append(live[:i], live[i+1:]...)
						continue
					}
					row := types.Row{types.NewInt(int64(rng.Intn(3))), types.NewInt(int64(rng.Intn(4)))}
					out = append(out, tvr.InsertEvent(clock, row))
					live = append(live, row)
				}
				m.wm += types.Time(rng.Intn(2))
				o.rows.Stage(out...)
				through := o.v.log.End()
				o.deliver(m.wm)
				if o.v.log.End() != through {
					t.Fatalf("%s: a delivery versioned rows %d to %d", where, through, o.v.log.End())
				}
				if len(out) > 0 {
					start := len(m.hist)
					m.hist = append(m.hist, out...)
					m.dels = append(m.dels, modelDelivery{start: start, end: len(m.hist), wm: m.wm})
					if limit > 0 && m.dels[len(m.dels)-1].end-m.dels[0].start > limit {
						m.overflowed, m.foldN = true, 0
					}
				}
				m.vers = m.vers[:0]
				for _, r := range tvr.RenderStream(m.hist, keys) {
					m.vers = append(m.vers, r.Ver)
				}
			case k < 4: // a reader attaches, as Attach lets it
				if m.overflowed {
					continue
				}
				got = append(got, o.attach(m.wm))
				want = append(want, position{next: m.base, attach: len(m.dels), handWm: m.wm})
			case k < 7 && len(got) > 0: // a reader reads its next piece
				i := rng.Intn(len(got))
				p, w := got[i], want[i]
				if d, wd := o.depth(p), len(m.dels)-max(w.next, w.attach)+b2i(w.next < w.attach); d != wd {
					t.Fatalf("%s: depth %d, want %d", where, d, wd)
				}
				gp, ok := o.pending(p)
				var wp piece
				wok := true
				switch {
				case w.next < w.attach:
					wp = m.piece(w.next, w.attach, w.handWm)
				case w.next < len(m.dels):
					wp = m.piece(w.next, w.next+1, m.dels[w.next].wm)
				default:
					wok = false
				}
				if ok != wok {
					t.Fatalf("%s: pending %v, want %v", where, ok, wok)
				}
				if ok {
					samePiece(t, where+" pending", versioned(t, o, gp), wp)
					got[i].next, want[i].next = gp.next, wp.next
				}
			case k < 8 && len(got) > 0: // a reader takes all it has not read, or leaves
				i := rng.Intn(len(got))
				if rng.Intn(2) == 0 {
					got = append(got[:i], got[i+1:]...)
					want = append(want[:i], want[i+1:]...)
					break
				}
				p, w := got[i], want[i]
				gp, ok := o.unread(p)
				if wok := w.next < len(m.dels); ok != wok {
					t.Fatalf("%s: unread %v, want %v", where, ok, wok)
				}
				if ok {
					wm := w.handWm
					if len(m.dels) > w.attach {
						wm = m.dels[len(m.dels)-1].wm
					}
					samePiece(t, where+" unread", versioned(t, o, gp), m.piece(w.next, len(m.dels), wm))
					got[i].next, want[i].next = gp.next, len(m.dels)
				}
			case k < 9: // the session trims below its lowest reader
				low := len(m.dels)
				for _, w := range want {
					low = min(low, w.next)
				}
				if o.trim(low) && rng.Intn(2) == 0 { // a reader versions what held it back
					versioned(t, o, piece{from: o.marks.At(o.marks.Base()).end})
					if o.trim(low) {
						t.Fatalf("%s: trim held back after its rows were versioned", where)
					}
				}
				if m.overflowed && low > m.base {
					m.base = low
				}
			default: // a one-shot read, or a checkpoint and restore
				if rng.Intn(4) == 0 {
					o, m = saveLoad(t, where, o, m, keys, limit)
					got, want = nil, nil
					break
				}
				if m.overflowed {
					continue
				}
				at := types.Time(rng.Intn(int(clock) + 2))
				n := 0
				for n < len(m.hist) && m.hist[n].Ptime <= at {
					n++
				}
				cut := versioned(t, o, o.cut(at))
				samePiece(t, fmt.Sprintf("%s cut at %v", where, at), cut, piece{log: tvr.RangeOf(m.hist[:n]), vers: tvr.RangeOf(m.vers[:n])})
				if o.fold == nil {
					o.fold = &tableFold{rel: tvr.NewRelation()}
				}
				rows, folded, err := o.fold.read(cut.log)
				ref := tvr.NewRelation()
				if ferr := ref.ApplyOwned(m.hist[:n]); err != nil || ferr != nil {
					t.Fatalf("%s: fold err %v, reference err %v", where, err, ferr)
				}
				wantFolded := n
				if n >= m.foldN {
					wantFolded, m.foldN = n-m.foldN, n
				}
				if folded != wantFolded || len(rows)+ref.Len() > 0 && !reflect.DeepEqual(rows, ref.Rows()) {
					t.Fatalf("%s: fold at %v folded %d rows %v, want %d rows %v", where, at, folded, rows, wantFolded, ref.Rows())
				}
			}
			// The retained deliveries' rows are the model's; below them the
			// trim keeps what is not versioned yet.
			start, through := o.marks.At(o.marks.Base()).end, o.v.log.End()
			if r := o.rows.End() - start; r != m.retained() || o.rows.Base() != min(start, through) ||
				o.overflowed != m.overflowed || o.end() != len(m.dels) {
				t.Fatalf("%s: %d rows from %d (versioned through %d), overflowed %v, %d deliveries; want %d, %v, %d",
					where, r, o.rows.Base(), through, o.overflowed, o.end(), m.retained(), m.overflowed, len(m.dels))
			}
			if o.v.log.Base() > o.rows.Base() || through > o.rows.End() {
				t.Fatalf("%s: versions [%d, %d) for rows [%d, %d)", where, o.v.log.Base(), through, o.rows.Base(), o.rows.End())
			}
			for i := o.v.log.Base(); i < through; i++ {
				if v, w := o.v.log.At(i), m.vers[i+m.off]; v != w {
					t.Fatalf("%s: row %d versioned %d, want %d", where, i, v, w)
				}
			}
		}
	}
}

// saveLoad checkpoints o and loads it into a fresh output, as a session's
// restore does, and moves the model the same way: a restored output holds
// what was retained within the cap as one delivery at the watermark, or
// nothing past it, and no readers.
func saveLoad(t *testing.T, where string, o *output, m *outputModel, keys []int, limit int) (*output, *outputModel) {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	o.v.version(o.unversioned(o.rows.End())) // as Session.saveStateLocked does
	o.save(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := new(output)
	r.init(new(tvr.Log[tvr.Event]), keys, limit)
	if err := r.load(dec, keys, m.wm, o.overflowed); err != nil {
		t.Fatalf("%s: load: %v", where, err)
	}
	n := &outputModel{hist: m.hist, vers: m.vers, wm: m.wm, overflowed: m.overflowed, off: len(m.hist) - r.rows.End()}
	if !m.overflowed && len(m.hist) > 0 {
		n.dels = []modelDelivery{{start: 0, end: len(m.hist), wm: m.wm}}
	}
	return r, n
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
