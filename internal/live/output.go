package live

import (
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/tvr"
	"repro/internal/types"
)

// output is a session's retained output: the output changelog, the stream
// version of each row (rendered once, as it is appended), and the
// deliveries, numbered from 0, that every retained row belongs to. A cursor
// is a position in it, and a one-shot read is a cut of it. The session's mu
// guards it; the pieces it hands out are capped and trim only reslices, so
// a piece stays valid without the lock.
type output struct {
	rows tvr.Changelog
	vers []int
	// marks[i] ends delivery base+i-1 and starts base+i, so marks[0] is where
	// the retained rows start. base moves only past the cap (trim).
	marks    []mark
	base     int
	renderer *tvr.StreamRenderer

	max        int  // Config.MaxRetainedRows; 0 keeps everything
	overflowed bool // more than max rows were appended
	// fold is the table rendering of a prefix of rows that table reads
	// extend. Nil until the first, and again after overflow or close.
	fold *tableFold
}

// mark is the absolute row where a delivery ends, and its watermark.
type mark struct {
	end int
	wm  types.Time
}

// position is a reader's place in the output: the next delivery it
// receives, and the delivery count when it attached. The deliveries before
// attach reach it as one piece, the hand-off, at handWm, the session's
// watermark at attach; every later delivery is a piece of its own.
type position struct {
	next, attach int
	handWm       types.Time
}

// piece is one delta's worth of output. Reading it moves a reader to
// delivery next.
type piece struct {
	log  tvr.Changelog
	vers []int
	wm   types.Time
	next int
}

// delta renders the piece in mode: the stream rows at their retained
// versions, or the consolidated table diff.
func (p piece) delta(mode Mode) Delta {
	if mode == Table {
		return Delta{Table: consolidate(p.log), Watermark: p.wm}
	}
	rows := make([]tvr.StreamRow, len(p.log))
	for i, ev := range p.log {
		rows[i] = tvr.StreamRowOf(ev, p.vers[i])
	}
	return Delta{Stream: rows, Watermark: p.wm}
}

func newOutput(emitKeys []int, max int) output {
	return output{marks: []mark{{}}, renderer: tvr.NewStreamRenderer(emitKeys), max: max}
}

// end is the number of deliveries appended so far.
func (o *output) end() int { return o.base + len(o.marks) - 1 }

// append adds out as the next delivery, at watermark wm; an empty out is no
// delivery. The append that passes the cap overflows the output.
func (o *output) append(out tvr.Changelog, wm types.Time) {
	if len(out) == 0 {
		return
	}
	o.rows = append(o.rows, out...)
	o.vers = o.renderer.AppendVersions(o.vers, out)
	end := o.marks[len(o.marks)-1].end + len(out)
	o.marks = append(o.marks, mark{end: end, wm: wm})
	if o.max > 0 && end > o.max && !o.overflowed {
		o.overflowed, o.fold = true, nil
	}
}

// attach is the position of a reader attaching now, while the output
// watermark is wm: everything retained is its hand-off.
func (o *output) attach(wm types.Time) position {
	return position{next: o.base, attach: o.end(), handWm: wm}
}

// span is deliveries [from, to) as one piece at watermark wm.
func (o *output) span(from, to int, wm types.Time) piece {
	i := o.marks[from-o.base].end - o.marks[0].end
	j := o.marks[to-o.base].end - o.marks[0].end
	return piece{log: o.rows[i:j:j], vers: o.vers[i:j:j], wm: wm, next: to}
}

// pending is the first piece a reader at p has not received, if any.
func (o *output) pending(p position) (piece, bool) {
	switch {
	case p.next < p.attach:
		return o.span(p.next, p.attach, p.handWm), true
	case p.next < o.end():
		return o.span(p.next, p.next+1, o.marks[p.next+1-o.base].wm), true
	}
	return piece{}, false
}

// unread is all a reader at p has not received as one piece, at the
// watermark of the last of it, if there is any.
func (o *output) unread(p position) (piece, bool) {
	end := o.end()
	if p.next == end {
		return piece{}, false
	}
	wm := p.handWm
	if end > p.attach {
		wm = o.marks[len(o.marks)-1].wm
	}
	return o.span(p.next, end, wm), true
}

// depth counts the pieces a reader at p has not received.
func (o *output) depth(p position) int {
	n := o.end() - max(p.next, p.attach)
	if p.next < p.attach {
		n++ // the hand-off
	}
	return n
}

// trim drops the deliveries below low, the lowest one a reader still needs,
// once the output has overflowed; within the cap it keeps everything.
func (o *output) trim(low int) {
	k := low - o.base
	if !o.overflowed || k <= 0 {
		return
	}
	i := o.marks[k].end - o.marks[0].end
	o.rows, o.vers, o.marks, o.base = o.rows[i:], o.vers[i:], o.marks[k:], low
}

// cut is the retained rows with ptime <= at (their ptimes never decrease).
func (o *output) cut(at types.Time) piece {
	n := sort.Search(len(o.rows), func(i int) bool { return o.rows[i].Ptime > at })
	return piece{log: o.rows[:n:n], vers: o.vers[:n:n]}
}

// save writes the renderer's counters and the retained rows, none past the
// cap: those are only cursors' unread tails, and cursors die with the
// process. Marks and versions are not written.
func (o *output) save(enc *checkpoint.Encoder) {
	o.renderer.SaveState(enc)
	if o.overflowed {
		tvr.SaveChangelog(enc, nil)
	} else {
		tvr.SaveChangelog(enc, o.rows)
	}
}

// load reads what save wrote into an empty output. The saved rows were
// versioned from a fresh renderer's start, so a fresh renderer grouping by
// emitKeys versions them again, and they become one delivery at wm.
func (o *output) load(dec *checkpoint.Decoder, emitKeys []int, wm types.Time, overflowed bool) error {
	if err := o.renderer.LoadState(dec); err != nil {
		return err
	}
	rows, err := tvr.LoadChangelog(dec)
	if err != nil {
		return err
	}
	o.rows, o.overflowed = rows, overflowed
	o.vers = tvr.NewStreamRenderer(emitKeys).AppendVersions(nil, rows)
	if len(rows) > 0 {
		o.marks = append(o.marks, mark{end: len(rows), wm: wm})
	}
	return nil
}

// Reading is a one-shot read answered from a session's retained output.
type Reading struct {
	Table  []types.Row     // a table read's snapshot, in iteration order; the caller owns it
	Stream []tvr.StreamRow // a stream read's changelog, at the retained versions
	Folded int             // the retained rows the read applied to a relation
}

// read answers a read at at in mode from the output's cut at at, unless
// replay names why the session cannot (see the read contract in the package
// documentation). err is a retraction of a row the output never inserted.
// It holds s.mu only to cut, so a running feed cannot stall it.
func (s *Session) read(at types.Time, mode Mode) (r Reading, replay string, err error) {
	var p piece
	var f *tableFold
	s.mu.Lock()
	// The bit is read under s.mu: a feed stores it before its delivery
	// appends under s.mu, so output of an out-of-order feed is never cut.
	switch {
	case s.closed:
		replay = ReplayClosed
	case s.outOfOrder.Load():
		replay = ReplayOutOfOrder
	case s.out.overflowed:
		replay = ReplayOverflow
	case mode == Table:
		if s.out.fold == nil {
			s.out.fold = &tableFold{rel: tvr.NewRelation()}
		}
		p, f = s.out.cut(at), s.out.fold
	default:
		p = s.out.cut(at)
	}
	s.mu.Unlock()
	if replay != "" {
		return r, replay, nil
	}
	if mode == Table {
		r.Table, r.Folded, err = f.read(p.log)
		return r, "", err
	}
	// A replay folds the output it collects, which fails on a retraction of
	// a row never inserted; the cut is folded for the same check.
	r.Folded = len(p.log)
	if err := tvr.NewRelation().ApplyOwned(p.log); err != nil {
		return r, "", err
	}
	if len(p.log) > 0 { // an empty cut stays nil, as a replay's rendering does
		r.Stream = p.delta(Stream).Stream
	}
	return r, "", nil
}

// tableFold is the table rendering of the first n rows of an output. Only
// table reads take its mu, and never while holding the session's mu, so a
// delivery never waits on it.
type tableFold struct {
	mu  sync.Mutex
	rel *tvr.Relation
	n   int
}

// read returns the table rendering of log, a prefix of the output, in the
// relation's iteration order, in a slice the caller owns, and the rows it
// folded. A prefix of at least n rows extends the fold; a shorter one is
// folded afresh.
func (f *tableFold) read(log tvr.Changelog) (rows []types.Row, folded int, err error) {
	f.mu.Lock()
	if len(log) < f.n {
		f.mu.Unlock()
		rel := tvr.NewRelation()
		if err := rel.ApplyOwned(log); err != nil {
			return nil, 0, err
		}
		return rel.Rows(), len(log), nil
	}
	defer f.mu.Unlock()
	if err := f.rel.ApplyOwned(log[f.n:]); err != nil {
		f.rel, f.n = tvr.NewRelation(), 0 // half applied: the next read refolds
		return nil, 0, err
	}
	folded, f.n = len(log)-f.n, len(log)
	return f.rel.Rows(), folded, nil
}
