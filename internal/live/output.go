package live

import (
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/tvr"
	"repro/internal/types"
)

// output is a session's retained output: the output changelog, the stream
// version of each row (rendered once, as it is delivered), and the
// deliveries, numbered from 0, that every retained row belongs to, each a
// tvr.Log addressed by absolute position. A cursor is a position in it, and
// a one-shot read is a cut of it. The session's mu guards it; the pieces it
// hands out are captured log ranges, which stay valid without the lock.
type output struct {
	// rows is the driver's output log (exec.Driver.Output): feeds stage
	// rows in it, and deliver publishes them.
	rows *tvr.Log[tvr.Event]
	vers tvr.Log[int]
	// marks at position d ends delivery d-1 and starts d, so marks.Base() is
	// the first retained delivery and the mark there is where the retained
	// rows start. The base moves only past the cap (trim).
	marks    tvr.Log[mark]
	renderer *tvr.StreamRenderer
	verBuf   []int // scratch for a chunk's versions

	max        int  // Config.MaxRetainedRows; 0 keeps everything
	overflowed bool // more than max rows were delivered
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
	log  tvr.Range[tvr.Event]
	vers tvr.Range[int]
	wm   types.Time
	next int
}

// delta renders the piece in mode: the stream rows at their retained
// versions, or the consolidated table diff.
func (p piece) delta(mode Mode) Delta {
	if mode == Table {
		return Delta{Table: consolidate(p.log), Watermark: p.wm}
	}
	rows := make([]tvr.StreamRow, 0, p.log.Len())
	log, vers := p.log, p.vers
	for log.Len() > 0 {
		// The two logs share positions, so their chunks line up.
		var evs []tvr.Event
		var vs []int
		evs, log = log.Next()
		vs, vers = vers.Next()
		for i, ev := range evs {
			rows = append(rows, tvr.StreamRowOf(ev, vs[i]))
		}
	}
	return Delta{Stream: rows, Watermark: p.wm}
}

// newOutput is the output of a session whose driver stages its rows in
// rows, an empty log.
func newOutput(rows *tvr.Log[tvr.Event], emitKeys []int, max int) output {
	o := output{rows: rows, renderer: tvr.NewStreamRenderer(emitKeys), max: max}
	o.marks.Append(mark{})
	return o
}

// end is the number of deliveries made so far.
func (o *output) end() int { return o.marks.End() - 1 }

// deliver publishes what the driver staged in rows as the next delivery, at
// watermark wm, versioned by sr (the output's renderer, or a fresh one at
// load), and returns its row count; nothing staged is no delivery. The
// delivery that passes the cap overflows the output.
func (o *output) deliver(wm types.Time, sr *tvr.StreamRenderer) int {
	from := o.rows.End()
	o.rows.Publish()
	end := o.rows.End()
	if end == from {
		return 0
	}
	for r := o.rows.Since(from); r.Len() > 0; {
		var evs []tvr.Event
		evs, r = r.Next()
		o.verBuf = sr.AppendVersions(o.verBuf[:0], evs)
		o.vers.Append(o.verBuf...)
	}
	o.marks.Append(mark{end: end, wm: wm})
	if o.max > 0 && end > o.max && !o.overflowed {
		o.overflowed, o.fold = true, nil
	}
	return end - from
}

// attach is the position of a reader attaching now, while the output
// watermark is wm: everything retained is its hand-off.
func (o *output) attach(wm types.Time) position {
	return position{next: o.marks.Base(), attach: o.end(), handWm: wm}
}

// span is deliveries [from, to) as one piece at watermark wm.
func (o *output) span(from, to int, wm types.Time) piece {
	i, j := o.marks.At(from).end, o.marks.At(to).end
	return piece{log: o.rows.Since(i).Slice(0, j-i), vers: o.vers.Since(i).Slice(0, j-i), wm: wm, next: to}
}

// pending is the first piece a reader at p has not received, if any.
func (o *output) pending(p position) (piece, bool) {
	switch {
	case p.next < p.attach:
		return o.span(p.next, p.attach, p.handWm), true
	case p.next < o.end():
		return o.span(p.next, p.next+1, o.marks.At(p.next+1).wm), true
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
		wm = o.marks.At(end).wm
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
// once the output has overflowed; within the cap it keeps everything. The
// logs free every chunk the retained deliveries no longer reach.
func (o *output) trim(low int) {
	if !o.overflowed || low <= o.marks.Base() {
		return
	}
	i := o.marks.At(low).end
	o.rows.TrimBelow(i)
	o.vers.TrimBelow(i)
	o.marks.TrimBelow(low)
}

// cut is the retained rows with ptime <= at (their ptimes never decrease).
func (o *output) cut(at types.Time) piece {
	log := tvr.Cut(o.rows.Since(o.rows.Base()), at)
	return piece{log: log, vers: o.vers.Since(o.vers.Base()).Slice(0, log.Len())}
}

// save writes the renderer's counters and the retained rows, none past the
// cap: those are only cursors' unread tails, and cursors die with the
// process. Marks and versions are not written.
func (o *output) save(enc *checkpoint.Encoder) {
	o.renderer.SaveState(enc)
	var rows tvr.Range[tvr.Event]
	if !o.overflowed {
		rows = o.rows.Since(o.rows.Base())
	}
	tvr.SaveLog(enc, rows)
}

// load reads what save wrote into an empty output. The saved rows were
// versioned from a fresh renderer's start, so a fresh renderer grouping by
// emitKeys versions them again, and they become one delivery at wm.
func (o *output) load(dec *checkpoint.Decoder, emitKeys []int, wm types.Time, overflowed bool) error {
	if err := o.renderer.LoadState(dec); err != nil {
		return err
	}
	if err := tvr.LoadLog(dec, o.rows); err != nil {
		return err
	}
	o.deliver(wm, tvr.NewStreamRenderer(emitKeys))
	o.overflowed = overflowed
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
	r.Folded = p.log.Len()
	if err := applyOwned(tvr.NewRelation(), p.log); err != nil {
		return r, "", err
	}
	if p.log.Len() > 0 { // an empty cut stays nil, as a replay's rendering does
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
func (f *tableFold) read(log tvr.Range[tvr.Event]) (rows []types.Row, folded int, err error) {
	f.mu.Lock()
	n := log.Len()
	if n < f.n {
		f.mu.Unlock()
		rel := tvr.NewRelation()
		if err := applyOwned(rel, log); err != nil {
			return nil, 0, err
		}
		return rel.Rows(), n, nil
	}
	defer f.mu.Unlock()
	if err := applyOwned(f.rel, log.Slice(f.n, n)); err != nil {
		f.rel, f.n = tvr.NewRelation(), 0 // half applied: the next read refolds
		return nil, 0, err
	}
	folded, f.n = n-f.n, n
	return f.rel.Rows(), folded, nil
}

// applyOwned folds the output rows of r into rel, chunk by chunk
// (tvr.Relation.ApplyOwned).
func applyOwned(rel *tvr.Relation, r tvr.Range[tvr.Event]) error {
	for r.Len() > 0 {
		var evs []tvr.Event
		evs, r = r.Next()
		if err := rel.ApplyOwned(evs); err != nil {
			return err
		}
	}
	return nil
}
