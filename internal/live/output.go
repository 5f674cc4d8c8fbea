package live

import (
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/tvr"
	"repro/internal/types"
)

// output is a session's retained output: the output changelog, the
// deliveries, numbered from 0, that every retained row belongs to, and the
// stream version of each row, each a tvr.Log addressed by absolute position.
// A cursor is a position in it, and a one-shot read is a cut of it. The
// session's mu guards it but for the versions, which the session's
// versioning lock (vmu) guards; the pieces it hands out are captured log
// ranges, which stay valid without either lock.
type output struct {
	// rows is the driver's output log (exec.Driver.Output): feeds stage
	// rows in it, and deliver publishes them.
	rows *tvr.Log[tvr.Event]
	// marks at position d ends delivery d-1 and starts d, so marks.Base() is
	// the first retained delivery and the mark there is where its rows
	// start; rows below it stay only until they are versioned. The base
	// moves only past the cap (trim).
	marks tvr.Log[mark]
	v     versions

	max        int  // Config.MaxRetainedRows; 0 keeps everything
	overflowed bool // more than max rows were delivered
	// fold is the table rendering of a prefix of rows that table reads
	// extend. Nil until the first, and again after overflow or close.
	fold *tableFold
}

// versions are the stream versions of an output's rows, assigned lazily and
// in order: the rows below the versioned-through position (log.End()) have
// theirs, and the first party that needs a later row's version versions
// every row up to it (Session.capture). The session's vmu guards the fields
// but through, and no commit takes it, so a commit never waits on a
// versioner.
type versions struct {
	log      tvr.Log[int] // the version of the row at the same position
	renderer *tvr.StreamRenderer
	buf      []int // scratch for a chunk's versions
	// through is log.End(), stored for trims, which hold only the
	// session's mu: rows below it may go, the rest wait for their versions.
	through atomic.Int64
}

// version versions tail, the rows from the versioned-through position on
// (output.unversioned), and drops the versions below base, the first
// retained row. Caller holds vmu.
func (v *versions) version(tail tvr.Range[tvr.Event], base int) {
	for tail.Len() > 0 {
		var evs []tvr.Event
		evs, tail = tail.Next()
		v.buf = v.renderer.AppendVersions(v.buf[:0], evs)
		v.log.Append(v.buf...)
	}
	v.through.Store(int64(v.log.End()))
	v.log.TrimBelow(base)
}

// of is the versions of p, whose rows must all be versioned. Caller holds
// vmu.
func (v *versions) of(p piece) tvr.Range[int] {
	return v.log.Since(p.from).Slice(0, p.log.Len())
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

// piece is one delta's worth of output, from row from on. Reading it moves
// a reader to delivery next. vers is empty until Session.capture versions a
// piece for a stream rendering.
type piece struct {
	from int
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

// init makes o the empty output of a session whose driver stages its rows
// in rows, an empty log.
func (o *output) init(rows *tvr.Log[tvr.Event], emitKeys []int, max int) {
	o.rows, o.max = rows, max
	o.v.renderer = tvr.NewStreamRenderer(emitKeys)
	o.marks.Append(mark{})
}

// end is the number of deliveries made so far.
func (o *output) end() int { return o.marks.End() - 1 }

// deliver publishes what the driver staged in rows as the next delivery, at
// watermark wm, and returns its row count; nothing staged is no delivery.
// It versions nothing. The delivery that passes the cap overflows the
// output.
func (o *output) deliver(wm types.Time) int {
	from := o.rows.End()
	o.rows.Publish()
	end := o.rows.End()
	if end == from {
		return 0
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
	return piece{from: i, log: o.rows.Since(i).Slice(0, j-i), wm: wm, next: to}
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
// once the output has overflowed; within the cap it keeps everything. Their
// rows go only as far as they are versioned, and trim reports whether that
// held rows back. The logs free every chunk the retained deliveries no
// longer reach; the versions log is trimmed by its versioner (unversioned).
func (o *output) trim(low int) (behind bool) {
	if !o.overflowed {
		return false
	}
	o.marks.TrimBelow(low)
	i, through := o.marks.At(o.marks.Base()).end, int(o.v.through.Load())
	o.rows.TrimBelow(min(i, through))
	return i > through
}

// unversioned is what a versioner holding vmu needs to version every row
// below end: the rows from the versioned-through position to end (none when
// they are versioned already), and the first retained row, below which no
// version is needed any more. Trims keep the rows past the versioned-through
// position, so they are all retained.
func (o *output) unversioned(end int) (tvr.Range[tvr.Event], int) {
	from := o.v.log.End()
	if end <= from {
		return tvr.Range[tvr.Event]{}, o.rows.Base()
	}
	return o.rows.Since(from).Slice(0, end-from), o.rows.Base()
}

// cut is the retained rows with ptime <= at (their ptimes never decrease).
func (o *output) cut(at types.Time) piece {
	base := o.rows.Base()
	return piece{from: base, log: tvr.Cut(o.rows.Since(base), at)}
}

// save writes the renderer's counters and the retained rows, none past the
// cap: those are only cursors' unread tails, and cursors die with the
// process. Marks and versions are not written. Every row must be versioned.
func (o *output) save(enc *checkpoint.Encoder) {
	o.v.renderer.SaveState(enc)
	var rows tvr.Range[tvr.Event]
	if !o.overflowed {
		rows = o.rows.Since(o.rows.Base())
	}
	tvr.SaveLog(enc, rows)
}

// load reads what save wrote into an empty output. The saved rows were
// versioned from a fresh renderer's start, so the output's renderer, still
// fresh, versions them again, and they become one delivery at wm; then the
// loaded counters, grouping by emitKeys, take its place.
func (o *output) load(dec *checkpoint.Decoder, emitKeys []int, wm types.Time, overflowed bool) error {
	loaded := tvr.NewStreamRenderer(emitKeys)
	if err := loaded.LoadState(dec); err != nil {
		return err
	}
	if err := tvr.LoadLog(dec, o.rows); err != nil {
		return err
	}
	o.deliver(wm)
	o.v.version(o.rows.Since(o.rows.Base()), o.rows.Base())
	o.v.renderer = loaded
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
// It holds s.mu only to cut, so a running feed cannot stall it; a stream
// read versions the cut's unversioned rows outside it (capture).
func (s *Session) read(at types.Time, mode Mode) (r Reading, replay string, err error) {
	var f *tableFold
	// The bit is read under s.mu: a feed stores it before its delivery
	// appends under s.mu, so output of an out-of-order feed is never cut.
	p, _ := s.capture(mode, func() (piece, bool) {
		switch {
		case s.closed:
			replay = ReplayClosed
		case s.outOfOrder.Load():
			replay = ReplayOutOfOrder
		case s.out.overflowed:
			replay = ReplayOverflow
		default:
			if mode == Table {
				if s.out.fold == nil {
					s.out.fold = &tableFold{rel: tvr.NewRelation()}
				}
				f = s.out.fold
			}
			return s.out.cut(at), true
		}
		return piece{}, false
	})
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
