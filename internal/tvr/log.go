package tvr

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/types"
)

// ChunkLen is the capacity of every chunk of a Log, in elements. A chunk of
// events is 192 KiB. That amortizes a chunk's fixed costs (its allocation, its
// slot in the chunk list, the run a merge splits at its boundary) over 4,096
// appends, while the tail chunk's unused part stays bounded by one chunk per
// log, small beside the histories that make chunking pay.
const ChunkLen = 4096

// Log is an append-only log of T in fixed-capacity chunks (see "Logs" in the
// package documentation). Positions are absolute: the first element ever
// appended is at 0, and trimming does not renumber. The zero Log is empty and
// ready to use.
//
// Its owner guards it with a lock: Append, Publish, TrimBelow and every read
// (Base, End, Len, At, Since) run under it. Stage and Staged may run without it on
// the one goroutine that stages and publishes, concurrently with reads and
// trims under the lock, because staged elements lie past the published end,
// where no read reaches.
type Log[T any] struct {
	// chunks are the published chunks, each ChunkLen long; chunks[0] is chunk
	// number first, which holds positions [first*ChunkLen, (first+1)*ChunkLen).
	// The list is never written in place once a Range may hold it: Publish
	// appends past its length and TrimBelow copies it.
	chunks [][]T
	first  int
	base   int // the first retained position
	end    int // one past the last published position

	// The staging side, touched only by the goroutine that stages and
	// publishes: open holds the chunks from the one holding position end on
	// (the first of them already published when end is inside it), and
	// staged is one past the last staged position.
	open   [][]T
	staged int
}

// Stage writes vs past the published end, filling the tail chunk and adding
// chunks as it fills; no element already in the log moves. Until Publish,
// reads do not see them.
func (l *Log[T]) Stage(vs ...T) {
	for len(vs) > 0 {
		i := l.staged % ChunkLen
		if i == 0 {
			l.open = append(l.open, make([]T, ChunkLen))
		}
		n := copy(l.open[len(l.open)-1][i:], vs)
		vs = vs[n:]
		l.staged += n
	}
}

// Publish makes everything staged part of the log.
func (l *Log[T]) Publish() {
	if l.staged == l.end {
		return
	}
	fresh := l.open
	if l.end%ChunkLen != 0 {
		fresh = fresh[1:] // the chunk holding end is published already
	}
	l.chunks = append(l.chunks, fresh...)
	l.end = l.staged
	last := l.open[len(l.open)-1]
	clear(l.open)
	l.open = l.open[:0]
	if l.staged%ChunkLen != 0 {
		l.open = append(l.open, last)
	}
}

// Append stages vs and publishes them.
func (l *Log[T]) Append(vs ...T) {
	l.Stage(vs...)
	l.Publish()
}

// Staged is what has been staged and not yet published. It reads only the
// staging side, so it runs where Stage may.
func (l *Log[T]) Staged() Range[T] {
	n := l.staged - l.end
	if n == 0 {
		return Range[T]{}
	}
	i := l.end % ChunkLen
	c := l.open[0]
	h := min(ChunkLen, i+n)
	return Range[T]{head: c[i:h:h], rest: l.open[1:len(l.open):len(l.open)], n: n}
}

// Base is the first retained position.
func (l *Log[T]) Base() int { return l.base }

// End is one past the last published position: the number of elements ever
// published.
func (l *Log[T]) End() int { return l.end }

// Len is the number of retained elements.
func (l *Log[T]) Len() int { return l.end - l.base }

// At is the element at position pos, Base <= pos < End.
func (l *Log[T]) At(pos int) T {
	if pos < l.base || pos >= l.end {
		panic(fmt.Sprintf("tvr: At(%d) outside the retained positions [%d, %d)", pos, l.base, l.end))
	}
	return l.chunks[pos/ChunkLen-l.first][pos%ChunkLen]
}

// Since is the retained elements from position pos on, Base <= pos <= End.
// The Range stays valid without the lock: later appends and trims leave what
// it holds as it is.
func (l *Log[T]) Since(pos int) Range[T] {
	if pos < l.base || pos > l.end {
		panic(fmt.Sprintf("tvr: Since(%d) outside the retained positions [%d, %d]", pos, l.base, l.end))
	}
	n := l.end - pos
	if n == 0 {
		return Range[T]{}
	}
	k, i := pos/ChunkLen-l.first, pos%ChunkLen
	last := (l.end-1)/ChunkLen - l.first
	h := min(ChunkLen, i+n)
	return Range[T]{head: l.chunks[k][i:h:h], rest: l.chunks[k+1 : last+1 : last+1], n: n}
}

// TrimBelow drops the positions below pos, Base <= pos <= End, and frees
// every chunk that holds none of the rest. A chunk holding pos stays whole,
// so the log keeps at most ChunkLen-1 elements it no longer retains.
func (l *Log[T]) TrimBelow(pos int) {
	if pos <= l.base {
		return
	}
	if pos > l.end {
		panic(fmt.Sprintf("tvr: TrimBelow(%d) past the end %d", pos, l.end))
	}
	l.base = pos
	if k := pos/ChunkLen - l.first; k > 0 {
		// A new list: a Range captured earlier keeps the old one intact.
		l.chunks = slices.Clone(l.chunks[k:])
		l.first += k
	}
}

// Range is a captured stretch of a Log, or of a plain slice (RangeOf), held
// as the chunks that store it. It is a value: copying it copies no element,
// and nothing the log does later changes what it holds.
type Range[T any] struct {
	head []T   // the range's elements in its first chunk
	rest [][]T // the chunks after head, each ChunkLen long; the range ends n-len(head) elements into them
	n    int
}

// RangeOf is the range holding s, as one chunk.
func RangeOf[T any](s []T) Range[T] {
	return Range[T]{head: s[:len(s):len(s)], n: len(s)}
}

// Len is the number of elements in the range.
func (r Range[T]) Len() int { return r.n }

// Next splits off the range's first chunk: the elements it holds, and the
// range after them. Walk a range with
//
//	for r.Len() > 0 {
//		var c []T
//		c, r = r.Next()
//		...
//	}
func (r Range[T]) Next() ([]T, Range[T]) {
	n := r.n - len(r.head)
	if n == 0 {
		return r.head, Range[T]{}
	}
	h := min(ChunkLen, n)
	return r.head, Range[T]{head: r.rest[0][:h:h], rest: r.rest[1:], n: n}
}

// Slice is the elements [i, j) of the range, 0 <= i <= j <= Len.
func (r Range[T]) Slice(i, j int) Range[T] {
	if i < 0 || i > j || j > r.n {
		panic(fmt.Sprintf("tvr: Slice(%d, %d) of a range of %d", i, j, r.n))
	}
	if i == j {
		return Range[T]{}
	}
	if i < len(r.head) {
		r = Range[T]{head: r.head[i:], rest: r.rest, n: r.n - i}
	} else {
		k, off := (i-len(r.head))/ChunkLen, (i-len(r.head))%ChunkLen
		h := min(ChunkLen, off+r.n-i)
		r = Range[T]{head: r.rest[k][off:h:h], rest: r.rest[k+1:], n: r.n - i}
	}
	m := j - i
	if m <= len(r.head) {
		return Range[T]{head: r.head[:m:m], n: m}
	}
	k := (m - len(r.head) + ChunkLen - 1) / ChunkLen // rest chunks the prefix reaches into
	return Range[T]{head: r.head, rest: r.rest[:k:k], n: m}
}

// Flat is the range as one slice: its one chunk itself, or a copy when it
// spans several. The slice is capped, so appending to it copies.
func (r Range[T]) Flat() []T {
	if r.n == len(r.head) {
		return r.head
	}
	out := make([]T, 0, r.n)
	for r.n > 0 {
		var c []T
		c, r = r.Next()
		out = append(out, c...)
	}
	return out
}

// Cut is the prefix of r with ptime <= at, r's ptimes being non-decreasing: a
// binary search over each chunk's first ptime, then inside the chunk.
func Cut(r Range[Event], at types.Time) Range[Event] {
	if r.n == 0 {
		return r
	}
	first := func(c int) types.Time {
		if c == 0 {
			return r.head[0].Ptime
		}
		return r.rest[c-1][0].Ptime
	}
	c := sort.Search(1+len(r.rest), func(c int) bool { return first(c) > at })
	if c == 0 {
		return Range[Event]{}
	}
	start, chunk := 0, r.head
	if c > 1 {
		start, chunk = len(r.head)+(c-2)*ChunkLen, r.rest[c-2]
	}
	chunk = chunk[:min(len(chunk), r.n-start)]
	return r.Slice(0, start+sort.Search(len(chunk), func(i int) bool { return chunk[i].Ptime > at }))
}

// SaveLog writes the events of r as SaveChangelog writes a changelog of the
// same events: a count, then each event.
func SaveLog(enc *checkpoint.Encoder, r Range[Event]) {
	enc.Uvarint(uint64(r.n))
	for r.n > 0 {
		var c []Event
		c, r = r.Next()
		for _, ev := range c {
			SaveEvent(enc, ev)
		}
	}
}

// LoadLog reads what SaveLog or SaveChangelog wrote and stages it in l.
func LoadLog(dec *checkpoint.Decoder, l *Log[Event]) error {
	n := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		ev, err := LoadEvent(dec)
		if err != nil {
			return err
		}
		l.Stage(ev)
	}
	return nil
}
