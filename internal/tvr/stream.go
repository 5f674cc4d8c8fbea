package tvr

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/types"
)

// StreamRow is one row of the stream rendering of a TVR (Extension 4): the
// underlying relation row plus the changelog metadata columns the paper's
// EMIT STREAM examples show.
type StreamRow struct {
	// Row is the relation row affected.
	Row types.Row
	// Undo is true when the row is a retraction of a previous row.
	Undo bool
	// Ptime is the processing-time offset of the change in the changelog.
	Ptime types.Time
	// Ver is a sequence number versioning this row with respect to other
	// rows of the same event-time grouping.
	Ver int
}

// String renders the stream row as "(cols...) undo=? ptime=.. ver=..".
func (s StreamRow) String() string {
	undo := ""
	if s.Undo {
		undo = " undo"
	}
	return fmt.Sprintf("%s%s ptime=%s ver=%d", s.Row, undo, s.Ptime, s.Ver)
}

// RenderStream converts a changelog into its stream rendering, assigning each
// change a version number relative to other changes of the same group. The
// group of a row is identified by the values at keyIdxs (in the paper's
// examples, the window columns wstart/wend); if keyIdxs is empty every row
// belongs to one global group, so versions count every change of the
// relation in order: "changes to the same event time grouping" degenerating
// to the whole relation.
func RenderStream(c Changelog, keyIdxs []int) []StreamRow {
	return NewStreamRenderer(keyIdxs).Append(c)
}

// StreamRenderer is the incremental form of RenderStream: it keeps the
// per-group version counters across calls, so a changelog rendered in any
// number of Append batches yields exactly the rows a single RenderStream
// over the concatenated log would. Standing queries use it to version output
// rows as they are retained.
//
// A group is identified by the key encoding of its emit-key values
// (types.Row.AppendKeyOf), and its counter lives in one of two stores:
//
//   - times: a group whose emit-key values are one or two non-NULL
//     TIMESTAMPs (a window's wstart and wend, Q1's dateTime) is keyed by
//     those timestamps in a map with no pointer in it, so a new group costs
//     no heap key and no heap counter, and the garbage collector does not
//     scan the map;
//   - vers: every other group (a NULL among the values, other kinds, more
//     than two columns, or the empty key of the one global group) is keyed
//     by its encoding, with a heap counter, so bumping it in place needs
//     one lookup and no key string.
//
// A group's shape decides its store, so no group is in both. Counters are
// ints in both: an int32 pads to the same map slot, and the global group can
// pass 2^31 changes. SaveState writes both stores as one list, in the bytes
// the key encoding gives, so the store a group sits in never shows in a
// checkpoint.
type StreamRenderer struct {
	keyIdxs []int
	timed   bool // one or two key columns: a row may take the times store
	times   map[[2]int64]int
	vers    map[string]*int
	scratch []byte // reusable group-key encoding buffer
	// Run cache for vers: consecutive changes to the same group (an
	// aggregate's retract/emit pair is the common case) skip the map probe.
	prevKey []byte
	prevVer *int
}

// NewStreamRenderer creates a renderer grouping version numbers by the
// columns at keyIdxs (empty means one global group).
func NewStreamRenderer(keyIdxs []int) *StreamRenderer {
	return &StreamRenderer{
		keyIdxs: keyIdxs,
		timed:   len(keyIdxs) == 1 || len(keyIdxs) == 2,
		times:   make(map[[2]int64]int),
		vers:    make(map[string]*int),
	}
}

// Append renders the next slice of the changelog, continuing the version
// numbering from previous calls.
func (r *StreamRenderer) Append(c Changelog) []StreamRow {
	nData := 0
	for i := range c {
		if c[i].IsData() {
			nData++
		}
	}
	if nData == 0 {
		return nil
	}
	out := make([]StreamRow, 0, nData)
	for _, e := range c {
		if e.IsData() {
			out = append(out, StreamRowOf(e, r.next(e.Row)))
		}
	}
	return out
}

// AppendVersions is Append keeping only the versions: it appends to dst one
// entry per event of c, the version Append would give it (0 for an event
// that is not data), and advances the counters as Append does. A standing
// query keeps these beside its retained output, so any stretch of that
// output renders with StreamRowOf without re-rendering what came before.
func (r *StreamRenderer) AppendVersions(dst []int, c Changelog) []int {
	for _, e := range c {
		v := 0
		if e.IsData() {
			v = r.next(e.Row)
		}
		dst = append(dst, v)
	}
	return dst
}

// Groups is the number of version counters the renderer holds: one per
// group it has rendered or loaded.
func (r *StreamRenderer) Groups() int {
	return len(r.times) + len(r.vers)
}

// StreamRowOf is the stream row of data event e at version ver.
func StreamRowOf(e Event, ver int) StreamRow {
	return StreamRow{Row: e.Row, Undo: e.Kind == Delete, Ptime: e.Ptime, Ver: ver}
}

// next returns the version of the next change to row's group and advances
// the group's counter.
func (r *StreamRenderer) next(row types.Row) int {
	if k, ok := r.timeKey(row); ok {
		n := r.times[k]
		r.times[k] = n + 1
		return n
	}
	r.scratch = r.scratch[:0]
	if len(r.keyIdxs) > 0 {
		r.scratch = row.AppendKeyOf(r.scratch, r.keyIdxs)
	}
	ver := r.prevVer
	if ver == nil || !bytes.Equal(r.scratch, r.prevKey) {
		v, ok := r.vers[string(r.scratch)] // allocation-free lookup
		if !ok {
			v = new(int)
			r.vers[string(r.scratch)] = v
		}
		ver = v
		r.prevKey = append(r.prevKey[:0], r.scratch...)
		r.prevVer = ver
	}
	n := *ver
	*ver++
	return n
}

// timeKey is row's group as a times-store key, if its emit-key values are
// one or two non-NULL TIMESTAMPs.
func (r *StreamRenderer) timeKey(row types.Row) (k [2]int64, ok bool) {
	if !r.timed {
		return k, false
	}
	for i, idx := range r.keyIdxs {
		v := row[idx]
		if v.Kind() != types.KindTimestamp {
			return k, false
		}
		k[i] = int64(v.Timestamp())
	}
	return k, true
}

// appendTimeKey appends the key encoding of times-store key k: what
// AppendKeyOf gives for the row whose emit-key values are its timestamps.
func (r *StreamRenderer) appendTimeKey(dst []byte, k [2]int64) []byte {
	for i := range r.keyIdxs {
		dst = types.NewTimestamp(types.Time(k[i])).AppendKey(dst)
	}
	return dst
}

// FormatStreamTable renders stream rows as the paper's EMIT STREAM listings
// do: the relation columns followed by undo, ptime, and ver.
func FormatStreamTable(schema *types.Schema, rows []StreamRow) string {
	headers := append(append([]string{}, schema.Names()...), "undo", "ptime", "ver")
	var cells [][]string
	for _, s := range rows {
		row := make([]string, 0, len(headers))
		for _, v := range s.Row {
			row = append(row, v.String())
		}
		undo := ""
		if s.Undo {
			undo = "undo"
		}
		row = append(row, undo, s.Ptime.String(), strconv.Itoa(s.Ver))
		cells = append(cells, row)
	}
	return FormatTable(headers, cells)
}

// FormatRelationTable renders plain relation rows as a bordered text table in
// the style of the paper's listings.
func FormatRelationTable(schema *types.Schema, rows []types.Row) string {
	var cells [][]string
	for _, r := range rows {
		row := make([]string, 0, len(r))
		for _, v := range r {
			row = append(row, v.String())
		}
		cells = append(cells, row)
	}
	return FormatTable(schema.Names(), cells)
}

// FormatTable renders a simple bordered text table with one header row.
func FormatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 1
	for _, w := range widths {
		total += w + 3
	}
	border := strings.Repeat("-", total)
	var sb strings.Builder
	sb.Grow((len(rows) + 4) * (total + 1))
	writeRow := func(cells []string) {
		sb.WriteByte('|')
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			sb.WriteByte(' ')
			sb.WriteString(c)
			for p := len(c); p < w; p++ {
				sb.WriteByte(' ')
			}
			sb.WriteString(" |")
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(border)
	sb.WriteByte('\n')
	writeRow(headers)
	sb.WriteString(border)
	sb.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	sb.WriteString(border)
	sb.WriteByte('\n')
	return sb.String()
}
