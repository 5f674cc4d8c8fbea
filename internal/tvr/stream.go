package tvr

import (
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
// A group's counter lives in a Store under the key encoding of its emit-key
// values (types.Row.AppendKeyOf); the one global group of a renderer with no
// key columns is the empty key, whose slot such a renderer resolves once
// instead of per row. A counter is an int: the global group can pass 2^31
// changes. A new group takes a slot and its key bytes, so versioning
// allocates only when the store grows (TestStreamRendererAllocs). SaveState
// writes the counters in key order.
type StreamRenderer struct {
	keyIdxs []int
	vers    Store[int]
	scratch []byte // reusable group-key encoding buffer
	global  int32  // with no key columns, the global group's slot once resolved; -1 before
}

// NewStreamRenderer creates a renderer grouping version numbers by the
// columns at keyIdxs (empty means one global group).
func NewStreamRenderer(keyIdxs []int) *StreamRenderer {
	return &StreamRenderer{keyIdxs: keyIdxs, global: -1}
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
func (r *StreamRenderer) Groups() int { return r.vers.Len() }

// StreamRowOf is the stream row of data event e at version ver.
func StreamRowOf(e Event, ver int) StreamRow {
	return StreamRow{Row: e.Row, Undo: e.Kind == Delete, Ptime: e.Ptime, Ver: ver}
}

// next returns the version of the next change to row's group and advances
// the group's counter.
func (r *StreamRenderer) next(row types.Row) int {
	sl := r.global
	if sl < 0 {
		r.scratch = row.AppendKeyOf(r.scratch[:0], r.keyIdxs)
		if sl = r.vers.Find(r.scratch); sl < 0 {
			sl = r.vers.Insert(r.scratch)
		}
		if len(r.keyIdxs) == 0 {
			r.global = sl // the store never removes, so the slot stays the group's
		}
	}
	v := r.vers.At(sl)
	*v++
	return *v - 1
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
