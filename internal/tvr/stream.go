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
// over the concatenated log would. Standing queries use it to decorate
// output deltas as they materialize.
type StreamRenderer struct {
	keyIdxs []int
	// vers holds pointer-valued counters so the steady-state path — encode
	// the group key into the scratch buffer, look up, bump through the
	// pointer — never materializes a key string (map assignment with a
	// string(bytes) key would allocate; lookups do not).
	vers    map[string]*int
	scratch []byte // reusable group-key encoding buffer
	// Run cache: consecutive changes to the same group (an aggregate's
	// retract/emit pair is the common case) skip the map probe.
	prevKey []byte
	prevVer *int
}

// NewStreamRenderer creates a renderer grouping version numbers by the
// columns at keyIdxs (empty means one global group).
func NewStreamRenderer(keyIdxs []int) *StreamRenderer {
	return &StreamRenderer{keyIdxs: keyIdxs, vers: make(map[string]*int)}
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
		if !e.IsData() {
			continue
		}
		r.scratch = r.scratch[:0]
		if len(r.keyIdxs) > 0 {
			r.scratch = e.Row.AppendKeyOf(r.scratch, r.keyIdxs)
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
		out = append(out, StreamRow{
			Row:   e.Row,
			Undo:  e.Kind == Delete,
			Ptime: e.Ptime,
			Ver:   *ver,
		})
		*ver++
	}
	return out
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
