package main

// The encoding/json wire path the codec in wire.go replaced, kept as the
// reference the parity tests and fuzz targets compare it against: ingest
// bodies decoded into []any with UseNumber and coerced by decodeRow, and
// responses built as maps and written by a reflecting json.Encoder.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

type eventJSON struct {
	// Kind is "insert", "delete", or "watermark".
	Kind string `json:"kind"`
	// Ptime is the processing time in engine milliseconds.
	Ptime types.Time `json:"ptime"`
	// Row holds the column values for insert/delete.
	Row []any `json:"row,omitempty"`
	// Wm is the watermark value for watermark events.
	Wm types.Time `json:"wm,omitempty"`
}

type ingestJSON struct {
	Events []eventJSON `json:"events"`
}

// asInt64 extracts an integral JSON value. Bodies decode with UseNumber, so
// numbers arrive as json.Number and never take the float64 round-trip that
// corrupts integers above 2^53; a fractional number is refused, not
// truncated.
func asInt64(v any) (int64, bool) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, false
	}
	i, err := n.Int64()
	return i, err == nil
}

// decodeRow coerces JSON values into a typed row using the relation schema.
func decodeRow(vals []any, sch *types.Schema) (types.Row, error) {
	if len(vals) != sch.Len() {
		return nil, fmt.Errorf("row has %d values, schema has %d columns", len(vals), sch.Len())
	}
	row := make(types.Row, len(vals))
	for i, v := range vals {
		c := sch.Cols[i]
		if v == nil {
			row[i] = types.Null()
			continue
		}
		switch c.Kind {
		case types.KindBool:
			b, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("column %s: expected boolean", c.Name)
			}
			row[i] = types.NewBool(b)
		case types.KindInt64:
			n, ok := asInt64(v)
			if !ok {
				return nil, fmt.Errorf("column %s: expected integer", c.Name)
			}
			row[i] = types.NewInt(n)
		case types.KindFloat64:
			n, ok := v.(json.Number)
			if !ok {
				return nil, fmt.Errorf("column %s: expected number", c.Name)
			}
			f, err := n.Float64()
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", c.Name, err)
			}
			row[i] = types.NewFloat(f)
		case types.KindString:
			str, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("column %s: expected string", c.Name)
			}
			row[i] = types.NewString(str)
		case types.KindTimestamp:
			n, ok := asInt64(v)
			if !ok {
				return nil, fmt.Errorf("column %s: expected timestamp milliseconds", c.Name)
			}
			row[i] = types.NewTimestamp(types.Time(n))
		case types.KindInterval:
			n, ok := asInt64(v)
			if !ok {
				return nil, fmt.Errorf("column %s: expected interval milliseconds", c.Name)
			}
			row[i] = types.NewInterval(types.Duration(n))
		default:
			return nil, fmt.Errorf("column %s: unsupported kind", c.Name)
		}
	}
	return row, nil
}

// encodeRow renders a typed row as JSON scalars (timestamps and intervals as
// engine milliseconds).
func encodeRow(row types.Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		switch v.Kind() {
		case types.KindNull:
			out[i] = nil
		case types.KindBool:
			out[i] = v.Bool()
		case types.KindInt64:
			out[i] = v.Int()
		case types.KindFloat64:
			out[i] = v.Float()
		case types.KindString:
			out[i] = v.Str()
		case types.KindTimestamp:
			out[i] = int64(v.Timestamp())
		case types.KindInterval:
			out[i] = int64(v.Interval())
		}
	}
	return out
}

func encodeSchema(sch *types.Schema) []columnJSON {
	out := make([]columnJSON, sch.Len())
	for i, c := range sch.Cols {
		out[i] = columnJSON{Name: c.Name, Type: c.Kind.String(), EventTime: c.EventTime}
	}
	return out
}

func encodeStreamRow(sr tvr.StreamRow) map[string]any {
	return map[string]any{
		"row": encodeRow(sr.Row), "undo": sr.Undo,
		"ptime": int64(sr.Ptime), "ver": sr.Ver,
	}
}

func encodeDelta(d live.Delta) map[string]any {
	out := map[string]any{"type": "delta", "watermark": int64(d.Watermark)}
	if d.Table != nil {
		ins := make([][]any, len(d.Table.Inserted))
		for i, r := range d.Table.Inserted {
			ins[i] = encodeRow(r)
		}
		del := make([][]any, len(d.Table.Deleted))
		for i, r := range d.Table.Deleted {
			del[i] = encodeRow(r)
		}
		out["ptime"] = int64(d.Table.Ptime)
		out["inserted"] = ins
		out["deleted"] = del
		return out
	}
	rows := make([]map[string]any, len(d.Stream))
	for i, sr := range d.Stream {
		rows[i] = encodeStreamRow(sr)
	}
	out["rows"] = rows
	return out
}

// decodeIngestRef is the reference ingest decode: one json.Decoder value
// (anything after it is never read), then the events coerced in order.
func decodeIngestRef(body []byte, sch *types.Schema) (tvr.Changelog, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var req ingestJSON
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	log := make(tvr.Changelog, 0, len(req.Events))
	for i, ev := range req.Events {
		switch kind := strings.ToLower(ev.Kind); kind {
		case "insert", "delete":
			row, err := decodeRow(ev.Row, sch)
			if err != nil {
				return nil, fmt.Errorf("event %d: %w", i, err)
			}
			if kind == "insert" {
				log = append(log, tvr.InsertEvent(ev.Ptime, row))
			} else {
				log = append(log, tvr.DeleteEvent(ev.Ptime, row))
			}
		case "watermark":
			log = append(log, tvr.WatermarkEvent(ev.Ptime, ev.Wm))
		default:
			return nil, fmt.Errorf("event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return log, nil
}

// encodeRef writes v as the reference did: one json.Encoder line.
func encodeRef(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// tableResponseRef and streamResponseRef are the reference /v1/query bodies.
func tableResponseRef(sch *types.Schema, rows []types.Row) map[string]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = encodeRow(row)
	}
	return map[string]any{"schema": encodeSchema(sch), "rows": out}
}

func streamResponseRef(sch *types.Schema, rows []tvr.StreamRow) map[string]any {
	out := make([]map[string]any, len(rows))
	for i, sr := range rows {
		out[i] = encodeStreamRow(sr)
	}
	return map[string]any{"schema": encodeSchema(sch), "rows": out}
}

// schemaLineRef and endLineRef are the reference first and last lines of a
// subscription.
func schemaLineRef(id int, mode string, sch *types.Schema) map[string]any {
	return map[string]any{"type": "schema", "id": id, "mode": mode, "columns": encodeSchema(sch)}
}

func endLineRef(err error) map[string]any {
	end := map[string]any{"type": "end"}
	if err != nil {
		end["error"] = err.Error()
	}
	return end
}
