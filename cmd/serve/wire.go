package main

// The wire codec of the three hot routes: ingest bodies decode straight into
// typed rows by the relation's column kinds, and subscription lines and
// one-shot query responses are appended into byte slices. The contract it
// keeps is stated once, in the package comment (main.go); the encoding/json
// reference it is fuzzed against lives in wire_ref_test.go.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// wireError is an ingest body the decoder refused: what was wrong, where in
// the body, and in which event of the events array (-1 outside it).
type wireError struct {
	Event  int
	Offset int
	Err    error
}

func (e *wireError) Error() string {
	if e.Event < 0 {
		return fmt.Sprintf("body byte %d: %v", e.Offset, e.Err)
	}
	return fmt.Sprintf("event %d (body byte %d): %v", e.Event, e.Offset, e.Err)
}

// errTrailingData refuses a body with anything but whitespace after its
// top-level value.
var errTrailingData = errors.New("trailing data after the top-level JSON value")

// maxNesting is encoding/json's nesting limit, kept so both refuse the same
// bodies.
const maxNesting = 10000

// Event kinds as the "kind" field names them.
const (
	kindUnknown uint8 = iota
	kindInsert
	kindDelete
	kindWatermark
)

// wireEvent is one element of the events array as the scan leaves it: the
// fields of the object, decoded in place. A repeated key overwrites its
// field, a null leaves the field as it was, and a repeated "events" key
// decodes into the slots the previous array left — exactly as encoding/json
// decodes into a reused slice of structs. Whether the event is valid is
// decided only once the whole body is read.
type wireEvent struct {
	kind      uint8
	other     string // the kind's text when it is not one of the three
	ptime, wm int64
	row, n    int        // the row's values are vals[row : row+min(n, columns)]
	rowErr    *wireError // the first row value that does not fit its column
	off       int        // body offset of the event's object
}

// ingestDecoder decodes ingest bodies. Its buffers are scratch reused
// across requests (through ingestDecoders); only the returned changelog and
// its rows are fresh.
type ingestDecoder struct {
	body  []byte // the request body, read by readBody
	data  []byte // the body being decoded
	pos   int
	event int // index of the event being scanned, -1 outside the array
	cols  []types.Column
	evs   []wireEvent // decoded in place; a length is passed alongside
	vals  []types.Value
	buf   []byte // unescaped string scratch
}

var ingestDecoders = sync.Pool{New: func() any { return new(ingestDecoder) }}

// readBody reads the whole request body, at most maxBodyBytes of it, into
// the decoder's reused buffer.
func (d *ingestDecoder) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	buf := d.body[:0]
	if n := r.ContentLength; n >= 0 && n < maxBodyBytes && int(n) >= cap(buf) {
		buf = make([]byte, 0, n+1) // +1: the read that reports EOF needs room
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			d.body = buf
			return buf, nil
		}
		if err != nil {
			d.body = buf
			return nil, err
		}
	}
}

// decode turns an ingest body, {"events":[...]}, into a changelog for a
// relation with schema sch. Every refusal is a *wireError.
func (d *ingestDecoder) decode(body []byte, sch *types.Schema) (tvr.Changelog, error) {
	d.data, d.pos, d.event, d.cols = body, 0, -1, sch.Cols
	d.evs, d.vals = d.evs[:0], d.vals[:0]
	defer d.release()
	n, err := d.top()
	if err != nil {
		return nil, err
	}
	if d.ws(); d.pos < len(d.data) {
		return nil, &wireError{Event: -1, Offset: d.pos, Err: errTrailingData}
	}
	return d.changelog(n)
}

// release drops the decoder's references into the body and the rows so a
// pooled decoder pins neither.
func (d *ingestDecoder) release() {
	clear(d.vals)
	clear(d.evs)
	d.data, d.cols = nil, nil
}

// changelog builds the batch from the first n scanned events: the rows of
// all of them sliced out of one block.
func (d *ingestDecoder) changelog(n int) (tvr.Changelog, error) {
	evs, cols := d.evs[:n], len(d.cols)
	total := 0
	for i := range evs {
		ev := &evs[i]
		switch ev.kind {
		case kindInsert, kindDelete:
			if ev.n != cols {
				return nil, &wireError{Event: i, Offset: ev.off, Err: fmt.Errorf("row has %d values, schema has %d columns", ev.n, cols)}
			}
			if ev.rowErr != nil {
				return nil, ev.rowErr
			}
			total += cols
		case kindWatermark:
		default:
			return nil, &wireError{Event: i, Offset: ev.off, Err: fmt.Errorf("unknown kind %q", ev.other)}
		}
	}
	log := make(tvr.Changelog, n)
	block := make([]types.Value, total)
	k := 0
	for i := range evs {
		ev := &evs[i]
		p := types.Time(ev.ptime)
		if ev.kind == kindWatermark {
			log[i] = tvr.WatermarkEvent(p, types.Time(ev.wm))
			continue
		}
		row := block[k : k+cols : k+cols]
		copy(row, d.vals[ev.row:])
		k += cols
		if ev.kind == kindInsert {
			log[i] = tvr.InsertEvent(p, row)
		} else {
			log[i] = tvr.DeleteEvent(p, row)
		}
	}
	return log, nil
}

// top scans the body's top-level value and returns how many events it holds.
func (d *ingestDecoder) top() (int, error) {
	d.ws()
	switch d.peek() {
	case 'n':
		return 0, d.literal("null")
	case '{':
	default:
		return 0, d.fail("the body must be a JSON object")
	}
	d.pos++
	n := 0
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return n, err
		}
		if !keyIs(key, "events") {
			if err := d.skip(1); err != nil {
				return 0, err
			}
			continue
		}
		switch d.peek() {
		case '[':
			if n, err = d.events(); err != nil {
				return 0, err
			}
		case 'n':
			d.evs, n = d.evs[:0], 0
			if err := d.literal("null"); err != nil {
				return 0, err
			}
		default:
			return 0, d.fail("events must be an array")
		}
	}
}

// events scans an events array into d.evs, reusing the slots an earlier
// "events" key filled, and returns its length.
func (d *ingestDecoder) events() (int, error) {
	d.pos++
	i := 0
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if i == len(d.evs) {
			d.evs = append(d.evs, wireEvent{})
		}
		d.event = i
		switch d.peek() {
		case '{':
			err = d.eventObject(&d.evs[i])
		case 'n':
			err = d.literal("null")
		default:
			err = d.fail("an event must be an object")
		}
		if err != nil {
			return 0, err
		}
		i++
	}
	d.event = -1
	if i == 0 {
		d.evs = d.evs[:0]
	}
	return i, nil
}

func (d *ingestDecoder) eventObject(ev *wireEvent) error {
	ev.off = d.pos
	d.pos++
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case keyIs(key, "kind"):
			switch d.peek() {
			case '"':
				s, err := d.str()
				if err != nil {
					return err
				}
				ev.kind, ev.other = parseEventKind(s)
			case 'n':
				err = d.literal("null")
			default:
				err = d.fail("kind must be a string")
			}
		case keyIs(key, "ptime"):
			err = d.intField(&ev.ptime, "ptime")
		case keyIs(key, "wm"):
			err = d.intField(&ev.wm, "wm")
		case keyIs(key, "row"):
			switch d.peek() {
			case '[':
				err = d.row(ev)
			case 'n':
				ev.n, ev.rowErr = 0, nil
				err = d.literal("null")
			default:
				err = d.fail("row must be an array")
			}
		default:
			err = d.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

// parseEventKind classifies a kind the way strings.ToLower and a compare
// would, without allocating for ASCII text.
func parseEventKind(s []byte) (uint8, string) {
	switch {
	case asciiLowerIs(s, "insert"):
		return kindInsert, ""
	case asciiLowerIs(s, "delete"):
		return kindDelete, ""
	case asciiLowerIs(s, "watermark"):
		return kindWatermark, ""
	}
	switch text := string(s); strings.ToLower(text) {
	case "insert":
		return kindInsert, ""
	case "delete":
		return kindDelete, ""
	case "watermark":
		return kindWatermark, ""
	default:
		return kindUnknown, text
	}
}

// asciiLowerIs reports whether s, ASCII-lowercased, equals the lowercase
// ASCII word.
func asciiLowerIs(s []byte, word string) bool {
	if len(s) != len(word) {
		return false
	}
	for i, c := range s {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != word[i] {
			return false
		}
	}
	return true
}

// keyIs matches an object key to a field name as encoding/json does.
func keyIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// intField scans an integer field (ptime, wm) into dst; null leaves it.
func (d *ingestDecoder) intField(dst *int64, name string) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		off := d.pos
		text, integral, err := d.number()
		if err != nil {
			return err
		}
		if n, ok := parseInt(text, integral); ok {
			*dst = n
			return nil
		}
		return &wireError{Event: d.event, Offset: off, Err: fmt.Errorf("%s %s is not an integer number of milliseconds", name, text)}
	default:
		return d.fail(name + " must be an integer number of milliseconds")
	}
}

// row scans a row array into d.vals by the column kinds. A value that does
// not fit its column is recorded, not returned: the event may turn out to
// be a watermark, or a later "row" key may replace the row.
func (d *ingestDecoder) row(ev *wireEvent) error {
	d.pos++
	ev.row, ev.n, ev.rowErr = len(d.vals), 0, nil
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil || !ok {
			return err
		}
		j := ev.n
		ev.n++
		if j >= len(d.cols) {
			if err := d.skip(4); err != nil {
				return err
			}
			continue
		}
		off := d.pos
		v, misfit, err := d.value(d.cols[j].Kind)
		if err != nil {
			return err
		}
		if misfit != nil && ev.rowErr == nil {
			ev.rowErr = &wireError{Event: d.event, Offset: off, Err: fmt.Errorf("column %s: %w", d.cols[j].Name, misfit)}
		}
		d.vals = append(d.vals, v)
	}
}

// value scans one row value for a column of kind k. misfit reports a
// well-formed value of the wrong type for the column; err a malformed body.
func (d *ingestDecoder) value(k types.Kind) (v types.Value, misfit, err error) {
	switch ch := d.peek(); {
	case ch == 'n':
		return types.Null(), nil, d.literal("null")
	case ch == 't' || ch == 'f':
		lit := "true"
		if ch == 'f' {
			lit = "false"
		}
		if err := d.literal(lit); err != nil {
			return v, nil, err
		}
		if k == types.KindBool {
			return types.NewBool(ch == 't'), nil, nil
		}
	case ch == '"':
		s, err := d.str()
		if err != nil {
			return v, nil, err
		}
		if k == types.KindString {
			return types.NewString(string(s)), nil, nil
		}
	case ch == '-' || '0' <= ch && ch <= '9':
		text, integral, err := d.number()
		if err != nil {
			return v, nil, err
		}
		switch k {
		case types.KindInt64, types.KindTimestamp, types.KindInterval:
			n, ok := parseInt(text, integral)
			if !ok {
				break
			}
			switch k {
			case types.KindInt64:
				return types.NewInt(n), nil, nil
			case types.KindTimestamp:
				return types.NewTimestamp(types.Time(n)), nil, nil
			default:
				return types.NewInterval(types.Duration(n)), nil, nil
			}
		case types.KindFloat64:
			f, err := strconv.ParseFloat(string(text), 64)
			if err != nil {
				return v, err, nil
			}
			return types.NewFloat(f), nil, nil
		}
	default:
		if err := d.skip(4); err != nil {
			return v, nil, err
		}
	}
	return v, errors.New(expectedFor(k)), nil
}

// expectedFor names what a column of kind k accepts.
func expectedFor(k types.Kind) string {
	switch k {
	case types.KindBool:
		return "expected boolean"
	case types.KindInt64:
		return "expected integer"
	case types.KindFloat64:
		return "expected number"
	case types.KindString:
		return "expected string"
	case types.KindTimestamp:
		return "expected timestamp milliseconds"
	case types.KindInterval:
		return "expected interval milliseconds"
	default:
		return "unsupported kind"
	}
}

// parseInt reads a scanned JSON number the way json.Number.Int64 does: no
// fraction, no exponent, and an overflow is refused.
func parseInt(text []byte, integral bool) (int64, bool) {
	if !integral {
		return 0, false
	}
	digits := text
	if text[0] == '-' {
		digits = text[1:]
	}
	if len(digits) > 18 { // may overflow: let strconv decide
		n, err := strconv.ParseInt(string(text), 10, 64)
		return n, err == nil
	}
	var n int64
	for _, c := range digits {
		n = n*10 + int64(c-'0')
	}
	if text[0] == '-' {
		n = -n
	}
	return n, true
}

// ---- the scanner ----

func (d *ingestDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the scan position, or 0 at the end of the body.
func (d *ingestDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// fail refuses the body at the scan position: a malformed body, or a
// well-formed value where the ingest shape has no room for it.
func (d *ingestDecoder) fail(msg string) error {
	if d.pos >= len(d.data) {
		return &wireError{Event: d.event, Offset: d.pos, Err: io.ErrUnexpectedEOF}
	}
	return &wireError{Event: d.event, Offset: d.pos, Err: fmt.Errorf("%s, found %q", msg, d.data[d.pos])}
}

func (d *ingestDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// member steps to the next member of an object whose '{' is consumed: it
// returns the unescaped key (valid until the next string is scanned) with
// the scan at the member's value, or ok=false once the '}' is consumed.
func (d *ingestDecoder) member(first bool) (key []byte, ok bool, err error) {
	d.ws()
	switch c := d.peek(); {
	case c == '}':
		d.pos++
		return nil, false, nil
	case !first && c == ',':
		d.pos++
		d.ws()
	case !first:
		return nil, false, d.fail("expected ',' or '}' after an object member")
	}
	if d.peek() != '"' {
		return nil, false, d.fail("expected a string object key")
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	d.ws()
	if d.peek() != ':' {
		return nil, false, d.fail("expected ':' after an object key")
	}
	d.pos++
	d.ws()
	return key, true, nil
}

// element steps to the next element of an array whose '[' is consumed,
// leaving the scan at it, or returns false once the ']' is consumed.
func (d *ingestDecoder) element(first bool) (bool, error) {
	d.ws()
	switch c := d.peek(); {
	case c == ']':
		d.pos++
		return false, nil
	case !first && c == ',':
		d.pos++
		d.ws()
	case !first:
		return false, d.fail("expected ',' or ']' after an array element")
	}
	return true, nil
}

// skip scans past one well-formed value of any type. depth is the nesting
// of the container holding it.
func (d *ingestDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth++; depth > maxNesting {
			return d.fail("exceeded the maximum nesting depth")
		}
		d.pos++
		for first := true; ; first = false {
			var ok bool
			var err error
			if c == '{' {
				_, ok, err = d.member(first)
			} else {
				ok, err = d.element(first)
			}
			if err != nil || !ok {
				return err
			}
			if err := d.skip(depth); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		_, _, err := d.number()
		return err
	}
}

// number scans a JSON number and returns its text and whether it is
// integral (no fraction, no exponent).
func (d *ingestDecoder) number() (text []byte, integral bool, err error) {
	data, p := d.data, d.pos
	digits := func() bool {
		start := p
		for p < len(data) && '0' <= data[p] && data[p] <= '9' {
			p++
		}
		return p > start
	}
	if p < len(data) && data[p] == '-' {
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		digits()
	default:
		d.pos = p
		return nil, false, d.fail("expected a value")
	}
	integral = true
	if p < len(data) && data[p] == '.' {
		p++
		if !digits() {
			d.pos = p
			return nil, false, d.fail("expected a digit after the decimal point")
		}
		integral = false
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if !digits() {
			d.pos = p
			return nil, false, d.fail("expected a digit in the exponent")
		}
		integral = false
	}
	text, d.pos = data[d.pos:p], p
	return text, integral, nil
}

// str scans a string and returns its unescaped bytes: a slice of the body
// when it holds no escape and no invalid UTF-8, else d.buf, valid until the
// next call. Invalid UTF-8 and unpaired surrogates become U+FFFD.
func (d *ingestDecoder) str() ([]byte, error) {
	data := d.data
	start := d.pos + 1
	p := start
	for p < len(data) {
		c := data[p]
		if c == '"' {
			d.pos = p + 1
			return data[start:p], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			p++
			continue
		}
		r, size := utf8.DecodeRune(data[p:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		p += size
	}
	b := append(d.buf[:0], data[start:p]...)
	defer func() { d.buf = b[:0] }()
	for {
		if p >= len(data) {
			d.pos = p
			return nil, d.fail("unterminated string")
		}
		switch c := data[p]; {
		case c == '"':
			d.pos = p + 1
			return b, nil
		case c == '\\':
			if p+1 >= len(data) {
				d.pos = p + 1
				return nil, d.fail("unterminated escape")
			}
			switch e := data[p+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[p+2:])
				if r < 0 {
					d.pos = p
					return nil, d.fail(`expected four hex digits after \u`)
				}
				p += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if p+1 < len(data) && data[p] == '\\' && data[p+1] == 'u' {
						r2 = hex4(data[p+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						p += 6
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = p + 1
				return nil, d.fail("invalid escape")
			}
			p += 2
		case c < ' ':
			d.pos = p
			return nil, d.fail("control character in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			p++
		default:
			r, size := utf8.DecodeRune(data[p:])
			b = utf8.AppendRune(b, r)
			p += size
		}
	}
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// ---- the appenders ----

// appendDelta appends one subscription delta line: the bytes json.Encoder
// writes for the delta's map, newline included.
func appendDelta(b []byte, d live.Delta) ([]byte, error) {
	var err error
	if t := d.Table; t != nil {
		b = append(b, `{"deleted":`...)
		if b, err = appendRows(b, t.Deleted); err != nil {
			return b, err
		}
		b = append(b, `,"inserted":`...)
		if b, err = appendRows(b, t.Inserted); err != nil {
			return b, err
		}
		b = append(b, `,"ptime":`...)
		b = strconv.AppendInt(b, int64(t.Ptime), 10)
	} else {
		b = append(b, `{"rows":`...)
		if b, err = appendStreamRows(b, d.Stream); err != nil {
			return b, err
		}
	}
	b = append(b, `,"type":"delta","watermark":`...)
	b = strconv.AppendInt(b, int64(d.Watermark), 10)
	return append(b, "}\n"...), nil
}

// appendTableResponse appends a one-shot table read's response.
func appendTableResponse(b []byte, sch *types.Schema, rows []types.Row) ([]byte, error) {
	b = append(b, `{"rows":`...)
	b, err := appendRows(b, rows)
	if err != nil {
		return b, err
	}
	return appendSchemaTail(b, sch), nil
}

// appendStreamResponse appends a one-shot stream read's response.
func appendStreamResponse(b []byte, sch *types.Schema, rows []tvr.StreamRow) ([]byte, error) {
	b = append(b, `{"rows":`...)
	b, err := appendStreamRows(b, rows)
	if err != nil {
		return b, err
	}
	return appendSchemaTail(b, sch), nil
}

func appendSchemaTail(b []byte, sch *types.Schema) []byte {
	b = append(b, `,"schema":`...)
	return append(appendSchema(b, sch), "}\n"...)
}

// appendSchemaLine appends a subscription's first line.
func appendSchemaLine(b []byte, id int, mode string, sch *types.Schema) []byte {
	b = append(b, `{"columns":`...)
	b = appendSchema(b, sch)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, `,"mode":`...)
	b = appendString(b, mode)
	return append(b, `,"type":"schema"}`+"\n"...)
}

// appendEndLine appends a subscription's last line, naming err if any.
func appendEndLine(b []byte, err error) []byte {
	b = append(b, '{')
	if err != nil {
		b = append(b, `"error":`...)
		b = appendString(b, err.Error())
		b = append(b, ',')
	}
	return append(b, `"type":"end"}`+"\n"...)
}

// appendSchema appends the columns as columnJSON values encode.
func appendSchema(b []byte, sch *types.Schema) []byte {
	b = append(b, '[')
	for i, c := range sch.Cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":`...)
		b = appendString(b, c.Name)
		b = append(b, `,"type":`...)
		b = appendString(b, c.Kind.String())
		if c.EventTime {
			b = append(b, `,"eventTime":true`...)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendRows(b []byte, rows []types.Row) ([]byte, error) {
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendRow(b, row); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

func appendStreamRows(b []byte, rows []tvr.StreamRow) ([]byte, error) {
	b = append(b, '[')
	for i := range rows {
		sr := &rows[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ptime":`...)
		b = strconv.AppendInt(b, int64(sr.Ptime), 10)
		b = append(b, `,"row":`...)
		var err error
		if b, err = appendRow(b, sr.Row); err != nil {
			return b, err
		}
		b = append(b, `,"undo":`...)
		b = strconv.AppendBool(b, sr.Undo)
		b = append(b, `,"ver":`...)
		b = strconv.AppendInt(b, int64(sr.Ver), 10)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendRow appends a row as JSON scalars: timestamps and intervals as
// engine milliseconds.
func appendRow(b []byte, row types.Row) ([]byte, error) {
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.Kind() {
		case types.KindBool:
			b = strconv.AppendBool(b, v.Bool())
		case types.KindInt64, types.KindTimestamp, types.KindInterval:
			b = strconv.AppendInt(b, v.Int(), 10)
		case types.KindFloat64:
			var err error
			if b, err = appendFloat(b, v.Float()); err != nil {
				return b, err
			}
		case types.KindString:
			b = appendString(b, v.Str())
		default:
			b = append(b, "null"...)
		}
	}
	return append(b, ']'), nil
}

// appendFloat formats f as encoding/json does: 'f' for 1e-6 <= |f| < 1e21,
// else 'e' with a one-digit negative exponent unpadded. JSON has no ±Inf
// or NaN, so those are an error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("result value %s is not representable in JSON", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// htmlSafe marks the ASCII bytes json.Encoder writes unescaped: printable,
// and none of '"', '\\', '<', '>', '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as json.Encoder writes it with its default
// HTML escaping: invalid UTF-8 becomes \ufffd, and U+2028 and U+2029 are
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
