package main

// The wire codec against its encoding/json reference (wire_ref_test.go):
// differential fuzz targets for ingest decode and for every appender, the
// allocation pins of the hot paths, and their micro-benchmarks.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/live"
	"repro/internal/nexmark"
	"repro/internal/tvr"
	"repro/internal/types"
)

// wireSchemas are the relation shapes the ingest fuzz target decodes for:
// the harness's Bid, Person and Auction, and one column of every kind.
var wireSchemas = []*types.Schema{
	nexmark.BidFullSchema(),
	nexmark.PersonSchema(),
	nexmark.AuctionSchema(),
	types.NewSchema(
		types.Column{Name: "b", Kind: types.KindBool},
		types.Column{Name: "i", Kind: types.KindInt64},
		types.Column{Name: "x", Kind: types.KindFloat64},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "t", Kind: types.KindTimestamp, EventTime: true},
		types.Column{Name: "d", Kind: types.KindInterval},
	),
}

// bidBody is a harness-shaped Bid batch of n inserts.
func bidBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"events":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		p := 1_700_000_000_000 + int64(i)
		fmt.Fprintf(&b, `{"kind":"insert","ptime":%d,"row":[%d,%d,%d,%d]}`, p, 1000+i%97, 5000+i, 100+i*7, p-3)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// ingestSeeds pairs a wireSchemas index with a body.
var ingestSeeds = []struct {
	schema int
	body   string
}{
	{0, string(bidBody(3))},
	{0, `{"events":[{"kind":"watermark","ptime":9,"wm":4},{"kind":"delete","ptime":9,"row":[1,2,3,4]}]}`},
	{1, `{"events":[{"kind":"insert","ptime":1,"row":[7,"Zo\u00eb \"Z\" \\ \/","z\u00f6@x.example","Z\u00fcrich \ud83d\ude00","\ud800 lone","1"]}]}`},
	{1, "{\"events\":[{\"kind\":\"insert\",\"ptime\":1,\"row\":[7,\"Łódź\",\"a\\u2028b\",\"\\ud83d\\u0041\",\"tab\\tnl\\n\",2]}]}"},
	{1, "{\"events\":[{\"kind\":\"insert\",\"ptime\":1,\"row\":[7,\"bad \xff\xfe utf8\",\"e\",\"c\",\"s\",2]}]}"},
	{2, `{"events":[{"kind":"insert","ptime":3,"row":[9,"caf\u00e9 \u00abitem\u00bb \"x\"",1,2,100,5000,3]},{"kind":"delete","ptime":3,"row":[9,"Ω≈ç",1,2,100,5000,3]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,1e400,1,"x",1,1]}]}`},
	{0, `{"EVENTS":[{"KIND":"INSERT","Ptime":5,"ROW":[1,2,3,4]},{"Kind":"Watermark","PTIME":5,"Wm":1}]}`},
	{0, `{"events":[{"kind":"insert","kind":"delete","ptime":1,"ptime":2,"row":[1,2,3,4],"row":[5,6,7,8]}]}`},
	{0, `{"events":[{"kind":"insert","ptime":1,"row":[1,2,3,4]}],"events":[{"kind":"delete"}]}`},
	{0, `{"events":[{"kind":"insert","ptime":1,"row":[1,2,3,4]},{"kind":"watermark","wm":3}],"events":[],"events":[{"kind":"insert"}]}`},
	{0, `{"events":[{"kind":"bogus","row":["x"]}],"events":[{"kind":"watermark","ptime":1,"wm":1}]}`},
	{0, `null`},
	{0, `{"events":null}`},
	{0, `{"events":[null]}`},
	{0, `{"events":[{"kind":null,"ptime":null,"wm":null,"row":null}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[null,null,null,null,null,null]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":-0,"row":[true,-0,-0,"",0,-5]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,1e3,1e3,"x",1,1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,1.0,1.0,"x",1,1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,1,1e400,"x",1,1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,1,1e-400,"x",1,1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,9223372036854775807,9223372036854775808,"x",-9223372036854775808,1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,9223372036854775808,1,"x",1,1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":9223372036854775808,"row":[false,1,1,"x",1,1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1e3,"row":[false,1,1,"x",1,1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,1,1,"x",1,1,7]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[false,1,1,"x",1]}]}`},
	{3, `{"events":[{"kind":"insert","ptime":1,"row":[1,1,true,2,"3",{}]}]}`},
	{0, `{"meta":{"a":[1,{"b":null}],"c":"d"},"events":[{"kind":"insert","extra":{"x":[true,false]},"ptime":1,"row":[1,2,3,4]}],"tail":-1.5e-3}`},
	{0, `{"events":[{"kind":"watermark","ptime":2,"wm":1,"row":[{"nested":[1,2]},"junk"]}]}`},
	{0, "{\"\\u212aind\":1,\"events\":[{\"\\u212aind\":\"insert\",\"ptime\":1,\"row\":[1,2,3,4]}]}"},
	{0, "{\"events\":[{\"kind\":\"WATERMAR\\u212a\",\"ptime\":1,\"wm\":1}]}"},
	{0, " \t\r\n{ \"events\" : [ ] } \n"},
	{0, `{"events":[{"kind":"insert","ptime":1,"row":[1,2,3,4]}]}{"events":[{"kind":"insert","ptime":2,"row":[1,2,3,4]}]}`},
	{0, `{"events":[]} garbage`},
	{0, `{"events":[1]}`},
	{0, `{"events":[{"kind":"insert","ptime":1,"row":[1,2,3,4],}]}`},
	{0, `{"events":[{"kind":"insert","ptime":"1","row":[1,2,3,4]}]}`},
	{0, `{"events":[{"kind":"insert","ptime":01,"row":[1,2,3,4]}]}`},
	{0, `{"events":{}}`},
	{0, `[]`},
	{0, ``},
	{0, `{"events":[{"kind":"insert","ptime":1,"row":[1,2,3,4]}`},
	{0, "{\"events\":[{\"kind\":\"in\x01sert\"}]}"},
	{0, `{"events":[{"kind":"insert","ptime":1,"row":"1,2,3,4"}]}`},
}

func FuzzIngestDecode(f *testing.F) {
	for _, s := range ingestSeeds {
		f.Add(uint8(s.schema), []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, schema uint8, body []byte) {
		checkIngestParity(t, body, wireSchemas[int(schema)%len(wireSchemas)])
	})
}

// checkIngestParity: the codec accepts exactly the bodies the reference
// accepts, with the same changelog, except that it refuses trailing data the
// reference never reads; then the value before it must decode as the
// reference decodes the whole body.
func checkIngestParity(t *testing.T, body []byte, sch *types.Schema) {
	t.Helper()
	d := ingestDecoders.Get().(*ingestDecoder)
	defer ingestDecoders.Put(d)
	got, err := d.decode(body, sch)
	want, wantErr := decodeIngestRef(body, sch)
	if err != nil {
		var we *wireError
		if !errors.As(err, &we) || we.Offset < 0 || we.Offset > len(body) {
			t.Fatalf("decode(%q) = %v: not a positioned *wireError", body, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("byte %d", we.Offset)) ||
			(we.Event >= 0) != strings.Contains(msg, fmt.Sprintf("event %d", we.Event)) {
			t.Fatalf("decode(%q): message %q does not name the position", body, msg)
		}
		if we.Err == errTrailingData {
			if len(bytes.TrimLeft(body[we.Offset:], " \t\r\n")) == 0 {
				t.Fatalf("decode(%q): trailing data refused at %d, but only whitespace follows", body, we.Offset)
			}
			checkIngestParity(t, body[:we.Offset], sch)
			return
		}
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("decode(%q): codec error %v, reference error %v", body, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode(%q):\n got %v\nwant %v", body, got, want)
	}
}

// TestIngestDecodeRefusals pins what a refusal says: the event and the body
// offset of the value at fault.
func TestIngestDecodeRefusals(t *testing.T) {
	bid := nexmark.BidFullSchema()
	for _, tc := range []struct{ body, want string }{
		{`{"events":[{"kind":"insert","ptime":1,"row":[1,2,3,4]}]} x`, "body byte 57: trailing data"},
		{`{"events":[{"kind":"insert","ptime":1,"row":[1,2,3,4]},{"kind":"insert","ptime":1,"row":[1,"2",3,4]}]}`, `event 1 (body byte 91): column bidder: expected integer`},
		{`{"events":[{"kind":"upsert","ptime":1}]}`, `event 0 (body byte 11): unknown kind "upsert"`},
		{`{"events":[{"kind":"insert","ptime":1,"row":[1,2,3]}]}`, `event 0 (body byte 11): row has 3 values, schema has 4 columns`},
		{`{"events":[{"kind":"insert","ptime":1.5}]}`, `event 0 (body byte 36): ptime 1.5 is not an integer`},
		{`{"events":[{"kind":"insert","ptime":1,"row":[1,2,3,4]`, `event 0 (body byte 53): unexpected EOF`},
		{`{"events":[{"row":[tru]}]}`, `event 0 (body byte 19): invalid literal`},
		{strings.Repeat("[", 3) + "]", `body byte 0: the body must be a JSON object`},
	} {
		_, err := new(ingestDecoder).decode([]byte(tc.body), bid)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decode(%s) = %v, want an error containing %q", tc.body, err, tc.want)
		}
	}
	// Nesting: encoding/json's limit of 10000 containers, counted from the
	// top-level object, inside a skipped value.
	for depth, ok := range map[int]bool{maxNesting: true, maxNesting + 1: false} {
		inner := depth - 1
		body := `{"x":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `}`
		checkIngestParity(t, []byte(body), bid)
		if _, err := new(ingestDecoder).decode([]byte(body), bid); (err == nil) != ok {
			t.Errorf("nesting depth %d: error %v, want accepted=%v", depth, err, ok)
		}
	}
}

func FuzzWireEncode(f *testing.F) {
	f.Add("plain", 1.5, true, false, int64(7), 0, false)
	f.Add("<a href=\"x\">&amp;</a>\u2028\u2029", 1e21, false, true, int64(-1), 3, true)
	f.Add("ctl \x00\x01\b\f\n\r\t\x1f\x7f \\ /", 1e-7, true, true, int64(math.MinInt64), -2, true)
	f.Add("bad \xff\xfe\xed\xa0\x80 utf8 \U0001F600", 123456789.125, false, false, int64(math.MaxInt64), 1, false)
	f.Add("", math.Copysign(0, -1), false, false, int64(0), 0, false)
	f.Add("inf", math.Inf(1), false, false, int64(0), 0, false)
	f.Add("nan", math.NaN(), false, false, int64(0), 0, false)
	f.Add("tiny", 5e-324, false, false, int64(0), 0, false)
	f.Fuzz(func(t *testing.T, s string, x float64, b, null bool, n int64, ver int, undo bool) {
		row := types.Row{
			types.NewString(s), types.NewFloat(x), types.NewBool(b), types.NewInt(n),
			types.NewTimestamp(types.Time(n)), types.NewInterval(types.Duration(n)),
		}
		if null {
			row = append(row, types.Null())
		}
		sch := types.NewSchema(
			types.Column{Name: s, Kind: types.KindString, EventTime: b},
			types.Column{Name: "x", Kind: types.KindFloat64, EventTime: !b},
		)
		stream := []tvr.StreamRow{{Row: row, Undo: undo, Ptime: types.Time(n), Ver: ver}, {}}
		wm := types.Time(n)
		for _, d := range []live.Delta{
			{Stream: stream, Watermark: wm},
			{Watermark: wm},
			{Table: &live.TableDiff{Ptime: wm, Inserted: []types.Row{row, {}}}, Watermark: wm},
			{Table: &live.TableDiff{Deleted: []types.Row{row}}},
		} {
			got, err := appendDelta(nil, d)
			checkEncoded(t, "delta", got, err, encodeDelta(d))
		}
		rows := []types.Row{row, nil}
		got, err := appendTableResponse(nil, sch, rows)
		checkEncoded(t, "table response", got, err, tableResponseRef(sch, rows))
		got, err = appendStreamResponse(nil, sch, stream)
		checkEncoded(t, "stream response", got, err, streamResponseRef(sch, stream))
		checkEncoded(t, "schema line", appendSchemaLine(nil, ver, s, sch), nil, schemaLineRef(ver, s, sch))
		checkEncoded(t, "end line", appendEndLine(nil, errors.New(s)), nil, endLineRef(errors.New(s)))
		checkEncoded(t, "end line", appendEndLine(nil, nil), nil, endLineRef(nil))
	})
}

// checkEncoded compares an appender's output with json.Encoder's over the
// reference value: the same bytes, or an error on both sides.
func checkEncoded(t *testing.T, what string, got []byte, err error, ref any) {
	t.Helper()
	want, wantErr := encodeRef(ref)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: appender error %v, encoding/json error %v", what, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
	}
}

// streamDelta is a 500-row stream delta of Bid rows.
func streamDelta() live.Delta {
	rows := make([]tvr.StreamRow, 500)
	for i := range rows {
		p := types.Time(1_700_000_000_000 + i)
		rows[i] = tvr.StreamRow{Row: types.Row{
			types.NewInt(int64(1000 + i%97)), types.NewInt(int64(5000 + i)),
			types.NewInt(int64(100 + 7*i)), types.NewTimestamp(p - 3),
		}, Ptime: p}
	}
	return live.Delta{Stream: rows, Watermark: 1_700_000_000_000}
}

// TestWireAllocs pins the hot paths' allocations: decoding a Bid batch
// allocates a constant handful (the changelog and its row block) whatever
// its size, and appending a delta into a warmed buffer allocates nothing.
func TestWireAllocs(t *testing.T) {
	bid := nexmark.BidFullSchema()
	for _, n := range []int{50, 500} {
		body := bidBody(n)
		d := new(ingestDecoder)
		if _, err := d.decode(body, bid); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _ = d.decode(body, bid) }); allocs > 4 {
			t.Errorf("decoding a %d-event Bid batch: %v allocations, want <= 4", n, allocs)
		}
	}
	delta := streamDelta()
	buf, err := appendDelta(nil, delta)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { buf, _ = appendDelta(buf[:0], delta) }); allocs != 0 {
		t.Errorf("appending a delta into a warmed buffer: %v allocations, want 0", allocs)
	}
}

func BenchmarkIngestDecode(b *testing.B) {
	body, bid := bidBody(500), nexmark.BidFullSchema()
	d := new(ingestDecoder)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.decode(body, bid); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/500/1e3, "us/event")
}

func BenchmarkDeltaEncode(b *testing.B) {
	delta := streamDelta()
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendDelta(buf[:0], delta); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/500/1e3, "us/row")
}
