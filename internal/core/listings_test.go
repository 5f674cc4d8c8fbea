// Package core_test (rather than core) because the listings are driven
// through the nexmark paper dataset, and nexmark itself imports core: an
// in-package test would create an import cycle.
package core_test

// This file regenerates every listing in the paper (Listings 3-14) on the
// exact Section 4 example dataset and asserts the outputs match the paper
// row for row. These are the paper's "tables and figures".

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nexmark"
	"repro/internal/tvr"
	"repro/internal/types"
)

// paperEngine builds an engine holding the paper's example Bid stream.
func paperEngine(t testing.TB) *core.Engine {
	t.Helper()
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", nexmark.BidSchema()); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("Bid", nexmark.PaperBidLog()); err != nil {
		t.Fatal(err)
	}
	return e
}

// fmtRow renders a row as the compact "8:00|8:10|8:09|5|D" form used by the
// expected-output tables below.
func fmtRow(r types.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

func fmtStreamRow(s tvr.StreamRow) string {
	undo := ""
	if s.Undo {
		undo = "undo"
	}
	return fmt.Sprintf("%s|%s|%s|%d", fmtRow(s.Row), undo, s.Ptime, s.Ver)
}

func assertRows(t *testing.T, got []types.Row, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d:\ngot:  %v\nwant: %v", len(got), len(want), renderAll(got), want)
	}
	for i := range want {
		if fmtRow(got[i]) != want[i] {
			t.Errorf("row %d:\ngot:  %s\nwant: %s", i, fmtRow(got[i]), want[i])
		}
	}
}

// sortedBy returns a copy of rows sorted by the given columns, NULLs left in
// place; the paper presents windows in order.
func sortedBy(rows []types.Row, cols ...int) []types.Row {
	rows = append([]types.Row(nil), rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		for _, c := range cols {
			a, b := rows[i][c], rows[j][c]
			if a.IsNull() || b.IsNull() {
				continue
			}
			if cmp, err := a.Compare(b); err == nil && cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	return rows
}

func renderAll(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmtRow(r)
	}
	return out
}

func assertStreamRows(t *testing.T, got []tvr.StreamRow, want []string) {
	t.Helper()
	if len(got) != len(want) {
		all := make([]string, len(got))
		for i, s := range got {
			all[i] = fmtStreamRow(s)
		}
		t.Fatalf("got %d stream rows, want %d:\ngot:  %v\nwant: %v", len(got), len(want), all, want)
	}
	for i := range want {
		if fmtStreamRow(got[i]) != want[i] {
			t.Errorf("stream row %d:\ngot:  %s\nwant: %s", i, fmtStreamRow(got[i]), want[i])
		}
	}
}

// TestListing3 reproduces Listing 3: Query 7 evaluated as a table at 8:21.
func TestListing3(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryTable(nexmark.Query7SQL, types.ClockTime(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	// The paper presents windows in wstart order.
	assertRows(t, sortedBy(res.Rows, 0), []string{
		"8:00|8:10|8:09|5|D",
		"8:10|8:20|8:17|6|F",
	})
}

// TestListing4 reproduces Listing 4: the same query at 8:13, when only half
// the input has arrived.
func TestListing4(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryTable(nexmark.Query7SQL, types.ClockTime(8, 13))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, sortedBy(res.Rows, 0), []string{
		"8:00|8:10|8:05|4|C",
		"8:10|8:20|8:11|3|B",
	})
}

const tumbleSQL = `
SELECT wstart, wend, bidtime, price, item
FROM Tumble(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(bidtime),
  dur => INTERVAL '10' MINUTES,
  offset => INTERVAL '0' MINUTES)`

// TestListing5 reproduces Listing 5: the raw Tumble TVF output at 8:21,
// in arrival order.
func TestListing5(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryTable(tumbleSQL, types.ClockTime(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, res.Rows, []string{
		"8:00|8:10|8:07|2|A",
		"8:10|8:20|8:11|3|B",
		"8:00|8:10|8:05|4|C",
		"8:00|8:10|8:09|5|D",
		"8:10|8:20|8:13|1|E",
		"8:10|8:20|8:17|6|F",
	})
}

// TestListing6 reproduces Listing 6: Tumble combined with GROUP BY wend.
func TestListing6(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryTable(`
		SELECT MAX(wstart) wstart, wend, SUM(price) price
		FROM Tumble(
		  data => TABLE(Bid),
		  timecol => DESCRIPTOR(bidtime),
		  dur => INTERVAL '10' MINUTES)
		GROUP BY wend`, types.ClockTime(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, sortedBy(res.Rows, 1), []string{
		"8:00|8:10|11",
		"8:10|8:20|10",
	})
}

const hopSQL = `
SELECT wstart, wend, bidtime, price, item
FROM Hop(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(bidtime),
  dur => INTERVAL '10' MINUTES,
  hopsize => INTERVAL '5' MINUTES)`

// TestListing7 reproduces Listing 7: the raw Hop TVF output (12 rows, each
// bid in two overlapping windows), in arrival order.
func TestListing7(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryTable(hopSQL, types.ClockTime(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, res.Rows, []string{
		"8:00|8:10|8:07|2|A",
		"8:05|8:15|8:07|2|A",
		"8:05|8:15|8:11|3|B",
		"8:10|8:20|8:11|3|B",
		"8:00|8:10|8:05|4|C",
		"8:05|8:15|8:05|4|C",
		"8:00|8:10|8:09|5|D",
		"8:05|8:15|8:09|5|D",
		"8:05|8:15|8:13|1|E",
		"8:10|8:20|8:13|1|E",
		"8:10|8:20|8:17|6|F",
		"8:15|8:25|8:17|6|F",
	})
}

// TestListing8 reproduces Listing 8: Hop combined with GROUP BY wend.
func TestListing8(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryTable(`
		SELECT MAX(wstart) wstart, wend, SUM(price) price
		FROM Hop(
		  data => TABLE(Bid),
		  timecol => DESCRIPTOR(bidtime),
		  dur => INTERVAL '10' MINUTES,
		  hopsize => INTERVAL '5' MINUTES)
		GROUP BY wend`, types.ClockTime(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, sortedBy(res.Rows, 1), []string{
		"8:00|8:10|11",
		"8:05|8:15|15",
		"8:10|8:20|10",
		"8:15|8:25|6",
	})
}

// TestListing9 reproduces Listing 9: Query 7 with EMIT STREAM — the full
// changelog with undo/ptime/ver metadata.
func TestListing9(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryStream(nexmark.Query7SQL + " EMIT STREAM")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamRows(t, res.Rows, []string{
		"8:00|8:10|8:07|2|A||8:08|0",
		"8:10|8:20|8:11|3|B||8:12|0",
		"8:00|8:10|8:07|2|A|undo|8:13|1",
		"8:00|8:10|8:05|4|C||8:13|2",
		"8:00|8:10|8:05|4|C|undo|8:15|3",
		"8:00|8:10|8:09|5|D||8:15|4",
		"8:10|8:20|8:11|3|B|undo|8:18|1",
		"8:10|8:20|8:17|6|F||8:18|2",
	})
}

// TestListing10to12 reproduces Listings 10-12: EMIT AFTER WATERMARK table
// views at 8:13 (empty), 8:16 (first window final), and 8:21 (both final).
func TestListing10to12(t *testing.T) {
	e := paperEngine(t)
	sql := nexmark.Query7SQL + " EMIT AFTER WATERMARK"

	res, err := e.QueryTable(sql, types.ClockTime(8, 13))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, res.Rows, nil) // Listing 10: empty

	res, err = e.QueryTable(sql, types.ClockTime(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, res.Rows, []string{ // Listing 11
		"8:00|8:10|8:09|5|D",
	})

	res, err = e.QueryTable(sql, types.ClockTime(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, sortedBy(res.Rows, 0), []string{ // Listing 12
		"8:00|8:10|8:09|5|D",
		"8:10|8:20|8:17|6|F",
	})
}

// TestListing13 reproduces Listing 13: EMIT STREAM AFTER WATERMARK — exactly
// one final row per window, at the processing time the watermark passed the
// window end.
func TestListing13(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryStream(nexmark.Query7SQL + " EMIT STREAM AFTER WATERMARK")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamRows(t, res.Rows, []string{
		"8:00|8:10|8:09|5|D||8:16|0",
		"8:10|8:20|8:17|6|F||8:21|0",
	})
}

// TestListing14 reproduces Listing 14: EMIT STREAM AFTER DELAY '6' MINUTES —
// updates coalesced into periodic materializations, each within six minutes
// of the first change to the row.
func TestListing14(t *testing.T) {
	e := paperEngine(t)
	res, err := e.QueryStream(nexmark.Query7SQL + " EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES")
	if err != nil {
		t.Fatal(err)
	}
	assertStreamRows(t, res.Rows, []string{
		"8:00|8:10|8:05|4|C||8:14|0",
		"8:10|8:20|8:17|6|F||8:18|0",
		"8:00|8:10|8:05|4|C|undo|8:21|1",
		"8:00|8:10|8:09|5|D||8:21|2",
	})
}

// TestListing2OverRecordedTable verifies the paper's claim in Section 4 that
// the same query evaluated without watermarks over a table recorded from the
// bid stream yields the same result.
func TestListing2OverRecordedTable(t *testing.T) {
	e := core.NewEngine()
	if err := e.RegisterTable("Bid", nexmark.BidSchema()); err != nil {
		t.Fatal(err)
	}
	// Record only the data (a table has no watermarks).
	for _, ev := range nexmark.PaperBidLog() {
		if ev.IsData() {
			if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(ev.Ptime, ev.Row)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := e.QueryTable(nexmark.Query7SQL, types.ClockTime(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, sortedBy(res.Rows, 0), []string{
		"8:00|8:10|8:09|5|D",
		"8:10|8:20|8:17|6|F",
	})
	// And EMIT AFTER WATERMARK over the complete table also yields the
	// final answer (the bounded input completes at end-of-log).
	res, err = e.QueryTable(nexmark.Query7SQL+" EMIT AFTER WATERMARK", types.ClockTime(8, 21))
	if err != nil {
		t.Fatal(err)
	}
	assertRows(t, sortedBy(res.Rows, 0), []string{
		"8:00|8:10|8:09|5|D",
		"8:10|8:20|8:17|6|F",
	})
}
