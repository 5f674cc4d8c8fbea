package exec_test

// Golden-file tests pinning the checkpoint byte format. Each case drives a
// fixed query over a fixed tiny input, checkpoints the pipeline, and
// compares the encoded bytes against a committed golden file: an accidental
// change to the wire format (or to the deterministic serialization order)
// fails loudly here instead of silently orphaning production checkpoints.
//
// Deliberate format changes must bump checkpoint.FormatVersion and
// regenerate the files with UPDATE_GOLDEN=1:
//
//	UPDATE_GOLDEN=1 go test ./internal/exec -run TestCheckpointGolden

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/tvr"
	"repro/internal/types"
)

// goldenEngine registers a tiny two-stream catalog with a fixed changelog —
// no generators, so the bytes cannot drift with unrelated code.
func goldenEngine(t *testing.T) *fixture {
	t.Helper()
	e := newFixture(core.WithUnboundedGroupBy())
	sch := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64},
		types.Column{Name: "v", Kind: types.KindInt64},
		types.Column{Name: "t", Kind: types.KindTimestamp, EventTime: true},
	)
	if err := e.RegisterStream("S", sch); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream("R", sch.Clone()); err != nil {
		t.Fatal(err)
	}
	row := goldenRow
	if err := e.AppendLog("S", tvr.Changelog{
		tvr.InsertEvent(1000, row(1, 10, 1000)),
		tvr.InsertEvent(2000, row(2, 25, 2000)),
		tvr.InsertEvent(3000, row(1, 40, 11000)),
		tvr.DeleteEvent(4000, row(1, 10, 1000)),
		tvr.InsertEvent(5000, row(3, 7, 26000)),
		tvr.WatermarkEvent(6000, 9000),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("R", tvr.Changelog{
		tvr.InsertEvent(1500, row(1, 100, 1500)),
		tvr.InsertEvent(2500, row(2, 200, 2500)),
		tvr.WatermarkEvent(6500, 8000),
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// goldenCases is one query per stateful operator family.
func goldenCases() []struct{ name, sql string } {
	return []struct{ name, sql string }{
		{"scan_filter", `SELECT k, v FROM S WHERE v > 8`},
		{"distinct", `SELECT DISTINCT k FROM S`},
		{"agg_accumulators", `SELECT k, COUNT(*) c, SUM(v) s, AVG(v) a, MIN(v) mn, MAX(v) mx, COUNT(DISTINCT v) dc FROM S GROUP BY k`},
		{"join", `SELECT a.k, a.v, b.v FROM S a JOIN R b ON a.k = b.k`},
		{"union_all", `SELECT k FROM S UNION ALL SELECT k FROM R`},
		{"intersect", `SELECT k FROM S INTERSECT SELECT k FROM R`},
		{"tumble_emit_wm", `
SELECT TB.wstart wstart, TB.wend wend, MAX(TB.v) mx
FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(t), dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend
EMIT STREAM AFTER WATERMARK`},
		{"tumble_emit_delay", `
SELECT TB.wstart wstart, TB.wend wend, COUNT(*) c
FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(t), dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend
EMIT AFTER DELAY INTERVAL '7' SECONDS`},
		{"session_window", `
SELECT TB.wstart wstart, TB.wend wend, COUNT(*) c
FROM Session(data => TABLE(S), timecol => DESCRIPTOR(t), gap => INTERVAL '8' SECONDS) TB
GROUP BY TB.wstart, TB.wend`},
	}
}

// goldenBytes produces the canonical checkpoint for one case.
func goldenBytes(t *testing.T, e *fixture, sql string) []byte {
	t.Helper()
	pq := planSQL(t, e, sql)
	d := compileDriver(t, pq)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(execSourcesFor(t, e, pq.Root)); err != nil {
		t.Fatal(err)
	}
	d.Drain()
	var buf bytes.Buffer
	if err := saveCheckpoint(&buf, d); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// hexDump renders bytes as fixed-width hex lines (stable, diffable).
func hexDump(data []byte) string {
	var sb bytes.Buffer
	for i := 0; i < len(data); i += 32 {
		end := i + 32
		if end > len(data) {
			end = len(data)
		}
		fmt.Fprintf(&sb, "%s\n", hex.EncodeToString(data[i:end]))
	}
	return sb.String()
}

func checkGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	got := hexDump(data)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with UPDATE_GOLDEN=1): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("checkpoint bytes for %s changed.\nIf the format change is intentional, bump checkpoint.FormatVersion and regenerate with UPDATE_GOLDEN=1.\ngot %d bytes, want %d bytes", name, len(data), len(want))
	}
}

// readFixture decodes a committed golden file back into checkpoint bytes.
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	dump, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(string(bytes.ReplaceAll(dump, []byte("\n"), nil)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointGolden pins the checkpoint encoding per operator family. The
// partitioned_two_stage fixture was written by the key-partitioned executor;
// restoring it must fail with an error naming the removal, never panic or
// hand back a half-restored pipeline.
func TestCheckpointGolden(t *testing.T) {
	e := goldenEngine(t)
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c.name, goldenBytes(t, e, c.sql))
		})
	}
	t.Run("partitioned_two_stage", func(t *testing.T) {
		pq := planSQL(t, e, `
SELECT TB.wstart wstart, TB.wend wend, COUNT(*) c, SUM(TB.v) s
FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(t), dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend`)
		p, err := loadCheckpoint(pq, bytes.NewReader(readFixture(t, "partitioned_two_stage")))
		if err == nil || !strings.Contains(err.Error(), "partitioned execution was removed") {
			t.Fatalf("restoring a partitioned checkpoint = %v, want the removal error", err)
		}
		if p != nil {
			t.Fatal("a refused restore handed back a pipeline")
		}
	})
	// Restorability: every golden file must still load into a freshly
	// compiled pipeline (the format is not just stable but live).
	for _, c := range goldenCases() {
		pq := planSQL(t, e, c.sql)
		data := goldenBytes(t, e, c.sql)
		if _, err := loadCheckpoint(pq, bytes.NewReader(data)); err != nil {
			t.Errorf("%s: golden checkpoint no longer restores: %v", c.name, err)
		}
	}
}

// preEvictionDelayEngine and preEvictionDelaySQL are the input the
// tumble_emit_delay_wm_pre_eviction fixture was written from (by the last
// commit before eviction): the watermark closes the first window while that
// window's 7 s delay timer, armed at ptime 1000, is still pending.
func preEvictionDelayEngine(t *testing.T) *fixture {
	t.Helper()
	e := newFixture(core.WithUnboundedGroupBy())
	sch := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64},
		types.Column{Name: "v", Kind: types.KindInt64},
		types.Column{Name: "t", Kind: types.KindTimestamp, EventTime: true},
	)
	if err := e.RegisterStream("S", sch); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("S", tvr.Changelog{
		tvr.InsertEvent(1000, goldenRow(1, 10, 1000)),
		tvr.InsertEvent(2000, goldenRow(2, 25, 2000)),
		tvr.InsertEvent(3000, goldenRow(1, 40, 11000)),
		tvr.InsertEvent(5000, goldenRow(3, 7, 26000)),
		tvr.WatermarkEvent(6000, 15000),
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

const preEvictionDelaySQL = `
SELECT TB.wstart wstart, TB.wend wend, COUNT(*) c, MAX(TB.v) mx
FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(t), dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend
EMIT STREAM AFTER DELAY INTERVAL '7' SECONDS AND AFTER WATERMARK`

func goldenRow(k, v int64, at types.Time) types.Row {
	return types.Row{types.NewInt(k), types.NewInt(v), types.NewTimestamp(at)}
}

// TestCheckpointPreEvictionGolden: the *_pre_eviction goldens were written
// before watermark-closed groups were evicted, so they still serialize closed
// groups as tombstones (closed=true records with no state behind them) and,
// for EMIT AFTER DELAY, the stale timer of a closed group. They must keep
// loading: the restored pipeline discards both and, fed more input (late rows
// for the closed groups included), produces exactly what a pipeline that ran
// uninterrupted produces.
func TestCheckpointPreEvictionGolden(t *testing.T) {
	var sessionSQL string
	for _, c := range goldenCases() {
		if c.name == "session_window" {
			sessionSQL = c.sql
		}
	}
	cases := []struct {
		fixture string
		engine  *fixture
		sql     string
		more    tvr.Changelog
	}{
		// The session_window golden as committed before eviction. The session
		// operator re-cuts sessions on rows behind the watermark, so the rows
		// at 1.5 s and 11.5 s retract and re-insert members of sessions the
		// aggregate has closed: late for the tombstones then, for the absent
		// groups now.
		{"session_window_pre_eviction", goldenEngine(t), sessionSQL, tvr.Changelog{
			tvr.InsertEvent(7000, goldenRow(4, 1, 1500)),
			tvr.InsertEvent(7500, goldenRow(1, 5, 12000)),
			tvr.WatermarkEvent(8000, 21000),
			tvr.InsertEvent(8500, goldenRow(2, 9, 11500)),
			tvr.InsertEvent(9000, goldenRow(3, 3, 27000)),
			tvr.WatermarkEvent(9500, 60000), // closes everything
			tvr.InsertEvent(10000, goldenRow(5, 5, 70000)),
		}},
		{"tumble_emit_delay_wm_pre_eviction", preEvictionDelayEngine(t), preEvictionDelaySQL, tvr.Changelog{
			tvr.InsertEvent(7000, goldenRow(4, 1, 3000)),   // late for the closed first window
			tvr.InsertEvent(7500, goldenRow(5, 50, 12000)), // second window, timer pending since 3000
			tvr.HeartbeatEvent(9000),                       // pops the closed window's stale timer (8000)
			tvr.InsertEvent(11000, goldenRow(6, 60, 13000)),
			tvr.WatermarkEvent(12000, 21000),               // closes the second window
			tvr.InsertEvent(12500, goldenRow(7, 1, 14000)), // late
			tvr.InsertEvent(13000, goldenRow(8, 8, 27000)),
			tvr.HeartbeatEvent(30000),
		}},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			st, out := continueFromFixture(t, c.fixture, c.engine, c.sql, c.more)
			if st.LateDropped < 2 || len(out) == 0 {
				t.Fatalf("the continuation should drop late rows and emit output; got %d late, %d events", st.LateDropped, len(out))
			}
			t.Logf("continuation: %d late, %d freed, %d open; output %v", st.LateDropped, st.FreedGroups, st.StateGroups, out)
		})
	}
}

// TestCheckpointPreCollectorGolden: agg_accumulators_pre_collector is the
// agg_accumulators golden as written while the collector still kept the
// whole output relation and checkpointed it. It must keep loading: the
// restored pipeline discards that relation and, fed more input that retracts
// rows the relation held, produces exactly what a pipeline that ran
// uninterrupted produces.
func TestCheckpointPreCollectorGolden(t *testing.T) {
	var sql string
	for _, c := range goldenCases() {
		if c.name == "agg_accumulators" {
			sql = c.sql
		}
	}
	_, out := continueFromFixture(t, "agg_accumulators_pre_collector", goldenEngine(t), sql, tvr.Changelog{
		tvr.InsertEvent(7000, goldenRow(1, 60, 12000)), // updates (retracts) k=1's row
		tvr.DeleteEvent(7500, goldenRow(2, 25, 2000)),  // empties k=2: retraction only
		tvr.InsertEvent(8000, goldenRow(3, 7, 27000)),  // repeats a value under COUNT(DISTINCT)
		tvr.InsertEvent(8500, goldenRow(4, 1, 28000)),  // a new group
		tvr.WatermarkEvent(9000, 30000),
	})
	retractions := 0
	for _, ev := range out {
		if strings.Contains(ev, "DELETE") {
			retractions++
		}
	}
	if retractions < 3 {
		t.Fatalf("the continuation should retract rows emitted before the checkpoint; got %v", out)
	}
}

// continueFromFixture restores the committed golden fixture into a pipeline
// for sql, feeds more into it and into a pipeline that ran uninterrupted over
// the engine's logs, and fails unless both drain the same output and report
// the same state. The fixture must be larger than today's checkpoint of the
// same state: it carries state today's format no longer writes. It returns
// the uninterrupted pipeline's stats and drained output.
func continueFromFixture(t *testing.T, fixture string, e *fixture, sql string, more tvr.Changelog) (exec.Stats, []string) {
	t.Helper()
	pq := planSQL(t, e, sql)
	old := readFixture(t, fixture)
	if now := goldenBytes(t, e, sql); len(old) <= len(now) {
		t.Fatalf("fixture is %d bytes, today's checkpoint of the same state %d: the fixture should carry state today's does not", len(old), len(now))
	}
	restored, err := loadCheckpoint(pq, bytes.NewReader(old))
	if err != nil {
		t.Fatalf("%s no longer restores: %v", fixture, err)
	}

	uninterrupted := compileDriver(t, pq)
	if err := uninterrupted.Start(); err != nil {
		t.Fatal(err)
	}
	if err := uninterrupted.Feed(execSourcesFor(t, e, pq.Root)); err != nil {
		t.Fatal(err)
	}
	uninterrupted.Drain()

	var outs [2][]string
	var stats [2]exec.Stats
	for i, d := range []*exec.Pipeline{uninterrupted, restored} {
		if err := d.Feed([]exec.Source{{Name: "S", Log: more}}); err != nil {
			t.Fatal(err)
		}
		outs[i] = fmtLog(d.Drain())
		stats[i] = d.Stats()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		outs[i] = append(outs[i], fmtLog(d.Drain())...)
	}
	if fmt.Sprint(outs[1]) != fmt.Sprint(outs[0]) {
		t.Fatalf("restored from %s:\n got %v\nwant %v", fixture, outs[1], outs[0])
	}
	want, got := stats[0], stats[1]
	if got.StateGroups != want.StateGroups || got.StateRows != want.StateRows ||
		got.FreedGroups != want.FreedGroups || got.LateDropped != want.LateDropped {
		t.Fatalf("restored stats %+v, uninterrupted %+v", got, want)
	}
	return want, outs[0]
}
