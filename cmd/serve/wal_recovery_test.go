package main

// WAL kill-and-restart integration tests, driven through core.Open — the
// production recovery path. The difference from TestServeKillAndRestart:
// events ingested AFTER the last snapshot must survive the crash (they live
// only in the WAL tail), where the snapshot-only engine rewound them. Plus
// the crash-litter sweep and the /healthz checkpoint-failure surfacing.

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// openDataDir opens dir as run does with -data-dir (-wal-sync=always) plus
// opts, and closes the engine when the test ends.
func openDataDir(t *testing.T, dir string, opts ...core.Option) (*core.Engine, bool) {
	t.Helper()
	engine, rec, err := core.Open(dir, wal.Options{Mode: wal.SyncAlways},
		append([]core.Option{core.WithUnboundedGroupBy()}, opts...)...)
	if err != nil {
		t.Fatalf("core.Open: %v", err)
	}
	t.Cleanup(engine.Close)
	return engine, rec.Restored
}

// openServer runs the production boot sequence and returns the HTTP server
// and whether the boot restored a snapshot.
func openServer(t *testing.T, dir string) (*httptest.Server, bool) {
	t.Helper()
	engine, restored := openDataDir(t, dir)
	return httptest.NewServer(NewServer(engine)), restored
}

// TestServeWALKillAndRestart: snapshot mid-stream, keep ingesting, crash
// WITHOUT another snapshot, recover — the post-snapshot events come back
// from the WAL tail, and a reconnecting subscriber's snapshot hand-off is
// byte-identical to a fresh subscription on a second server fed the same
// events.
func TestServeWALKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	sql := queryEscape(`SELECT auction, price FROM Bid WHERE price > 900`)
	mkEvent := func(ptime, auction, price, et int64) eventJSON {
		return eventJSON{Kind: "insert", Ptime: timeMS(ptime), Row: []any{auction, price, et}}
	}

	// --- process one ---
	ts1, restored := openServer(t, dir)
	if restored {
		t.Fatal("first boot claims to have restored a snapshot")
	}
	c1 := ts1.Client()
	registerBid(t, c1, ts1.URL)
	history := []eventJSON{
		mkEvent(1000, 1, 950, 1000),
		mkEvent(2000, 2, 800, 2000),
		mkEvent(3000, 3, 1200, 3000),
	}
	ingestBids(t, c1, ts1.URL, history[:2])
	resp1, read1 := subscribeLines(t, c1, ts1.URL, "sql="+sql)
	defer resp1.Body.Close()
	if hdr := read1(); hdr["type"] != "schema" {
		t.Fatalf("first line = %v, want schema", hdr)
	}
	if got := deltaPrices(t, read1()); len(got) != 1 || got[0] != 950 {
		t.Fatalf("history delta prices = %v, want [950]", got)
	}
	// Snapshot NOW — everything after this exists only in the WAL.
	if code, body := postJSON(t, c1, ts1.URL+"/v1/checkpoint", struct{}{}); code != 200 {
		t.Fatalf("checkpoint: status %d body %v", code, body)
	}
	ingestBids(t, c1, ts1.URL, history[2:])
	if got := deltaPrices(t, read1()); len(got) != 1 || got[0] != 1200 {
		t.Fatalf("live delta prices = %v, want [1200]", got)
	}
	if code, body := postJSON(t, c1, ts1.URL+"/v1/heartbeat", map[string]any{"ptime": 3500}); code != 200 {
		t.Fatalf("heartbeat: status %d body %v", code, body)
	}
	// Crash: connections drop, no final snapshot, no WAL close.
	resp1.Body.Close()
	ts1.CloseClientConnections()
	ts1.Close()

	// --- process two: snapshot + WAL tail ---
	ts2, restored2 := openServer(t, dir)
	defer ts2.Close()
	if !restored2 {
		t.Fatal("second boot found no snapshot")
	}
	c2 := ts2.Client()
	hcode, hz := getJSON(t, c2, ts2.URL+"/v1/healthz")
	if hcode != 200 || hz["liveSessions"].(float64) != 1 {
		t.Fatalf("healthz after recovery = %v, want 1 restored session", hz)
	}
	if hz["walEnabled"] != true || hz["walSeq"].(float64) <= 0 {
		t.Fatalf("healthz reports no WAL: %v", hz)
	}

	// The reconnecting subscriber must see BOTH matching rows: the
	// post-snapshot 1200 was replayed from the WAL tail, not rewound.
	resp2, read2 := subscribeLines(t, c2, ts2.URL, "sql="+sql)
	defer resp2.Body.Close()
	if hdr := read2(); hdr["type"] != "schema" {
		t.Fatalf("first line = %v, want schema", hdr)
	}
	snap := read2()
	if got := deltaPrices(t, snap); !reflect.DeepEqual(got, []int64{950, 1200}) {
		t.Fatalf("recovered snapshot prices = %v, want [950 1200] (post-snapshot ingest must survive)", got)
	}
	if _, hz := getJSON(t, c2, ts2.URL+"/v1/healthz"); hz["liveSessions"].(float64) != 1 {
		t.Fatalf("reconnect built a new pipeline: healthz = %v", hz)
	}

	// Byte-identical to a twin compiled fresh on a second server fed the
	// same events.
	tsTwin, cTwin := twinServer(t, history)
	respTwin, readTwin := subscribeLines(t, cTwin, tsTwin.URL, "sql="+sql)
	defer respTwin.Body.Close()
	if hdr := readTwin(); hdr["type"] != "schema" {
		t.Fatalf("twin first line = %v, want schema", hdr)
	}
	twinSnap := readTwin()
	if !reflect.DeepEqual(snap["rows"], twinSnap["rows"]) {
		t.Fatalf("recovered snapshot rows differ from twin:\n%v\n%v", snap["rows"], twinSnap["rows"])
	}

	// Live continuation, logged to the recovered WAL.
	more := []eventJSON{mkEvent(4000, 4, 1500, 4000)}
	ingestBids(t, c2, ts2.URL, more)
	ingestBids(t, cTwin, tsTwin.URL, more)
	if got := deltaPrices(t, read2()); len(got) != 1 || got[0] != 1500 {
		t.Fatalf("post-recovery live delta = %v, want [1500]", got)
	}
	if got := deltaPrices(t, readTwin()); len(got) != 1 || got[0] != 1500 {
		t.Fatalf("twin post-recovery delta = %v, want [1500]", got)
	}
}

// TestServeWALDoubleCrash: crash, recover, crash again immediately (no new
// snapshot in between), recover again — sequence numbers stay contiguous
// across the generations and nothing is lost or doubled.
func TestServeWALDoubleCrash(t *testing.T) {
	dir := t.TempDir()
	mkEvent := func(ptime, auction, price, et int64) eventJSON {
		return eventJSON{Kind: "insert", Ptime: timeMS(ptime), Row: []any{auction, price, et}}
	}
	ts1, _ := openServer(t, dir)
	c1 := ts1.Client()
	registerBid(t, c1, ts1.URL)
	ingestBids(t, c1, ts1.URL, []eventJSON{mkEvent(1000, 1, 100, 1000)})
	ts1.CloseClientConnections()
	ts1.Close()

	ts2, _ := openServer(t, dir)
	c2 := ts2.Client()
	ingestBids(t, c2, ts2.URL, []eventJSON{mkEvent(2000, 2, 200, 2000)})
	ts2.CloseClientConnections()
	ts2.Close()

	ts3, _ := openServer(t, dir)
	defer ts3.Close()
	c3 := ts3.Client()
	code, body := getJSON(t, c3, ts3.URL+"/v1/query?sql="+queryEscape(`SELECT COUNT(*) c FROM Bid`))
	if code != 200 {
		t.Fatalf("query: status %d body %v", code, body)
	}
	rows := body["rows"].([]any)
	if len(rows) != 1 || rows[0].([]any)[0].(float64) != 2 {
		t.Fatalf("after two crash/recover cycles COUNT(*) = %v, want 2", rows)
	}
}

// TestStaleCheckpointTempSweep: temp files abandoned by a crash inside
// WriteFileAtomicFS are removed at startup; unrelated files survive.
func TestStaleCheckpointTempSweep(t *testing.T) {
	dir := t.TempDir()
	engine, _ := openDataDir(t, dir)
	snapshot := engine.CheckpointStatus().Path
	engine.Close()
	stale1 := snapshot + ".tmp123456"
	stale2 := snapshot + ".tmp999"
	keep := filepath.Join(dir, "unrelated.txt")
	for _, p := range []string{stale1, stale2, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	openDataDir(t, dir)
	for _, p := range []string{stale1, stale2} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("stale temp %s survived the sweep (err=%v)", p, err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("sweep removed an unrelated file: %v", err)
	}
}

// TestHealthzCheckpointFailures: repeated periodic-checkpoint failures are
// visible in /healthz (consecutive count + last error) and reset on the
// next success.
func TestHealthzCheckpointFailures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing-subdir")
	engine, _ := openDataDir(t, dir)
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	c := ts.Client()

	// The data directory goes missing: every attempt fails before writing
	// anything.
	if err := os.Rename(dir, dir+".away"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := engine.Checkpoint(); err == nil {
			t.Fatal("checkpoint into a missing directory succeeded")
		}
	}
	_, hz := getJSON(t, c, ts.URL+"/v1/healthz")
	if hz["checkpointFailures"].(float64) != 3 {
		t.Fatalf("healthz checkpointFailures = %v, want 3", hz["checkpointFailures"])
	}
	msg, _ := hz["lastCheckpointError"].(string)
	if !strings.Contains(msg, "missing-subdir") {
		t.Fatalf("healthz lastCheckpointError = %q, want the failing path", msg)
	}

	// Recovery: the next success resets both.
	if err := os.Rename(dir+".away", dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.Checkpoint(); err != nil {
		t.Fatalf("checkpoint into a valid dir: %v", err)
	}
	_, hz = getJSON(t, c, ts.URL+"/v1/healthz")
	if hz["checkpointFailures"].(float64) != 0 {
		t.Fatalf("healthz checkpointFailures after success = %v, want 0", hz["checkpointFailures"])
	}
	if _, bad := hz["lastCheckpointError"]; bad {
		t.Fatalf("healthz still reports lastCheckpointError after success: %v", hz)
	}
}
