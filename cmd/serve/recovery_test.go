package main

// Kill-and-restart integration test: a serving process with -data-dir takes
// a checkpoint while a standing query is live, "dies" (the httptest server
// closes, dropping every connection), and a new process restores from the
// data dir. The restored process must serve the standing query's resident
// pipeline to a reconnecting subscriber — snapshot hand-off first, identical
// bytes to a fresh subscription on a second server fed the same events —
// without rescanning history, and continue delivering live deltas for newly
// ingested events.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"
)

// subscribeLines opens a standing query and returns a line reader.
func subscribeLines(t *testing.T, c *http.Client, base, params string) (*http.Response, func() map[string]any) {
	t.Helper()
	resp, err := c.Get(base + "/v1/subscribe?" + params)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	lines := make(chan map[string]any, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var m map[string]any
			if json.Unmarshal(sc.Bytes(), &m) == nil {
				lines <- m
			}
		}
	}()
	read := func() map[string]any {
		select {
		case m, ok := <-lines:
			if !ok {
				t.Fatal("subscription stream ended early")
				return nil
			}
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a subscription line")
			return nil
		}
	}
	return resp, read
}

// twinServer is a second, fresh server fed events: a subscription on it
// compiles its own pipeline and replays them, as one that shares nothing
// with a restored pipeline does.
func twinServer(t *testing.T, events []eventJSON) (*httptest.Server, *http.Client) {
	t.Helper()
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	ingestBids(t, c, ts.URL, events)
	return ts, c
}

// TestServeKillAndRestart: checkpoint under live traffic, crash, restore,
// reconnect.
func TestServeKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	sql := queryEscape(`SELECT auction, price FROM Bid WHERE price > 900`)

	// --- process one: serve, subscribe, ingest, checkpoint, die ---
	ts1, _ := openServer(t, dir)
	c1 := ts1.Client()
	registerBid(t, c1, ts1.URL)
	mkEvent := func(ptime, auction, price, et int64) eventJSON {
		return eventJSON{Kind: "insert", Ptime: timeMS(ptime), Row: []any{auction, price, et}}
	}
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
	ingestBids(t, c1, ts1.URL, history[2:])
	if got := deltaPrices(t, read1()); len(got) != 1 || got[0] != 1200 {
		t.Fatalf("live delta prices = %v, want [1200]", got)
	}
	// Checkpoint while the subscription is live and mid-stream.
	code, body := postJSON(t, c1, ts1.URL+"/v1/checkpoint", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("checkpoint: status %d body %v", code, body)
	}
	if body["bytes"].(float64) <= 0 {
		t.Fatalf("checkpoint reported %v bytes", body["bytes"])
	}
	if _, err := os.Stat(body["path"].(string)); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}
	// The process dies: every connection (including the subscription) drops.
	// Close the subscriber's side first so the chunked handler can exit
	// (httptest's Close waits for active handlers; a real crash would not).
	resp1.Body.Close()
	ts1.CloseClientConnections()
	ts1.Close()

	// --- process two: restore from the data dir ---
	ts2, restored := openServer(t, dir)
	defer ts2.Close()
	if !restored {
		t.Fatal("second boot found no snapshot")
	}
	c2 := ts2.Client()

	// The standing query's resident pipeline survived the restart.
	hcode, hz := getJSON(t, c2, ts2.URL+"/v1/healthz")
	if hcode != http.StatusOK || hz["liveSessions"].(float64) != 1 {
		t.Fatalf("healthz after restore = %v, want 1 restored session", hz)
	}

	// A reconnecting subscriber attaches to the restored pipeline and gets
	// the snapshot hand-off: both matching rows, version numbers intact.
	resp2, read2 := subscribeLines(t, c2, ts2.URL, "sql="+sql)
	defer resp2.Body.Close()
	if hdr := read2(); hdr["type"] != "schema" {
		t.Fatalf("first line = %v, want schema", hdr)
	}
	snap := read2()
	if got := deltaPrices(t, snap); !reflect.DeepEqual(got, []int64{950, 1200}) {
		t.Fatalf("restored snapshot prices = %v, want [950 1200]", got)
	}
	// Still one resident session: the reconnect attached, it did not
	// recompile or replay history.
	if _, hz := getJSON(t, c2, ts2.URL+"/v1/healthz"); hz["liveSessions"].(float64) != 1 {
		t.Fatalf("reconnect built a new pipeline: healthz = %v", hz)
	}

	// The snapshot equals what a fresh subscription on a second server fed
	// the same events sees (the twin replays that history instead).
	tsTwin, cTwin := twinServer(t, history)
	respTwin, readTwin := subscribeLines(t, cTwin, tsTwin.URL, "sql="+sql)
	defer respTwin.Body.Close()
	if hdr := readTwin(); hdr["type"] != "schema" {
		t.Fatalf("twin first line = %v, want schema", hdr)
	}
	twinSnap := readTwin()
	if got, want := deltaPrices(t, twinSnap), deltaPrices(t, snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored session snapshot %v differs from dedicated twin %v", want, got)
	}
	if !reflect.DeepEqual(snap["rows"], twinSnap["rows"]) {
		t.Fatalf("restored snapshot rows differ from twin:\n%v\n%v", snap["rows"], twinSnap["rows"])
	}

	// Live continuation on the restored pipeline.
	more := []eventJSON{mkEvent(4000, 4, 1500, 4000)}
	ingestBids(t, c2, ts2.URL, more)
	ingestBids(t, cTwin, tsTwin.URL, more)
	if got := deltaPrices(t, read2()); len(got) != 1 || got[0] != 1500 {
		t.Fatalf("post-restore live delta = %v, want [1500]", got)
	}
	if got := deltaPrices(t, readTwin()); len(got) != 1 || got[0] != 1500 {
		t.Fatalf("twin post-restore delta = %v, want [1500]", got)
	}
}

// TestServeCheckpointDisabled: without -data-dir the endpoint refuses.
func TestServeCheckpointDisabled(t *testing.T) {
	ts, c := newTestServer(t)
	code, body := postJSON(t, c, ts.URL+"/v1/checkpoint", struct{}{})
	if code != http.StatusConflict {
		t.Fatalf("checkpoint without data-dir: status %d body %v", code, body)
	}
}
