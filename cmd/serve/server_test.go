package main

// End-to-end tests for the HTTP front-end: register -> ingest -> subscribe
// -> receive deltas over the chunked ndjson stream, without recompiling the
// query per event, plus the one-shot query and stats endpoints.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

func newTestServer(t *testing.T) (*httptest.Server, *http.Client) {
	t.Helper()
	ts := httptest.NewServer(NewServer(core.NewEngine()))
	t.Cleanup(ts.Close)
	return ts, ts.Client()
}

func postJSON(t *testing.T, c *http.Client, url string, body any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, c *http.Client, url string) (int, map[string]any) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// registerBid registers the Bid stream used by all tests.
func registerBid(t *testing.T, c *http.Client, base string) {
	t.Helper()
	code, body := postJSON(t, c, base+"/v1/relations", registerJSON{
		Name: "Bid",
		Kind: "stream",
		Schema: []columnJSON{
			{Name: "auction", Type: "BIGINT"},
			{Name: "price", Type: "BIGINT"},
			{Name: "dateTime", Type: "TIMESTAMP", EventTime: true},
		},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: status %d body %v", code, body)
	}
}

// ingestBids posts one changelog batch to Bid and pins the reply's bytes:
// {"appended":N}, newline-terminated, as application/json.
func ingestBids(t *testing.T, c *http.Client, base string, events []eventJSON) {
	t.Helper()
	data, err := json.Marshal(ingestJSON{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(base+"/v1/relations/Bid/events", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", resp.StatusCode, body)
	}
	if want := fmt.Sprintf("{\"appended\":%d}\n", len(events)); string(body) != want {
		t.Fatalf("ingest reply = %q, want %q", body, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("ingest reply content type = %q", ct)
	}
}

func timeMS(ms int64) types.Time { return types.Time(ms) }

// TestServeEndToEnd: the acceptance-path demo — register a relation, ingest
// history, open a standing subscription, ingest more events, and watch the
// deltas arrive on the chunked stream without per-event recompilation.
func TestServeEndToEnd(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)

	mkEvent := func(ptime, auction, price, et int64) eventJSON {
		return eventJSON{Kind: "insert", Ptime: timeMS(ptime), Row: []any{auction, price, et}}
	}
	// History before the subscription exists.
	ingestBids(t, c, ts.URL, []eventJSON{
		mkEvent(1000, 1, 500, 1000),
		mkEvent(2000, 2, 950, 2000),
	})

	// Open the standing query.
	req, err := http.NewRequest("GET",
		ts.URL+"/v1/subscribe?sql="+queryEscape(`SELECT auction, price FROM Bid WHERE price > 900`), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("subscribe content type = %q", ct)
	}
	lines := make(chan map[string]any, 16)
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
	readLine := func() map[string]any {
		select {
		case m, ok := <-lines:
			if !ok {
				t.Fatal("subscription stream ended early")
			}
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a subscription line")
			return nil
		}
	}

	// First line: the schema header.
	hdr := readLine()
	if hdr["type"] != "schema" {
		t.Fatalf("first line type = %v, want schema", hdr["type"])
	}
	// The history event with price 950 replays as the first delta.
	d := readLine()
	if d["type"] != "delta" {
		t.Fatalf("second line type = %v, want delta", d["type"])
	}
	if got := deltaPrices(t, d); len(got) != 1 || got[0] != 950 {
		t.Fatalf("history delta prices = %v, want [950]", got)
	}

	// Live events: one match, one filtered out, one match.
	ingestBids(t, c, ts.URL, []eventJSON{mkEvent(3000, 3, 1200, 3000)})
	ingestBids(t, c, ts.URL, []eventJSON{mkEvent(4000, 4, 100, 4000)})
	ingestBids(t, c, ts.URL, []eventJSON{mkEvent(5000, 5, 2000, 5000)})
	if got := deltaPrices(t, readLine()); len(got) != 1 || got[0] != 1200 {
		t.Fatalf("live delta 1 prices = %v, want [1200]", got)
	}
	if got := deltaPrices(t, readLine()); len(got) != 1 || got[0] != 2000 {
		t.Fatalf("live delta 2 prices = %v, want [2000]", got)
	}

	// Stats endpoint sees the subscription.
	code, stats := getJSON(t, c, ts.URL+"/v1/subscriptions")
	if code != http.StatusOK {
		t.Fatalf("subscriptions: status %d", code)
	}
	subs := stats["subscriptions"].([]any)
	if len(subs) != 1 {
		t.Fatalf("%d subscriptions listed, want 1", len(subs))
	}
	entry := subs[0].(map[string]any)
	if entry["deltasOut"].(float64) != 3 {
		t.Fatalf("deltasOut = %v, want 3", entry["deltasOut"])
	}
	// Batched execution: the standing pipeline reports its dispatch
	// counters, and a fed pipeline averages at least one event per dispatch.
	if entry["dispatches"].(float64) <= 0 {
		t.Fatalf("dispatches = %v, want > 0", entry["dispatches"])
	}
	if epd := entry["eventsPerDispatch"].(float64); epd < 1 {
		t.Fatalf("eventsPerDispatch = %v, want >= 1", epd)
	}
	id := int(entry["id"].(float64))

	// Cancel via the API: the stream ends.
	delReq, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, id), nil)
	delResp, err := c.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	end := readLine()
	if end["type"] != "end" {
		t.Fatalf("end line = %v", end)
	}
	for range lines { // stream closes
	}
}

// TestServeQueryAndHealth: one-shot queries and liveness.
func TestServeQueryAndHealth(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	ingestBids(t, c, ts.URL, []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{1, 500, 1000}},
		{Kind: "insert", Ptime: timeMS(2000), Row: []any{1, 700, 2000}},
		{Kind: "watermark", Ptime: timeMS(3000), Wm: timeMS(2500)},
	})
	code, res := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(
		`SELECT auction, price FROM Bid WHERE price > 600`))
	if code != http.StatusOK {
		t.Fatalf("query: status %d body %v", code, res)
	}
	rows := res["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v, want one", rows)
	}
	row := rows[0].([]any)
	if row[0].(float64) != 1 || row[1].(float64) != 700 {
		t.Fatalf("row = %v, want [1 700]", row)
	}
	// Unknown SQL errors cleanly.
	code, res = getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT nope FROM Missing`))
	if code != http.StatusBadRequest || res["error"] == "" {
		t.Fatalf("bad query: status %d body %v", code, res)
	}
	code, res = getJSON(t, c, ts.URL+"/v1/healthz")
	if code != http.StatusOK || res["ok"] != true {
		t.Fatalf("healthz: status %d body %v", code, res)
	}
}

// TestServeIngestAtomicity: a batch with a mid-log error applies nothing.
func TestServeIngestAtomicity(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	code, _ := postJSON(t, c, ts.URL+"/v1/relations/Bid/events", ingestJSON{Events: []eventJSON{
		{Kind: "insert", Ptime: timeMS(2000), Row: []any{1, 500, 2000}},
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{2, 600, 1000}}, // ptime regression
	}})
	if code != http.StatusConflict {
		t.Fatalf("status = %d, want conflict", code)
	}
	code, res := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT auction FROM Bid`))
	if code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if rows := res["rows"].([]any); len(rows) != 0 {
		t.Fatalf("rows after failed batch = %v, want none (atomicity)", rows)
	}
}

// TestServeRegisterRefusesUnservableSchema: registering a schema the engine
// cannot serve answers 400 and logs nothing.
func TestServeRegisterRefusesUnservableSchema(t *testing.T) {
	_, ts, _ := openServer(t, t.TempDir())
	defer ts.Close()
	c := ts.Client()
	registerBid(t, c, ts.URL)
	walSeq := func() float64 {
		t.Helper()
		_, hz := getJSON(t, c, ts.URL+"/v1/healthz")
		return hz["walSeq"].(float64)
	}
	seq := walSeq()
	for _, schema := range [][]columnJSON{
		{{Name: "a", Type: "BIGINT"}, {Name: "A", Type: "VARCHAR"}},
		{{Name: "", Type: "BIGINT"}},
		{{Name: "t", Type: "BIGINT", EventTime: true}, {Name: "v", Type: "BIGINT"}},
	} {
		code, body := postJSON(t, c, ts.URL+"/v1/relations", registerJSON{Name: "D", Kind: "stream", Schema: schema})
		if code != http.StatusBadRequest {
			t.Errorf("register %v: status %d body %v, want 400", schema, code, body)
		}
	}
	if got := walSeq(); got != seq {
		t.Fatalf("refused registrations moved walSeq from %v to %v", seq, got)
	}
}

// TestServeBodyLimit: a POST body over maxBodyBytes is refused with 413 and
// an error naming the limit, and commits nothing — the WAL sequence and the
// relation's row count are unchanged — on ingest, register and heartbeat.
func TestServeBodyLimit(t *testing.T) {
	_, ts, _ := openServer(t, t.TempDir())
	defer ts.Close()
	c := ts.Client()
	registerBid(t, c, ts.URL)
	ingestBids(t, c, ts.URL, []eventJSON{{Kind: "insert", Ptime: timeMS(1000), Row: []any{1, 500, 1000}}})
	state := func() (walSeq, count float64) {
		t.Helper()
		_, hz := getJSON(t, c, ts.URL+"/v1/healthz")
		code, res := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT COUNT(*) c FROM Bid`))
		if code != http.StatusOK {
			t.Fatalf("count query: status %d body %v", code, res)
		}
		return hz["walSeq"].(float64), res["rows"].([]any)[0].([]any)[0].(float64)
	}
	seq, count := state()

	// One well-formed batch just over the limit: every event in it is valid.
	var body bytes.Buffer
	body.WriteString(`{"events":[`)
	for i := 0; body.Len() <= maxBodyBytes; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"kind":"insert","ptime":%d,"row":[%d,700,%d]}`, 2000+i, i, 2000+i)
	}
	body.WriteString(`]}`)
	for _, path := range []string{"/v1/relations/Bid/events", "/v1/relations", "/v1/heartbeat"} {
		resp, err := c.Post(ts.URL+path, "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode response: %v", path, err)
		}
		msg, _ := out["error"].(string)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(msg, fmt.Sprint(maxBodyBytes)) {
			t.Fatalf("%s: status %d body %v, want 413 naming the %d-byte limit", path, resp.StatusCode, out, maxBodyBytes)
		}
	}
	if gotSeq, gotCount := state(); gotSeq != seq || gotCount != count {
		t.Fatalf("after the refused bodies: walSeq %v count %v, want %v and %v", gotSeq, gotCount, seq, count)
	}
}

// TestServeSharedSubscriptions: two standing queries with the same SQL are
// served from one resident pipeline (same pipeline id, subscribers=2 in the
// listing), while exclusive=1 opts out; healthz distinguishes pipelines from
// subscribers.
func TestServeSharedSubscriptions(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	sql := queryEscape(`SELECT auction, price FROM Bid WHERE price > 900`)

	open := func(extra string) *http.Response {
		t.Helper()
		resp, err := c.Get(ts.URL + "/v1/subscribe?sql=" + sql + extra)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subscribe: status %d", resp.StatusCode)
		}
		// Read the schema line so the subscription is fully established
		// before we inspect the listing.
		if sc := bufio.NewScanner(resp.Body); !sc.Scan() {
			t.Fatal("no schema line")
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	open("")
	open("")
	open("&exclusive=1")

	code, stats := getJSON(t, c, ts.URL+"/v1/subscriptions")
	if code != http.StatusOK {
		t.Fatalf("subscriptions: status %d", code)
	}
	entries := stats["subscriptions"].([]any)
	if len(entries) != 3 {
		t.Fatalf("%d subscriptions listed, want 3", len(entries))
	}
	byPipeline := map[int][]float64{}
	for _, e := range entries {
		m := e.(map[string]any)
		byPipeline[int(m["pipeline"].(float64))] = append(
			byPipeline[int(m["pipeline"].(float64))], m["subscribers"].(float64))
	}
	if len(byPipeline) != 2 {
		t.Fatalf("subscriptions span %d pipelines, want 2 (shared pair + exclusive): %v", len(byPipeline), byPipeline)
	}
	for id, subs := range byPipeline {
		want := float64(len(subs))
		for _, s := range subs {
			if s != want {
				t.Fatalf("pipeline %d reports %v subscribers, want %v", id, s, want)
			}
		}
	}
	code, hz := getJSON(t, c, ts.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if hz["liveSessions"].(float64) != 2 || hz["liveSubscribers"].(float64) != 3 {
		t.Fatalf("healthz = %v, want 2 pipelines / 3 subscribers", hz)
	}
}

// TestServeSubscribeLimits: a buffer above maxSubscribeBuffer and a negative
// retain are refused with 400 and an error naming the limit, before any
// session opens — liveSessions in /v1/healthz does not move — while a buffer
// at the limit is accepted.
func TestServeSubscribeLimits(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	sql := "sql=" + queryEscape(`SELECT auction, price FROM Bid`)
	sessions := func() float64 {
		t.Helper()
		_, hz := getJSON(t, c, ts.URL+"/v1/healthz")
		return hz["liveSessions"].(float64)
	}
	for _, tc := range []struct{ params, want string }{
		{fmt.Sprintf("&buffer=%d", maxSubscribeBuffer+1), fmt.Sprint(maxSubscribeBuffer)},
		{"&buffer=100000000", fmt.Sprint(maxSubscribeBuffer)},
		{"&retain=-1", "negative"},
	} {
		code, body := getJSON(t, c, ts.URL+"/v1/subscribe?"+sql+tc.params)
		msg, _ := body["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: status %d body %v, want 400 naming %q", tc.params, code, body, tc.want)
		}
		if n := sessions(); n != 0 {
			t.Fatalf("%s: a refused subscribe left %v live sessions", tc.params, n)
		}
	}
	resp, read := subscribeLines(t, c, ts.URL, sql+fmt.Sprintf("&buffer=%d&retain=0", maxSubscribeBuffer))
	defer resp.Body.Close()
	if line := read(); line["type"] != "schema" {
		t.Fatalf("first line = %v, want the schema", line)
	}
	if n := sessions(); n != 1 {
		t.Fatalf("%v live sessions after a subscribe at the limit, want 1", n)
	}
}

// TestServeSubscriptionsSorted: /v1/subscriptions lists entries in id order,
// the same order on every call.
func TestServeSubscriptionsSorted(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	for _, q := range []string{
		`SELECT auction FROM Bid`, `SELECT price FROM Bid`, `SELECT auction, price FROM Bid`,
	} {
		resp, read := subscribeLines(t, c, ts.URL, "sql="+queryEscape(q))
		defer resp.Body.Close()
		read() // the schema line: the subscription is registered
	}
	var first []float64
	for i := 0; i < 20; i++ {
		code, stats := getJSON(t, c, ts.URL+"/v1/subscriptions")
		if code != http.StatusOK {
			t.Fatalf("subscriptions: status %d", code)
		}
		var ids []float64
		for _, e := range stats["subscriptions"].([]any) {
			ids = append(ids, e.(map[string]any)["id"].(float64))
		}
		if len(ids) != 3 || ids[0] >= ids[1] || ids[1] >= ids[2] {
			t.Fatalf("call %d listed ids %v, want three in ascending order", i, ids)
		}
		if first == nil {
			first = ids
		} else if fmt.Sprint(ids) != fmt.Sprint(first) {
			t.Fatalf("call %d listed %v, first call %v", i, ids, first)
		}
	}
}

// TestServeSharded: the HTTP front-end over a sharded engine. Deltas still
// arrive (through the shard workers instead of the ingesting goroutine), the
// subscription listing reports each pipeline's shard placement plus the
// per-shard queue state, and /healthz exposes the shard count and stats. The
// serial server, by contrast, must omit the shard keys and report shard -1.
func TestServeSharded(t *testing.T) {
	engine := core.NewEngine(core.WithShards(4))
	t.Cleanup(engine.Close)
	ts := httptest.NewServer(NewServer(engine))
	t.Cleanup(ts.Close)
	c := ts.Client()
	registerBid(t, c, ts.URL)

	// Two distinct standing queries → two resident pipelines, each pinned to
	// its own (possibly equal) shard.
	resp1, read1 := subscribeLines(t, c, ts.URL,
		"sql="+queryEscape(`SELECT auction, price FROM Bid WHERE price > 900`))
	defer resp1.Body.Close()
	resp2, read2 := subscribeLines(t, c, ts.URL,
		"sql="+queryEscape(`SELECT auction, price FROM Bid WHERE price > 100`))
	defer resp2.Body.Close()
	if hdr := read1(); hdr["type"] != "schema" {
		t.Fatalf("sub1 first line = %v, want schema", hdr)
	}
	if hdr := read2(); hdr["type"] != "schema" {
		t.Fatalf("sub2 first line = %v, want schema", hdr)
	}

	ingestBids(t, c, ts.URL, []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{1, 950, 1000}},
	})
	if got := deltaPrices(t, read1()); len(got) != 1 || got[0] != 950 {
		t.Fatalf("sub1 delta prices = %v, want [950]", got)
	}
	if got := deltaPrices(t, read2()); len(got) != 1 || got[0] != 950 {
		t.Fatalf("sub2 delta prices = %v, want [950]", got)
	}

	code, stats := getJSON(t, c, ts.URL+"/v1/subscriptions")
	if code != http.StatusOK {
		t.Fatalf("subscriptions: status %d", code)
	}
	for _, e := range stats["subscriptions"].([]any) {
		m := e.(map[string]any)
		sh, ok := m["shard"].(float64)
		if !ok || sh < 0 || sh >= 4 {
			t.Fatalf("subscription shard = %v, want 0..3", m["shard"])
		}
	}
	shardsList, ok := stats["shards"].([]any)
	if !ok || len(shardsList) != 4 {
		t.Fatalf("subscriptions shards = %v, want 4 entries", stats["shards"])
	}
	for _, s := range shardsList {
		m := s.(map[string]any)
		for _, k := range []string{"shard", "depth", "lag", "lastSeq"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("shard stat %v missing %q", m, k)
			}
		}
	}

	code, hz := getJSON(t, c, ts.URL+"/v1/healthz")
	if code != http.StatusOK || hz["ok"] != true {
		t.Fatalf("healthz: status %d body %v", code, hz)
	}
	if hz["shards"].(float64) != 4 {
		t.Fatalf("healthz shards = %v, want 4", hz["shards"])
	}
	if _, ok := hz["shardStats"].([]any); !ok {
		t.Fatalf("healthz shardStats = %v, want array", hz["shardStats"])
	}

	// Serial control: no shard keys, placement -1.
	ts2, c2 := newTestServer(t)
	registerBid(t, c2, ts2.URL)
	resp3, read3 := subscribeLines(t, c2, ts2.URL,
		"sql="+queryEscape(`SELECT auction FROM Bid`))
	defer resp3.Body.Close()
	if hdr := read3(); hdr["type"] != "schema" {
		t.Fatalf("serial sub first line = %v, want schema", hdr)
	}
	code, hz = getJSON(t, c2, ts2.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("serial healthz: status %d", code)
	}
	if _, ok := hz["shards"]; ok {
		t.Fatalf("serial healthz reports shards: %v", hz)
	}
	code, stats = getJSON(t, c2, ts2.URL+"/v1/subscriptions")
	if code != http.StatusOK {
		t.Fatalf("serial subscriptions: status %d", code)
	}
	if _, ok := stats["shards"]; ok {
		t.Fatalf("serial subscriptions report shards: %v", stats)
	}
	if m := stats["subscriptions"].([]any)[0].(map[string]any); m["shard"].(float64) != -1 {
		t.Fatalf("serial subscription shard = %v, want -1", m["shard"])
	}
}

func deltaPrices(t *testing.T, d map[string]any) []int64 {
	t.Helper()
	rows, ok := d["rows"].([]any)
	if !ok {
		t.Fatalf("delta has no rows: %v", d)
	}
	var out []int64
	for _, r := range rows {
		row := r.(map[string]any)["row"].([]any)
		out = append(out, int64(row[1].(float64)))
	}
	return out
}

func queryEscape(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, " ", "+"), ">", "%3E")
}
