package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tvr"
	"repro/internal/types"
)

// TestServeStalledSocketStallsNothing: one subscriber's TCP connection never
// reads, so its socket buffers fill and its handler blocks in a write. Ingest
// goes on regardless: every POST of far more 500-row batches than the socket
// buffers hold, plus 64, is acknowledged within a deadline. A second
// subscriber of the same query that reads receives rows that hash equal to a
// QueryStream replay, and DELETE of the stalled subscription returns.
func TestServeStalledSocketStallsNothing(t *testing.T) {
	const sql = `SELECT auction, price FROM Bid WHERE price > 10`
	const batches, perBatch = 100, 500
	engine := core.NewEngine()
	defer engine.Close()
	ts := httptest.NewUnstartedServer(NewServer(engine))
	// Small server-side send buffers: a few deltas overrun the stalled
	// connection, as many more would on default buffers.
	ts.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(4096)
		}
		return ctx
	}
	ts.Start()
	defer ts.Close()
	c := ts.Client()
	registerBid(t, c, ts.URL)

	// The stalled subscriber: a raw connection that sends its request and
	// never reads a byte of the response.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4096)
	fmt.Fprintf(conn, "GET /v1/subscribe?sql=%s HTTP/1.1\r\nHost: stalled\r\n\r\n", queryEscape(sql))
	stalledID := -1
	for deadline := time.Now().Add(5 * time.Second); stalledID < 0; time.Sleep(time.Millisecond) {
		_, body := getJSON(t, c, ts.URL+"/v1/subscriptions")
		if subs := body["subscriptions"].([]any); len(subs) == 1 {
			stalledID = int(subs[0].(map[string]any)["id"].(float64))
		} else if time.Now().After(deadline) {
			t.Fatal("the stalled subscription never opened")
		}
	}

	// The reading subscriber keeps every line.
	resp, err := c.Get(ts.URL + "/v1/subscribe?sql=" + queryEscape(sql))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mu sync.Mutex
	var lines [][]byte
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
			mu.Unlock()
		}
	}()

	// Ingest, mirrored into a twin engine for the replay.
	twin := core.NewEngine()
	registerBidDirect(t, twin)
	ingested := make(chan error, 1)
	go func() {
		for b := 0; b < batches; b++ {
			events := make([]eventJSON, perBatch)
			log := make(tvr.Changelog, perBatch)
			for i := range events {
				pt := int64(b*perBatch + i + 1)
				row := []any{int64(i % 50), int64(pt % 1000), pt}
				events[i] = eventJSON{Kind: "insert", Ptime: timeMS(pt), Row: row}
				log[i] = tvr.InsertEvent(timeMS(pt), types.Row{types.NewInt(row[0].(int64)), types.NewInt(row[1].(int64)), types.NewTimestamp(timeMS(pt))})
			}
			data, err := json.Marshal(ingestJSON{Events: events})
			if err != nil {
				ingested <- err
				return
			}
			post, err := c.Post(ts.URL+"/v1/relations/Bid/events", "application/json", bytes.NewReader(data))
			if err != nil {
				ingested <- err
				return
			}
			io.Copy(io.Discard, post.Body)
			post.Body.Close()
			if post.StatusCode != http.StatusOK {
				ingested <- fmt.Errorf("batch %d: status %d", b, post.StatusCode)
				return
			}
			if err := twin.AppendLog("Bid", log); err != nil {
				ingested <- err
				return
			}
		}
		ingested <- nil
	}()
	select {
	case err := <-ingested:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ingest stalled behind a subscriber whose connection stopped reading")
	}

	// Every delta owed to the reading subscriber arrives, and its rows are
	// the replay's.
	var owed float64
	_, body := getJSON(t, c, ts.URL+"/v1/subscriptions")
	for _, s := range body["subscriptions"].([]any) {
		if s := s.(map[string]any); int(s["id"].(float64)) != stalledID {
			owed = s["deltasOut"].(float64)
		}
	}
	var got [][]byte
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		got = lines
		mu.Unlock()
		if float64(len(got)) >= owed+1 { // the schema line, then the deltas
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reading subscriber received %d of %v deltas", len(got)-1, owed)
		}
	}
	if owed <= 64 {
		t.Fatalf("only %v deltas; the test needs more than a 64-delta buffer held", owed)
	}
	gotHash := sha256.New()
	for _, line := range got[1:] {
		var d struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(line, &d); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		for _, r := range d.Rows {
			gotHash.Write(r)
			gotHash.Write([]byte{'\n'})
		}
	}
	replay, err := twin.QueryStream(sql)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := sha256.New()
	for _, r := range replay.Rows {
		b, err := json.Marshal(encodeStreamRow(r))
		if err != nil {
			t.Fatal(err)
		}
		wantHash.Write(b)
		wantHash.Write([]byte{'\n'})
	}
	if !bytes.Equal(gotHash.Sum(nil), wantHash.Sum(nil)) {
		t.Fatalf("reading subscriber's %d rows do not hash equal to the replay's %d", len(got)-1, len(replay.Rows))
	}

	// Unsubscribing the stalled subscriber returns.
	done := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, stalledID), nil)
		del, err := c.Do(req)
		if err != nil {
			done <- 0
			return
		}
		del.Body.Close()
		done <- del.StatusCode
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("DELETE of the stalled subscription: status %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DELETE of the stalled subscription stalled")
	}
}
