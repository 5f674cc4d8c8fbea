package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/types"
)

// The load generator is one process with at most two connections to the
// server — one producer, one ndjson subscriber — because the box has two
// cores and a third busy connection would measure the scheduler, not the
// server. Queries, checkpoints and /metrics scrapes are issued by the
// producer loop on the producer's connection.

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// subLine is one ndjson line with the time its last byte was read.
type subLine struct {
	at  time.Time
	raw []byte
}

// subscriber reads the standing query's ndjson stream on its own
// connection. Lines are stamped and kept raw; they are parsed after the
// timed phases so the load generator's JSON decoding never competes with
// the server for the two cores.
type subscriber struct {
	cancel context.CancelFunc
	client *http.Client
	done   chan struct{}

	mu    sync.Mutex
	lines []subLine // delta lines, schema line excluded
}

func openSubscriber(ctx context.Context, base, sql string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	s := &subscriber{cancel: cancel, client: newClient(), done: make(chan struct{})}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/subscribe?mode=stream&sql="+url.QueryEscape(sql), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: %s", resp.Status)
	}
	// A 1 MiB buffer holds any delta line whole (the largest carries one
	// batch of 500 rows).
	rd := bufio.NewReaderSize(resp.Body, 1<<20)
	schema, err := rd.ReadBytes('\n')
	if err != nil {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: reading schema line: %w", err)
	}
	var first struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(schema, &first); err != nil || first.Type != "schema" {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: first line is not a schema line: %s", schema)
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		for {
			raw, err := rd.ReadBytes('\n')
			at := time.Now()
			if err != nil {
				return // the server closed the stream, or close() cancelled it
			}
			s.mu.Lock()
			s.lines = append(s.lines, subLine{at, raw})
			s.mu.Unlock()
		}
	}()
	return s, nil
}

func (s *subscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.lines)
}

// close ends the subscription and waits for the reader goroutine.
func (s *subscriber) close() {
	if s == nil {
		return
	}
	s.cancel()
	<-s.done
	s.client.CloseIdleConnections()
}

// subStats is the harness's view of one /v1/subscriptions entry.
type subStats struct {
	EventsIn          int64   `json:"eventsIn"`
	DeltasOut         int64   `json:"deltasOut"`
	RowsOut           int64   `json:"rowsOut"`
	EventsPerDispatch float64 `json:"eventsPerDispatch"`
}

func fetchSubStats(ctx context.Context, c *http.Client, base string) (subStats, error) {
	var resp struct {
		Subscriptions []subStats `json:"subscriptions"`
	}
	if err := getJSON(ctx, c, base+"/v1/subscriptions", &resp); err != nil {
		return subStats{}, err
	}
	if len(resp.Subscriptions) != 1 {
		return subStats{}, fmt.Errorf("%d subscriptions listed, want 1", len(resp.Subscriptions))
	}
	return resp.Subscriptions[0], nil
}

// awaitDeltas waits until the subscriber has read every delta the server
// has handed to its cursor. With the serial fan-out a delta is in the
// cursor before its commit is acknowledged, so once the producer is idle
// deltasOut is final.
func awaitDeltas(ctx context.Context, c *http.Client, base string, sub *subscriber) (subStats, error) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := fetchSubStats(ctx, c, base)
		if err != nil {
			return st, err
		}
		got := int64(sub.count())
		if got == st.DeltasOut {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("subscriber read %d of %d deltas", got, st.DeltasOut)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// session is one server process with its producer connection and
// subscriber, set up and warmed.
type session struct {
	srv     *server
	client  *http.Client
	sub     *subscriber
	dataDir string
}

func (s *session) close() {
	if s == nil {
		return
	}
	s.sub.close()
	s.srv.kill()
	s.client.CloseIdleConnections()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir) //nolint:errcheck // scratch under out/
	}
}

func (w workload) serverFlags(dataDir string) []string {
	if !w.durable {
		return nil
	}
	return []string{"-data-dir", dataDir, "-wal-sync=always", "-checkpoint-every=0"}
}

// ingest POSTs one batch and checks the acknowledgment.
func ingest(ctx context.Context, c *http.Client, base string, w workload, b batch) error {
	var ack struct {
		Appended int `json:"appended"`
	}
	if err := post(ctx, c, base+"/v1/relations/"+w.relations[b.rel].name+"/events", b.body, &ack); err != nil {
		return err
	}
	if ack.Appended != len(b.log) {
		return fmt.Errorf("appended %d of %d events", ack.Appended, len(b.log))
	}
	return nil
}

// setUp performs one complete set-up: generate and encode the input, start
// the server, wait for health, register relations, open the subscriber and
// send the warm-up batches. It returns when the first timed request could
// be sent.
func setUp(ctx context.Context, cfg runConfig, round int) (*session, *input, error) {
	in, err := buildInput(cfg.w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, nil, err
	}
	s := &session{client: newClient()}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	if cfg.w.durable {
		s.dataDir, err = os.MkdirTemp(cfg.outDir, "data-"+cfg.w.name+"-")
		if err != nil {
			return nil, nil, err
		}
	}
	logPath := filepath.Join(cfg.outDir, "server-"+cfg.w.name+".log")
	if round == 0 {
		os.Remove(logPath) //nolint:errcheck // start each run's log afresh
	}
	s.srv, err = startServer(cfg.bin, logPath, cfg.w.serverFlags(s.dataDir)...)
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.srv.waitHealthy(ctx, s.client, func(health) bool { return true }); err != nil {
		return nil, nil, err
	}
	for _, r := range cfg.w.relations {
		if err := post(ctx, s.client, s.srv.base+"/v1/relations", registerBody(r), nil); err != nil {
			return nil, nil, err
		}
	}
	s.sub, err = openSubscriber(ctx, s.srv.base, cfg.w.sql)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range in.batches[:in.warm] {
		if err := ingest(ctx, s.client, s.srv.base, cfg.w, b); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ok = true
	return s, in, nil
}

// phaseStats is what the producer loop measured in one phase.
type phaseStats struct {
	events, requests  int
	wall              time.Duration
	ingestRTT         time.Duration // sum over ingest POSTs only
	due, acked        []time.Time   // per batch of the phase (paced only)
	lateness          []float64     // ms, paced only
	ackMs             []float64     // due -> ack, paced only
	queryMs           []float64
	checkpointMs      []float64
	attempted, failed int
	failures          []string // the first few failures, described
}

func (p *phaseStats) fail(format string, a ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, a...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sleepUntil returns at due, not a scheduler tick after it: the Go runtime
// rounds an idle process's timers up to a millisecond, which would be
// counted into every latency, so the wait is a kernel nanosleep to just
// short of due and a spin over the rest.
func sleepUntil(due time.Time) {
	const spin = 200 * time.Microsecond
	if d := time.Until(due) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only lengthens the spin
	}
	for time.Now().Before(due) {
	}
}

// runPaced is the open loop: every batch has a due time fixed by the rate
// and the events before it, and is timed from that due time whether or not
// the producer was free to send it then.
func runPaced(ctx context.Context, s *session, w workload, bs []batch) *phaseStats {
	p := &phaseStats{due: make([]time.Time, len(bs)), acked: make([]time.Time, len(bs))}
	rate := float64(w.pacedRate)
	start := time.Now()
	t0 := start.Add(2 * time.Millisecond)
	sentEvents := 0
	free := start // when the producer's connection was last free
	for i, b := range bs {
		if ctx.Err() != nil {
			break
		}
		due := t0.Add(time.Duration(float64(sentEvents) / rate * float64(time.Second)))
		sentEvents += len(b.log)
		sleepUntil(due)
		sent := time.Now()
		err := ingest(ctx, s.client, s.srv.base, w, b)
		acked := time.Now()
		p.attempted++
		p.requests++
		p.events += len(b.log)
		p.due[i], p.acked[i] = due, acked
		p.ingestRTT += acked.Sub(sent)
		// Lateness is the generator's own: how long after it could have
		// sent (due, or the previous ack if that came later) it did send.
		if free.After(due) {
			p.lateness = append(p.lateness, ms(sent.Sub(free)))
		} else {
			p.lateness = append(p.lateness, ms(sent.Sub(due)))
		}
		free = acked
		if err != nil {
			p.fail("paced batch %d: %v", i, err)
			continue
		}
		p.ackMs = append(p.ackMs, ms(acked.Sub(due)))
	}
	p.wall = time.Since(start)
	return p
}

// runSaturate is the closed loop: the next POST goes out when the previous
// one is acknowledged. Queries and checkpoints sit at fixed input
// positions, so they replay the same history on every commit; their round
// trips are kept out of ingestRTT but the stalls they cause are not.
func runSaturate(ctx context.Context, s *session, w workload, bs []batch, queryEvery int) *phaseStats {
	p := &phaseStats{}
	queryURL := s.srv.base + "/v1/query?mode=table&sql=" + url.QueryEscape(w.sql)
	nextQuery := queryEvery
	start := time.Now()
	for i, b := range bs {
		if ctx.Err() != nil {
			break
		}
		sent := time.Now()
		err := ingest(ctx, s.client, s.srv.base, w, b)
		p.ingestRTT += time.Since(sent)
		p.attempted++
		p.requests++
		p.events += len(b.log)
		if err != nil {
			p.fail("saturate batch %d: %v", i, err)
		}
		if w.durable && (i+1 == len(bs)/4 || i+1 == len(bs)/2) {
			t := time.Now()
			err := post(ctx, s.client, s.srv.base+"/v1/checkpoint", nil, nil)
			p.checkpointMs = append(p.checkpointMs, ms(time.Since(t)))
			p.attempted++
			if err != nil {
				p.fail("checkpoint after batch %d: %v", i, err)
			}
		}
		if queryEvery > 0 && p.events >= nextQuery {
			nextQuery += queryEvery
			d, err := timedQuery(ctx, s.client, queryURL)
			p.attempted++
			if err != nil {
				p.fail("query after batch %d: %v", i, err)
			} else {
				p.queryMs = append(p.queryMs, ms(d))
			}
		}
	}
	p.wall = time.Since(start)
	return p
}

// queryResult is a one-shot table query's reply.
type queryResult struct {
	Rows []json.RawMessage `json:"rows"`
}

func timedQuery(ctx context.Context, c *http.Client, url string) (time.Duration, error) {
	t := time.Now()
	var res queryResult
	err := getJSON(ctx, c, url, &res)
	return time.Since(t), err
}

// parsedDelta is one delta line after the timed phases.
type parsedDelta struct {
	at       time.Time
	rows     int
	maxPtime types.Time
}

// rowHasher is the order-sensitive hash of a stream rendering: every row's
// JSON bytes with its undo, ptime and ver columns, in arrival order.
type rowHasher struct {
	h    hash.Hash
	rows int64
	buf  []byte
}

func newRowHasher() *rowHasher { return &rowHasher{h: sha256.New()} }

func (r *rowHasher) add(rowJSON []byte, undo bool, ptime int64, ver int64) {
	b := append(r.buf[:0], rowJSON...)
	b = append(b, '|')
	b = strconv.AppendBool(b, undo)
	b = append(b, '|')
	b = strconv.AppendInt(b, ptime, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, ver, 10)
	b = append(b, '\n')
	r.h.Write(b)
	r.buf = b
	r.rows++
}

func (r *rowHasher) sum() string { return hex.EncodeToString(r.h.Sum(nil)) }

// parseDeltas decodes the subscriber's lines, feeding every row to the
// hasher. It returns the deltas and the total line bytes.
func parseDeltas(lines []subLine, hasher *rowHasher) ([]parsedDelta, int64, error) {
	type wireRow struct {
		Row   json.RawMessage `json:"row"`
		Undo  bool            `json:"undo"`
		Ptime int64           `json:"ptime"`
		Ver   int64           `json:"ver"`
	}
	var line struct {
		Type  string    `json:"type"`
		Error string    `json:"error"`
		Rows  []wireRow `json:"rows"`
	}
	out := make([]parsedDelta, 0, len(lines))
	var bytes int64
	for i, l := range lines {
		line.Type, line.Error, line.Rows = "", "", line.Rows[:0]
		if err := json.Unmarshal(l.raw, &line); err != nil {
			return nil, 0, fmt.Errorf("delta line %d: %w", i, err)
		}
		if line.Type != "delta" {
			return nil, 0, fmt.Errorf("delta line %d: type %q %s", i, line.Type, line.Error)
		}
		d := parsedDelta{at: l.at, rows: len(line.Rows), maxPtime: types.MinTime}
		for _, r := range line.Rows {
			hasher.add(r.Row, r.Undo, r.Ptime, r.Ver)
			if types.Time(r.Ptime) > d.maxPtime {
				d.maxPtime = types.Time(r.Ptime)
			}
		}
		bytes += int64(len(l.raw))
		out = append(out, d)
	}
	return out, bytes, nil
}

// matchDeltas maps each delta to the batch that caused it: the first batch
// after the previously matched one, of a relation the query scans, whose
// ptime range holds the delta's largest row ptime. A commit yields at most
// one delta and deltas arrive in commit order, so the search only moves
// forward. Unmatched deltas get -1.
func matchDeltas(in *input, scanned []bool, deltas []parsedDelta) []int {
	out := make([]int, len(deltas))
	next := 0
	for i, d := range deltas {
		out[i] = -1
		for j := next; j < len(in.batches); j++ {
			b := in.batches[j]
			if b.lo > d.maxPtime {
				break
			}
			if scanned[b.rel] && d.maxPtime <= b.hi {
				out[i] = j
				next = j + 1
				break
			}
		}
	}
	return out
}

// percentile is the nearest-rank percentile of xs (0 < q <= 1), 0 when xs
// is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value, or the mean of the two middle values — what
// Python's statistics.median gives, which is what the driver takes.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
