package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/nexmark"
	"repro/internal/tvr"
	"repro/internal/types"
)

// A workload is one traffic mix against one cmd/serve process. Every size
// below is a constant of the benchmark: input size is fixed per workload (a
// function of -seconds only), never of how fast the server happens to be,
// because cost depends on history and a fixed input is the only way two
// commits do the same work and the output can be checked.
type workload struct {
	name string
	why  string // one line, mirrored in BENCHMARK.json
	sql  string
	// relations are registered and ingested; their order is the tie-break
	// order for equal ptimes across relations (the executor's scan order).
	relations []relation
	durable   bool // -data-dir -wal-sync=always -checkpoint-every=0
	// batchEvents caps the events in one POST.
	batchEvents int
	// pacedRate is the open loop's fixed rate in events/s; the paced phases
	// of a run's cycles together last half the run's nominal seconds.
	pacedRate int
	// satEvents is one cycle's closed-loop input size for a nominal 10 s run
	// (scaled with -seconds): at the seed the cycles' saturate phases
	// together take about 5 s or less, and it is the same input on any later
	// commit.
	satEvents int
	// queryEvery > 0 interleaves a one-shot table query of the same SQL
	// into the saturate loop after every queryEvery ingested events.
	queryEvery int
}

type relation struct {
	name   string
	schema *types.Schema
}

var (
	relPerson  = relation{"Person", nexmark.PersonSchema()}
	relAuction = relation{"Auction", nexmark.AuctionSchema()}
	relBid     = relation{"Bid", nexmark.BidFullSchema()}
)

// windowedSQL is internal/nexmark's liveBenchSQL: the per-auction windowed
// rollup the in-process live bench measures, so the two records compare.
const windowedSQL = `
SELECT auction, wstart, wend, MAX(price) maxPrice
FROM Tumble(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(dateTime),
  dur => INTERVAL '10' SECONDS)
GROUP BY auction, wstart, wend
EMIT STREAM AFTER WATERMARK`

func nexmarkSQL(id int) string {
	q, err := nexmark.QueryByID(id)
	if err != nil {
		panic(err) // a query id in this file that nexmark does not have
	}
	return q.SQL
}

// workloads lists the benchmark's traffic mixes. The `why` strings are the
// ones BENCHMARK.json records (the lint test keeps them equal).
func workloads() []workload {
	return []workload{
		{
			name:        "wire_passthrough",
			why:         "Q1 projection: output rows = input rows, so JSON decode, render, ndjson encode and delivery do the work while exec and wal do almost none; an operator optimisation must not move it.",
			sql:         nexmarkSQL(1),
			relations:   []relation{relBid},
			batchEvents: 500,
			pacedRate:   40000,
			satEvents:   200000,
		},
		{
			name:        "durable_commits",
			why:         "Q2 filter, 100 events/POST, -wal-sync=always, checkpoints at fixed commit indices, then SIGKILL and timed recovery: wal append+fsync, per-request overhead and snapshot+tail replay dominate.",
			sql:         nexmarkSQL(2),
			relations:   []relation{relBid},
			durable:     true,
			batchEvents: 100,
			pacedRate:   20000,
			satEvents:   250000,
		},
		{
			name:        "windowed_agg",
			why:         "Per-auction 10 s Tumble MAX(price) EMIT AFTER WATERMARK: exec aggregate and watermark handling dominate, output is small, wire and wal are bypassed; history-dependent cost shows.",
			sql:         windowedSQL,
			relations:   []relation{relBid},
			batchEvents: 250,
			pacedRate:   10000,
			satEvents:   60000,
		},
		{
			name:        "join_query_mix",
			why:         "Person+Auction+Bid in ptime order under standing Q4 (join, MAX, AVG; retraction-heavy) with one-shot Q4 table queries between ingests: Feed and Run share operators, reads beside writes.",
			sql:         nexmarkSQL(4),
			relations:   []relation{relPerson, relAuction, relBid},
			batchEvents: 500,
			pacedRate:   10000,
			satEvents:   48000,
			queryEvery:  4000,
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// batch is one POST body: a run of one relation's events that owns the
// ptime range [lo, hi], disjoint from every other batch of that relation.
type batch struct {
	rel    int // index into workload.relations
	log    tvr.Changelog
	body   []byte
	lo, hi types.Time
}

// input is everything the server will receive, generated from the seed and
// pre-encoded before any timing starts.
type input struct {
	batches []batch
	// batches[:warm] are the untimed warm-up, [warm:paced] the open-loop
	// phase, [paced:] the closed-loop phase.
	warm, paced int
	// logs is every relation's full changelog in send order — what the
	// reference engine replays.
	logs []tvr.Changelog
}

const (
	warmBatches = 20
	warmEvents  = 2000
)

// sizes returns the events in one cycle's paced and saturate phases for a
// run of the given nominal length: the paced phases of all cycles together
// last half the nominal seconds.
func (w workload) sizes(seconds float64) (pacedEvents, satEvents int) {
	return int(float64(w.pacedRate) * seconds / 2 / cycles), int(float64(w.satEvents) * seconds / 10)
}

// buildInput generates the workload's NEXMark input for the seed, cuts it
// into batches and encodes the request bodies. The same (workload, seed,
// seconds) always yields byte-identical bodies.
func buildInput(w workload, seed int64, seconds float64) (*input, error) {
	pacedEvents, satEvents := w.sizes(seconds)
	need := warmBatches*w.batchEvents + warmEvents + pacedEvents + satEvents
	gen := need
	if len(w.relations) == 1 {
		// Bid-only workloads drop Person and Auction: 46 of 50 generated
		// events are bids.
		gen = need*50/46 + 50
	}
	g := nexmark.Generate(nexmark.GeneratorConfig{
		Seed: seed, NumEvents: gen, MaxOutOfOrderness: 2 * types.Second,
	})
	src := map[string]tvr.Changelog{"Person": g.Persons, "Auction": g.Auctions, "Bid": g.Bids}

	// One global send order: ptime, then relation order, then log order —
	// the order exec's one-shot merge delivers, so the live commit sequence
	// and the reference replay see the same event sequence.
	type ref struct {
		rel, idx int
		ptime    types.Time
	}
	var order []ref
	for ri, r := range w.relations {
		for i, ev := range src[r.name] {
			order = append(order, ref{ri, i, ev.Ptime})
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].ptime != order[j].ptime {
			return order[i].ptime < order[j].ptime
		}
		return order[i].rel < order[j].rel
	})

	in := &input{logs: make([]tvr.Changelog, len(w.relations))}
	// Phase boundaries fall on batch boundaries: warm-up until it has its
	// batches and events, then the paced events, then the saturate events;
	// what the generator made beyond that is not sent.
	const (
		warming = iota
		pacing
		saturating
	)
	phase, events := warming, 0
	for start := 0; start < len(order); {
		switch {
		case phase == warming && len(in.batches) >= warmBatches && events >= warmEvents:
			phase, events, in.warm = pacing, 0, len(in.batches)
		case phase == pacing && events >= pacedEvents:
			phase, events, in.paced = saturating, 0, len(in.batches)
		}
		if phase == saturating && events >= satEvents {
			return in, nil
		}
		rel := order[start].rel
		end := start + 1
		for end < len(order) && order[end].rel == rel {
			// Cut at the cap, but never between equal ptimes: each batch
			// must own its ptime range so a delta maps back to one batch.
			if end-start >= w.batchEvents && order[end].ptime != order[end-1].ptime {
				break
			}
			end++
		}
		log := src[w.relations[rel].name][order[start].idx : order[end-1].idx+1]
		in.batches = append(in.batches, batch{
			rel: rel, log: log, body: encodeBody(log),
			lo: log[0].Ptime, hi: log[len(log)-1].Ptime,
		})
		in.logs[rel] = append(in.logs[rel], log...)
		events += len(log)
		start = end
	}
	return nil, fmt.Errorf("generated input ran out in phase %d after %d batches", phase, len(in.batches))
}

func countEvents(bs []batch) int {
	n := 0
	for _, b := range bs {
		n += len(b.log)
	}
	return n
}

// encodeBody renders a changelog as the ingest endpoint's JSON body.
func encodeBody(log tvr.Changelog) []byte {
	b := make([]byte, 0, 64*len(log)+16)
	b = append(b, `{"events":[`...)
	for i, ev := range log {
		if i > 0 {
			b = append(b, ',')
		}
		switch ev.Kind {
		case tvr.Watermark:
			b = append(b, `{"kind":"watermark","ptime":`...)
			b = strconv.AppendInt(b, int64(ev.Ptime), 10)
			b = append(b, `,"wm":`...)
			b = strconv.AppendInt(b, int64(ev.Wm), 10)
		default:
			if ev.Kind == tvr.Delete {
				b = append(b, `{"kind":"delete","ptime":`...)
			} else {
				b = append(b, `{"kind":"insert","ptime":`...)
			}
			b = strconv.AppendInt(b, int64(ev.Ptime), 10)
			b = append(b, `,"row":`...)
			b = appendRowJSON(b, ev.Row)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendRowJSON writes a row exactly as cmd/serve's encodeRow + json.Encoder
// do (timestamps and intervals as engine milliseconds), so the bytes of a
// received row and of a reference row can be compared directly.
func appendRowJSON(b []byte, row types.Row) []byte {
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.Kind() {
		case types.KindNull:
			b = append(b, "null"...)
		case types.KindBool:
			b = strconv.AppendBool(b, v.Bool())
		case types.KindInt64, types.KindTimestamp, types.KindInterval:
			b = strconv.AppendInt(b, v.Int(), 10)
		case types.KindFloat64:
			b = appendMarshal(b, v.Float())
		case types.KindString:
			b = appendMarshal(b, v.Str())
		}
	}
	return append(b, ']')
}

func appendMarshal(b []byte, v any) []byte {
	js, err := json.Marshal(v)
	if err != nil {
		panic(err) // strings and finite floats always marshal
	}
	return append(b, js...)
}

// registerBody is the POST /v1/relations body for a relation.
func registerBody(r relation) []byte {
	type col struct {
		Name      string `json:"name"`
		Type      string `json:"type"`
		EventTime bool   `json:"eventTime,omitempty"`
	}
	cols := make([]col, len(r.schema.Cols))
	for i, c := range r.schema.Cols {
		cols[i] = col{c.Name, c.Kind.String(), c.EventTime}
	}
	return appendMarshal(nil, map[string]any{"name": r.name, "kind": "stream", "schema": cols})
}
