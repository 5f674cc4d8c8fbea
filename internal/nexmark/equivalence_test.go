package nexmark

// Serial one-shot execution against standing queries on a sharded engine,
// whose shard workers apply committed changes in parallel with ingestion,
// for every NEXMark query plus the windowed-aggregation benchmark query.

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// aggBenchSQL is a windowed per-auction rollup carrying every accumulator
// kind, including an order-statistics MIN/MAX multiset.
const aggBenchSQL = `
SELECT auction, wstart, wend,
       COUNT(*) bids, SUM(price) volume, AVG(price) avgPrice,
       MIN(price) minPrice, MAX(price) maxPrice
FROM Tumble(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(dateTime),
  dur => INTERVAL '10' SECONDS)
GROUP BY auction, wstart, wend`

// relEvent is one recorded change to a named relation.
type relEvent struct {
	rel string
	ev  tvr.Event
}

// ingestOrder merges the generated changelogs (and the Category rows, at
// ptime 0) into the sequence a one-shot run delivers them in: by ptime, ties
// broken by the order in which the query's plan first scans each relation.
func ingestOrder(t *testing.T, e *core.Engine, g *Generated, q Query) []relEvent {
	t.Helper()
	parsed, err := sqlparser.Parse(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := plan.New(e, plan.Config{AllowUnboundedGroupBy: q.NeedsUnboundedGroupBy}).Plan(parsed)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			if _, seen := rank[strings.ToLower(s.Name)]; !seen {
				rank[strings.ToLower(s.Name)] = len(rank)
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(opt.Optimize(pq).Root)
	var evs []relEvent
	for rel, log := range map[string]tvr.Changelog{"Category": g.Categories, "Person": g.Persons, "Auction": g.Auctions, "Bid": g.Bids} {
		for _, ev := range log {
			evs = append(evs, relEvent{rel, ev})
		}
	}
	order := func(rel string) int {
		if r, ok := rank[strings.ToLower(rel)]; ok {
			return r
		}
		return len(rank) + len(rel) // unscanned: any fixed order will do
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].ev.Ptime != evs[j].ev.Ptime {
			return evs[i].ev.Ptime < evs[j].ev.Ptime
		}
		return order(evs[i].rel) < order(evs[j].rel)
	})
	return evs
}

// shardedEngine registers the NEXMark relations on an empty engine whose
// standing queries fan out over four shard workers.
func shardedEngine(t *testing.T, opts []core.Option) *core.Engine {
	t.Helper()
	e := core.NewEngine(append(opts, core.WithShards(4))...)
	t.Cleanup(e.Close)
	for _, r := range []struct {
		name string
		sch  *types.Schema
	}{{"Person", PersonSchema()}, {"Auction", AuctionSchema()}, {"Bid", BidFullSchema()}} {
		if err := e.RegisterStream(r.name, r.sch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RegisterTable("Category", CategorySchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

// ingest appends evs in random-length runs of same-relation events.
func ingest(t *testing.T, e *core.Engine, rng *rand.Rand, evs []relEvent) {
	t.Helper()
	for i := 0; i < len(evs); {
		end := i + 1
		for end < len(evs) && end-i < 1+rng.Intn(16) && evs[end].rel == evs[i].rel {
			end++
		}
		log := make(tvr.Changelog, 0, end-i)
		for _, re := range evs[i:end] {
			log = append(log, re.ev)
		}
		if err := e.AppendLog(evs[i].rel, log); err != nil {
			t.Fatal(err)
		}
		i = end
	}
}

// sortedRows renders rows one per line, sorted, for order-insensitive
// comparison of table renderings.
func sortedRows(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestSerialParallelEquivalence asserts that, for every NEXMark query plus
// the aggregation benchmark, standing subscriptions on a four-shard engine
// fed the generated changelogs incrementally produce byte-identical results
// to serial one-shot execution: the stream rendering over the full input,
// and the table rendering at a mid-run processing-time horizon.
func TestSerialParallelEquivalence(t *testing.T) {
	// 4000 events give every query, Q2's rare auctions included, output.
	const n = 4000
	g := Generate(GeneratorConfig{Seed: 11, NumEvents: n, MaxOutOfOrderness: 2 * types.Second})
	mid := types.Time(0).Add(types.Duration(n/2) * 100 * types.Millisecond)

	queries := append(Queries(), Query{ID: -1, Name: "Windowed aggregation (bench)", SQL: aggBenchSQL})
	for _, q := range queries {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			var opts []core.Option
			if q.NeedsUnboundedGroupBy {
				opts = append(opts, core.WithUnboundedGroupBy())
			}
			serial, err := NewEngine(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			wantStream, err := serial.QueryStream(q.SQL)
			if err != nil {
				t.Fatalf("serial stream: %v", err)
			}
			wantTable, err := serial.QueryTable(q.SQL, mid)
			if err != nil {
				t.Fatalf("serial table: %v", err)
			}

			e := shardedEngine(t, opts)
			evs := ingestOrder(t, e, g, q)
			subOpts := core.SubscribeOptions{}
			stream, err := e.SubscribeStream(q.SQL, subOpts)
			if err != nil {
				t.Fatal(err)
			}
			// The table reader runs on a second engine, fed the same
			// commits up to mid: closing it there must complete a pipeline
			// of its own, while the stream reader's lives on.
			tableEngine := shardedEngine(t, opts)
			table, err := tableEngine.SubscribeTable(q.SQL, subOpts)
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(q.ID) + 100
			rng := rand.New(rand.NewSource(seed))
			half := sort.Search(len(evs), func(i int) bool { return evs[i].ev.Ptime > mid })
			ingest(t, e, rng, evs[:half])
			ingest(t, tableEngine, rand.New(rand.NewSource(seed)), evs[:half])

			// The table rendering at mid: advance the clock to the horizon
			// and complete the table pipeline, exactly as a one-shot
			// QueryTable(mid) does.
			for _, e := range []*core.Engine{e, tableEngine} {
				if err := e.Heartbeat(mid); err != nil {
					t.Fatal(err)
				}
			}
			final, err := table.Close()
			if err != nil {
				t.Fatal(err)
			}
			rel := tvr.NewRelation()
			apply := func(d *live.TableDiff) {
				for _, r := range d.Inserted {
					rel.Insert(r)
				}
				for _, r := range d.Deleted {
					if err := rel.Delete(r); err != nil {
						t.Fatalf("diff deletes absent row %s: %v", r, err)
					}
				}
			}
			for d := range table.Deltas() {
				apply(d.Table)
			}
			if final != nil {
				apply(final.Table)
			}
			if got, want := sortedRows(rel.Rows()), sortedRows(wantTable.Rows); got != want {
				t.Fatalf("table renderings at %s differ:\nserial:\n%s\nsharded:\n%s", mid, want, got)
			}

			ingest(t, e, rng, evs[half:])
			final, err = stream.Close()
			if err != nil {
				t.Fatal(err)
			}
			var rows []tvr.StreamRow
			for d := range stream.Deltas() {
				rows = append(rows, d.Stream...)
			}
			if final != nil {
				rows = append(rows, final.Stream...)
			}
			if s, p := tvr.FormatStreamTable(wantStream.Schema, wantStream.Rows), tvr.FormatStreamTable(stream.Schema(), rows); s != p {
				t.Fatalf("stream renderings differ:\nserial:\n%s\nsharded:\n%s", s, p)
			}
			if len(wantStream.Rows) == 0 {
				t.Fatal("serial stream is empty; test is vacuous")
			}
		})
	}
}
