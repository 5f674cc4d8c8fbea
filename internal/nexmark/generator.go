package nexmark

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/tvr"
	"repro/internal/types"
)

// The NEXMark data model: an online auction platform with three streams
// (Person, Auction, Bid) and a static Category table. The generator is
// deterministic (seeded) and produces out-of-order streams: each event's
// processing time trails its event time by a random skew, and heuristic
// watermarks trail processing time by the configured bound — the synthetic
// stand-in for the paper's production sources.

// PersonSchema describes the Person stream.
func PersonSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt64},
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "email", Kind: types.KindString},
		types.Column{Name: "city", Kind: types.KindString},
		types.Column{Name: "state", Kind: types.KindString},
		types.Column{Name: "dateTime", Kind: types.KindTimestamp, EventTime: true},
	)
}

// AuctionSchema describes the Auction stream.
func AuctionSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt64},
		types.Column{Name: "itemName", Kind: types.KindString},
		types.Column{Name: "seller", Kind: types.KindInt64},
		types.Column{Name: "category", Kind: types.KindInt64},
		types.Column{Name: "initialBid", Kind: types.KindInt64},
		types.Column{Name: "expires", Kind: types.KindTimestamp},
		types.Column{Name: "dateTime", Kind: types.KindTimestamp, EventTime: true},
	)
}

// BidFullSchema describes the full NEXMark Bid stream (the paper's Section 4
// example uses the reduced BidSchema).
func BidFullSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "auction", Kind: types.KindInt64},
		types.Column{Name: "bidder", Kind: types.KindInt64},
		types.Column{Name: "price", Kind: types.KindInt64},
		types.Column{Name: "dateTime", Kind: types.KindTimestamp, EventTime: true},
	)
}

// CategorySchema describes the static Category table.
func CategorySchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt64},
		types.Column{Name: "name", Kind: types.KindString},
	)
}

// GeneratorConfig controls the deterministic event generator.
type GeneratorConfig struct {
	// Seed fixes the pseudo-random sequence.
	Seed int64
	// NumEvents is the total number of person+auction+bid events.
	NumEvents int
	// FirstEventTime is the event time of the first event.
	FirstEventTime types.Time
	// InterEventGap is the event-time spacing between consecutive events.
	InterEventGap types.Duration
	// MaxOutOfOrderness bounds how far processing time trails event time;
	// 0 generates perfectly ordered streams.
	MaxOutOfOrderness types.Duration
	// WatermarkInterval is the processing-time period between watermark
	// emissions per stream.
	WatermarkInterval types.Duration
	// Proportions of the event mix per NEXMark: defaults 1 person,
	// 3 auctions, 46 bids per 50 events.
	PersonProportion, AuctionProportion, BidProportion int
	// NumCategories sizes the static Category table (default 5).
	NumCategories int
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.NumEvents == 0 {
		c.NumEvents = 1000
	}
	if c.InterEventGap == 0 {
		c.InterEventGap = 100 * types.Millisecond
	}
	if c.WatermarkInterval == 0 {
		c.WatermarkInterval = 10 * types.Second
	}
	if c.PersonProportion == 0 && c.AuctionProportion == 0 && c.BidProportion == 0 {
		c.PersonProportion, c.AuctionProportion, c.BidProportion = 1, 3, 46
	}
	if c.NumCategories == 0 {
		c.NumCategories = 5
	}
	return c
}

// Generated holds the generator's output: one recorded changelog per stream
// plus the static Category table's, every row inserted at ptime 0.
type Generated struct {
	Persons    tvr.Changelog
	Auctions   tvr.Changelog
	Bids       tvr.Changelog
	Categories tvr.Changelog
	// Counts of data events per stream.
	NumPersons, NumAuctions, NumBids int
}

var (
	firstNames = []string{"Ada", "Bob", "Cleo", "Dan", "Eve", "Fay", "Gus", "Hal", "Ivy", "Joe"}
	lastNames  = []string{"Walton", "Smith", "Jones", "Noris", "Abrams", "White", "Bauer", "Stone"}
	cities     = []string{"Phoenix", "Palo Alto", "Seattle", "Boise", "Portland", "Bend", "Eugene"}
	states     = []string{"AZ", "CA", "WA", "ID", "OR"}
	items      = []string{"chair", "table", "sofa", "lamp", "rug", "vase", "desk", "clock"}
)

type pending struct {
	ptime  types.Time
	stream int // 0 person, 1 auction, 2 bid
	row    types.Row
	seq    int
}

// Generate produces the deterministic NEXMark dataset for the config.
func Generate(cfg GeneratorConfig) *Generated {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &Generated{}

	for i := 0; i < cfg.NumCategories; i++ {
		out.Categories = append(out.Categories, tvr.InsertEvent(0, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("category-%d", i)),
		}))
	}

	cycle := cfg.PersonProportion + cfg.AuctionProportion + cfg.BidProportion
	var events []pending
	var nextPersonID, nextAuctionID int64 = 1000, 2000
	var personIDs, auctionIDs []int64

	randPerson := func() int64 {
		if len(personIDs) == 0 {
			return 999 // a "pre-existing" user
		}
		return personIDs[rng.Intn(len(personIDs))]
	}
	randAuction := func() int64 {
		if len(auctionIDs) == 0 {
			return 1999
		}
		return auctionIDs[rng.Intn(len(auctionIDs))]
	}

	for i := 0; i < cfg.NumEvents; i++ {
		et := cfg.FirstEventTime.Add(types.Duration(int64(i) * int64(cfg.InterEventGap)))
		skew := types.Duration(0)
		if cfg.MaxOutOfOrderness > 0 {
			skew = types.Duration(rng.Int63n(int64(cfg.MaxOutOfOrderness) + 1))
		}
		pt := et.Add(skew)
		slot := i % cycle
		switch {
		case slot < cfg.PersonProportion:
			id := nextPersonID
			nextPersonID++
			personIDs = append(personIDs, id)
			name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
			row := types.Row{
				types.NewInt(id),
				types.NewString(name),
				types.NewString(fmt.Sprintf("u%d@example.com", id)),
				types.NewString(cities[rng.Intn(len(cities))]),
				types.NewString(states[rng.Intn(len(states))]),
				types.NewTimestamp(et),
			}
			events = append(events, pending{ptime: pt, stream: 0, row: row, seq: i})
			out.NumPersons++
		case slot < cfg.PersonProportion+cfg.AuctionProportion:
			id := nextAuctionID
			nextAuctionID++
			auctionIDs = append(auctionIDs, id)
			expires := et.Add(types.Duration(rng.Int63n(int64(20*types.Minute))) + types.Minute)
			row := types.Row{
				types.NewInt(id),
				types.NewString(items[rng.Intn(len(items))]),
				types.NewInt(randPerson()),
				types.NewInt(int64(rng.Intn(cfg.NumCategories))),
				types.NewInt(int64(rng.Intn(100) + 1)),
				types.NewTimestamp(expires),
				types.NewTimestamp(et),
			}
			events = append(events, pending{ptime: pt, stream: 1, row: row, seq: i})
			out.NumAuctions++
		default:
			row := types.Row{
				types.NewInt(randAuction()),
				types.NewInt(randPerson()),
				types.NewInt(int64(rng.Intn(10000) + 1)),
				types.NewTimestamp(et),
			}
			events = append(events, pending{ptime: pt, stream: 2, row: row, seq: i})
			out.NumBids++
		}
	}

	// Deliver in processing-time order (stable on generation sequence).
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].ptime != events[j].ptime {
			return events[i].ptime < events[j].ptime
		}
		return events[i].seq < events[j].seq
	})

	// Interleave per-stream heuristic watermarks: wm = ptime - bound - 1ms
	// is always valid because event time >= ptime - MaxOutOfOrderness.
	logs := []*tvr.Changelog{&out.Persons, &out.Auctions, &out.Bids}
	nextWM := types.Time(int64(cfg.FirstEventTime) + int64(cfg.WatermarkInterval))
	for _, ev := range events {
		for ev.ptime >= nextWM {
			wm := nextWM.Add(-cfg.MaxOutOfOrderness - types.Millisecond)
			for _, log := range logs {
				*log = append(*log, tvr.WatermarkEvent(nextWM, wm))
			}
			nextWM = nextWM.Add(cfg.WatermarkInterval)
		}
		*logs[ev.stream] = append(*logs[ev.stream], tvr.InsertEvent(ev.ptime, ev.row))
	}
	// Final watermark covering everything emitted.
	if len(events) > 0 {
		last := events[len(events)-1].ptime
		final := cfg.FirstEventTime.Add(types.Duration(int64(cfg.NumEvents)*int64(cfg.InterEventGap)) + cfg.MaxOutOfOrderness)
		if final < last {
			final = last
		}
		for _, log := range logs {
			*log = append(*log, tvr.WatermarkEvent(last, final))
		}
	}
	return out
}
