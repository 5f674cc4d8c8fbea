package nexmark

import (
	"fmt"

	"repro/internal/core"
)

// Query is one NEXMark benchmark query expressed in the engine's dialect.
type Query struct {
	// ID is the NEXMark query number.
	ID int
	// Name is the benchmark's short description.
	Name string
	// SQL is the query text against the Person/Auction/Bid/Category
	// catalog.
	SQL string
	// NeedsUnboundedGroupBy marks queries whose classic formulation
	// groups an unbounded stream by a non-event-time key (Q4, Q6); they
	// require the engine's Extension 2 escape hatch and keep unbounded
	// state, which is precisely why the paper argues for event-time
	// windowed grouping.
	NeedsUnboundedGroupBy bool
}

// Queries lists the implemented NEXMark queries in ID order.
func Queries() []Query {
	return []Query{
		{ID: 0, Name: "Passthrough", SQL: q0},
		{ID: 1, Name: "Currency conversion", SQL: q1},
		{ID: 2, Name: "Selection", SQL: q2},
		{ID: 3, Name: "Local item suggestion", SQL: q3},
		{ID: 4, Name: "Average price per category", SQL: q4, NeedsUnboundedGroupBy: true},
		{ID: 5, Name: "Hot items", SQL: q5},
		{ID: 6, Name: "Average selling price by seller (windowed)", SQL: q6},
		{ID: 7, Name: "Highest bid", SQL: q7},
		{ID: 8, Name: "Monitor new users", SQL: q8},
	}
}

// QueryByID returns the query with the given NEXMark number.
func QueryByID(id int) (Query, error) {
	for _, q := range Queries() {
		if q.ID == id {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("nexmark: no query %d", id)
}

const q0 = `
SELECT auction, bidder, price, dateTime FROM Bid`

// Q1: convert bid prices from dollars to euros (the classic 0.908 rate).
const q1 = `
SELECT auction, bidder, price * 908 / 1000 AS price, dateTime FROM Bid`

// Q2: bids on a set of specific auctions.
const q2 = `
SELECT auction, price FROM Bid WHERE MOD(auction, 123) = 0`

// Q3: local item suggestion — sellers of category-1 items in western states.
const q3 = `
SELECT P.name, P.city, P.state, A.id
FROM Auction A JOIN Person P ON A.seller = P.id
WHERE A.category = 1 AND (P.state = 'OR' OR P.state = 'ID' OR P.state = 'CA')`

// Q4: average closing price per category. The classic formulation groups by
// auction id (not an event-time key) so it needs the Extension 2 escape
// hatch and keeps state for every auction — the behaviour the paper's
// windowed grouping avoids.
const q4 = `
SELECT Q.category, AVG(Q.final) AS avgPrice
FROM (
  SELECT A.id AS id, A.category AS category, MAX(B.price) AS final
  FROM Auction A JOIN Bid B ON A.id = B.auction
  WHERE B.dateTime BETWEEN A.dateTime AND A.expires
  GROUP BY A.id, A.category
) Q
GROUP BY Q.category`

// Q5: hot items — auctions with the most bids in each hopping window.
const q5 = `
SELECT AuctionBids.wstart wstart, AuctionBids.wend wend,
       AuctionBids.auction auction, AuctionBids.num num
FROM
  (SELECT auction, wstart, wend, COUNT(*) num
   FROM Hop(
     data => TABLE(Bid),
     timecol => DESCRIPTOR(dateTime),
     dur => INTERVAL '10' SECONDS,
     hopsize => INTERVAL '5' SECONDS)
   GROUP BY auction, wstart, wend) AuctionBids,
  (SELECT wstart, wend, MAX(inner2.num) maxn
   FROM (
     SELECT auction, wstart, wend, COUNT(*) num
     FROM Hop(
       data => TABLE(Bid),
       timecol => DESCRIPTOR(dateTime),
       dur => INTERVAL '10' SECONDS,
       hopsize => INTERVAL '5' SECONDS)
     GROUP BY auction, wstart, wend) inner2
   GROUP BY wstart, wend) MaxBids
WHERE AuctionBids.wstart = MaxBids.wstart
  AND AuctionBids.wend = MaxBids.wend
  AND AuctionBids.num = MaxBids.maxn`

// Q6: average selling price per seller over event-time windows (the classic
// per-seller moving average adapted to windowed grouping, as the Beam/Flink
// suites do).
const q6 = `
SELECT W.seller seller, W.wend wend, AVG(W.final) AS avgPrice
FROM (
  SELECT A.seller AS seller, MAX(B.price) AS final, B.wstart wstart, B.wend wend
  FROM Auction A
  JOIN (SELECT auction, bidder, price, dateTime, wstart, wend
        FROM Tumble(
          data => TABLE(Bid),
          timecol => DESCRIPTOR(dateTime),
          dur => INTERVAL '30' SECONDS)) B
    ON A.id = B.auction
  GROUP BY A.id, A.seller, B.wstart, B.wend
) W
GROUP BY W.seller, W.wend`

// Q7: highest bid per ten-second tumbling window (the paper's Listing 2
// query over the full NEXMark bid schema, scaled to the generator's pace).
const q7 = `
SELECT MaxBid.wstart wstart, MaxBid.wend wend,
       Bid.dateTime dateTime, Bid.price price, Bid.bidder bidder
FROM Bid,
  (SELECT MAX(TB.price) maxPrice, TB.wstart wstart, TB.wend wend
   FROM Tumble(
     data => TABLE(Bid),
     timecol => DESCRIPTOR(dateTime),
     dur => INTERVAL '10' SECONDS) TB
   GROUP BY TB.wend, TB.wstart) MaxBid
WHERE Bid.price = MaxBid.maxPrice
  AND Bid.dateTime >= MaxBid.wend - INTERVAL '10' SECONDS
  AND Bid.dateTime < MaxBid.wend`

// Q8: monitor new users — people who created auctions in the same window
// they registered in.
const q8 = `
SELECT P.id id, P.name name, P.wstart wstart
FROM
  (SELECT id, name, wstart, wend
   FROM Tumble(
     data => TABLE(Person),
     timecol => DESCRIPTOR(dateTime),
     dur => INTERVAL '10' SECONDS)) P
JOIN
  (SELECT seller, wstart, wend
   FROM Tumble(
     data => TABLE(Auction),
     timecol => DESCRIPTOR(dateTime),
     dur => INTERVAL '10' SECONDS)) A
ON P.id = A.seller AND P.wstart = A.wstart AND P.wend = A.wend`

// NewEngine builds a core engine loaded with the generated dataset. Queries
// needing the Extension 2 escape hatch get it via the option.
func NewEngine(g *Generated, opts ...core.Option) (*core.Engine, error) {
	e := core.NewEngine(opts...)
	if err := Load(e, g); err != nil {
		return nil, err
	}
	return e, nil
}

// Load registers the NEXMark catalog in e and appends the generated dataset
// to it, through e's ordinary commit path (and its log, if it has one).
func Load(e *core.Engine, g *Generated) error {
	if err := e.RegisterStream("Person", PersonSchema()); err != nil {
		return err
	}
	if err := e.RegisterStream("Auction", AuctionSchema()); err != nil {
		return err
	}
	if err := e.RegisterStream("Bid", BidFullSchema()); err != nil {
		return err
	}
	if err := e.RegisterTable("Category", CategorySchema()); err != nil {
		return err
	}
	if err := e.AppendLog("Person", g.Persons); err != nil {
		return err
	}
	if err := e.AppendLog("Auction", g.Auctions); err != nil {
		return err
	}
	if err := e.AppendLog("Bid", g.Bids); err != nil {
		return err
	}
	return e.AppendLog("Category", g.Categories)
}
