package sqlparser_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/nexmark"
	"repro/internal/sqlparser"
)

// listingSQL holds the paper's listings as the listing tests in
// internal/core run them: Query 7 (Listing 2) under each EMIT control, and
// the Tumble and Hop listings.
var listingSQL = []string{
	nexmark.Query7SQL,
	nexmark.Query7SQL + " EMIT STREAM",
	nexmark.Query7SQL + " EMIT AFTER WATERMARK",
	nexmark.Query7SQL + " EMIT STREAM AFTER WATERMARK",
	nexmark.Query7SQL + " EMIT STREAM AFTER DELAY INTERVAL '6' MINUTES",
	`SELECT wstart, wend, bidtime, price, item
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
  dur => INTERVAL '10' MINUTES, offset => INTERVAL '0' MINUTES)`,
	`SELECT MAX(wstart) wstart, wend, SUM(price) price
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
  dur => INTERVAL '10' MINUTES)
GROUP BY wend`,
	`SELECT wstart, wend, bidtime, price, item
FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
  dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '5' MINUTES)`,
	`SELECT MAX(wstart) wstart, wend, SUM(price) price
FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
  dur => INTERVAL '10' MINUTES, hopsize => INTERVAL '5' MINUTES)
GROUP BY wend`,
}

// nested returns a query that nests n levels of one kind: parenthesised
// expressions, scalar subqueries, NOT, unary minus, or table functions.
func nested(kind string, n int) string {
	switch kind {
	case "paren":
		return "SELECT " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + " FROM Bid"
	case "subquery":
		return strings.Repeat("SELECT (", n) + "SELECT 1 FROM Bid" + strings.Repeat(") FROM Bid", n)
	case "not":
		return "SELECT 1 FROM Bid WHERE " + strings.Repeat("NOT ", n) + "TRUE"
	case "minus":
		return "SELECT " + strings.Repeat("- ", n) + "1 FROM Bid"
	case "tvf":
		return "SELECT * FROM " + strings.Repeat("Tumble(data => TABLE(", n) + "Bid" + strings.Repeat("))", n)
	}
	panic("unknown nesting kind " + kind)
}

var nestingKinds = []string{"paren", "subquery", "not", "minus", "tvf"}

// TestParseRefusesDeepNesting: every kind of nesting parses at a depth well
// inside the limit and is refused with a SyntaxError far past it, a depth
// whose recursion would need hundreds of megabytes of stack.
func TestParseRefusesDeepNesting(t *testing.T) {
	for _, kind := range nestingKinds {
		if _, err := sqlparser.Parse(nested(kind, 200)); err != nil {
			t.Errorf("%s nested 200 deep: %v", kind, err)
		}
		sql := nested(kind, 100_000)
		_, err := sqlparser.Parse(sql)
		var se *sqlparser.SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "levels deep") {
			t.Fatalf("%s nested 100000 deep: err = %v, want a nesting SyntaxError", kind, err)
		}
		if se.Line != 1 || se.Col < 1 || se.Col > len(sql) {
			t.Fatalf("%s: error at line %d column %d, outside the query", kind, se.Line, se.Col)
		}
	}
}

// FuzzParse holds the parser to its error contract: no input panics, and
// every refusal is a *SyntaxError with a 1-based position. The seeds are the
// paper's listings, the NEXMark queries and the nesting cases, deep ones
// included.
func FuzzParse(f *testing.F) {
	for _, sql := range listingSQL {
		f.Add(sql)
	}
	for _, q := range nexmark.Queries() {
		f.Add(q.SQL)
	}
	for _, kind := range nestingKinds {
		f.Add(nested(kind, 20_000))
	}
	f.Add(nested("paren", 100_000))
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparser.Parse(sql)
		if err == nil {
			if q == nil {
				t.Fatal("nil query without an error")
			}
			return
		}
		var se *sqlparser.SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("error %v (%T) is not a *SyntaxError", err, err)
		}
		if se.Line < 1 || se.Col < 1 {
			t.Fatalf("error %v at line %d column %d, want both >= 1", err, se.Line, se.Col)
		}
	})
}
