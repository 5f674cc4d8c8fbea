// Command nexmark runs the NEXMark benchmark queries against the streaming
// SQL engine from the terminal: generate a deterministic dataset, execute a
// query, and print the result table and throughput.
//
// Examples:
//
//	go run ./cmd/nexmark -query 7           # Q7 over 5000 generated events
//	go run ./cmd/nexmark -query 2 -explain  # optimized plan only
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/nexmark"
	"repro/internal/types"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cliMain is the testable entry point: it parses args, runs the query, and
// returns the process exit code (0 ok, 1 run error, 2 flag error).
func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nexmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		queryID = fs.Int("query", 7, "NEXMark query number (0-8)")
		events  = fs.Int("events", 5000, "number of generated input events")
		seed    = fs.Int64("seed", 42, "generator seed")
		explain = fs.Bool("explain", false, "print the optimized plan, don't execute")
		rows    = fs.Int("rows", 10, "result rows to print (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *events < 1 {
		fmt.Fprintf(stderr, "nexmark: -events must be at least 1, got %d\n", *events)
		fs.Usage()
		return 2
	}
	if err := run(stdout, *queryID, *events, *seed, *explain, *rows); err != nil {
		fmt.Fprintln(stderr, "nexmark:", err)
		return 1
	}
	return 0
}

func run(out io.Writer, queryID, events int, seed int64, explain bool, maxRows int) error {
	q, err := nexmark.QueryByID(queryID)
	if err != nil {
		return err
	}
	g := nexmark.Generate(nexmark.GeneratorConfig{
		Seed: seed, NumEvents: events, MaxOutOfOrderness: 2 * types.Second,
	})
	var opts []core.Option
	if q.NeedsUnboundedGroupBy {
		opts = append(opts, core.WithUnboundedGroupBy())
	}
	e, err := nexmark.NewEngine(g, opts...)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Q%d: %s  (%d persons, %d auctions, %d bids)\n",
		q.ID, q.Name, g.NumPersons, g.NumAuctions, g.NumBids)

	if explain {
		plan, err := e.Explain(q.SQL)
		if err != nil {
			return err
		}
		fmt.Fprint(out, plan)
		return nil
	}

	start := time.Now()
	res, err := e.QueryTable(q.SQL, types.MaxTime)
	if err != nil {
		return err
	}
	d := time.Since(start)
	fmt.Fprintf(out, "executed in %s (%.0f events/s); state rows %d, late dropped %d\n", d.Round(time.Microsecond),
		float64(g.NumPersons+g.NumAuctions+g.NumBids)/d.Seconds(), res.Stats.StateRows, res.Stats.LateDropped)
	printRows(out, res, maxRows)
	return nil
}

func printRows(out io.Writer, res *core.TableResult, maxRows int) {
	rows := res.Rows
	truncated := 0
	if maxRows > 0 && len(rows) > maxRows {
		truncated = len(rows) - maxRows
		rows = rows[:maxRows]
	}
	fmt.Fprint(out, (&core.TableResult{Schema: res.Schema, Rows: rows}).Format())
	if truncated > 0 {
		fmt.Fprintf(out, "... and %d more rows\n", truncated)
	}
}
