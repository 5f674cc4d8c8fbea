// Command benchmark is the repository's benchmark: a load harness that
// builds cmd/serve, runs it as a separate process and drives it over a real
// TCP listener, one workload per run. See README.md.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh run [-seed n] [-count k] [-out file]
//	bash benchmark/run.sh compare <a.json> <b.json>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "run":
		err = cmdRun(ctx, os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = cmdCompare(os.Args[2:])
	default:
		err = cmdOne(ctx, os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// prepare creates the output directory and builds the server. The working
// directory is the checkout's root (run.sh changes to it).
func prepare(ctx context.Context) (runConfig, error) {
	if _, err := os.Stat(filepath.Join("cmd", "serve")); err != nil {
		return runConfig{}, fmt.Errorf("the working directory is not the checkout's root (no cmd/serve): use benchmark/run.sh")
	}
	outDir, err := filepath.Abs(filepath.Join("benchmark", "out"))
	if err != nil {
		return runConfig{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return runConfig{}, err
	}
	bin, buildTime, err := buildServer(ctx, ".", outDir)
	if err != nil {
		return runConfig{}, err
	}
	return runConfig{outDir: outDir, bin: bin, buildS: buildTime.Seconds()}, nil
}

// cmdOne is the driver's entry: one workload, one seed, one JSON object as
// the last line of standard output. With -trace 0 it reports the end-to-end
// metrics, with -trace 1 the per-layer ones.
func cmdOne(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 10, "nominal length of the timed phases; fixes the input size")
	trace := fs.Int("trace", 0, "1 adds the in-process traced passes and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg, err := prepare(ctx)
	if err != nil {
		return err
	}
	cfg.w, cfg.seed, cfg.seconds, cfg.trace = w, *seed, *seconds, *trace != 0
	cfg.cycles = defaultCycles(cfg.trace)
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	group := endToEnd
	if cfg.trace {
		group = perLayer
	}
	printRun(res)
	return json.NewEncoder(os.Stdout).Encode(driverLine(res, group))
}

// printRun lists every metric of the run by name with its unit, then the
// verification outcome.
func printRun(res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v\n", res.Workload, res.Seed, res.Trace)
	for _, n := range names {
		fmt.Printf("%-44s %14.6g %s\n", n, res.Metrics[n], unitOf(n))
	}
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("verify: correct=%v attempted=%d failed=%d generator_bound=%v hash=%s\n",
		res.Correct, res.Attempted, res.Failed, res.GeneratorBound, res.Hash)
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the object the driver reads: exactly the declared metrics
// of the group.
func driverLine(res *runResult, group metricGroup) map[string]any {
	ms := map[string]driverMetric{}
	for _, d := range metricDefs {
		if d.group == group {
			ms[d.name] = driverMetric{res.Metrics[d.name], d.unit}
		}
	}
	return map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": ms,
	}
}
