package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is stamped into every result file, so that two files can be
// told apart by more than their numbers.
type environment struct {
	Commit           string  `json:"commit"`
	GoVersion        string  `json:"go_version"`
	NumCPU           int     `json:"nproc"`
	LoadgenProcs     int     `json:"gomaxprocs_loadgen"`
	ServerProcs      int     `json:"gomaxprocs_server"`
	Kernel           string  `json:"kernel"`
	DataDirFS        string  `json:"data_dir_fs"`
	LoadAverage1Min  float64 `json:"load_average_1min"`
	StartedAt        string  `json:"started_at"`
	NominalSeconds   float64 `json:"seconds"`
	PartitionScaling string  `json:"partition_scaling"`
}

func stampEnvironment(outDir string, seconds float64) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		LoadgenProcs: runtime.GOMAXPROCS(0), ServerProcs: serverProcs(),
		StartedAt: time.Now().UTC().Format(time.RFC3339), NominalSeconds: seconds,
		// Defaults only (-shards 0, no parts=): on two shared cores neither
		// partitions nor shards can show a gain, so none is measured.
		PartitionScaling: "unproven",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	var st syscall.Statfs_t
	if syscall.Statfs(outDir, &st) == nil {
		env.DataDirFS = fsName(int64(st.Type))
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			env.LoadAverage1Min, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return env
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", magic)
	}
}

// resultFile is what `run` writes and `compare` reads.
type resultFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

// cmdRun runs every workload, end to end and traced, at the run length
// BENCHMARK.json declares, for one or more seeds, and writes one result file.
func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "first input generator seed")
	count := fs.Int("count", 1, "number of consecutive seeds to run")
	out := fs.String("out", "", "result file (default benchmark/out/result-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	decl, err := readBenchmarkJSON(declarationFile)
	if err != nil {
		return err
	}
	cfg, err := prepare(ctx)
	if err != nil {
		return err
	}
	cfg.seconds = float64(decl.RunSeconds)
	file := resultFile{Env: stampEnvironment(cfg.outDir, cfg.seconds)}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.outDir, fmt.Sprintf("result-%d.json", *seed))
	}
	for i := 0; i < *count; i++ {
		for _, w := range workloads() {
			for _, traced := range []bool{false, true} {
				cfg.w, cfg.seed, cfg.trace = w, *seed+int64(i), traced
				cfg.cycles = defaultCycles(traced)
				res, err := runWorkload(ctx, cfg)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, cfg.seed, err)
				}
				printRun(res)
				file.Runs = append(file.Runs, res)
				// Rewritten after every run, so an interrupted set keeps
				// what it measured.
				if err := writeJSONFile(path, file); err != nil {
					return err
				}
			}
		}
	}
	fmt.Println("wrote", path)
	for _, r := range file.Runs {
		if !r.Correct {
			return fmt.Errorf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted)
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// benchmarkJSON is BENCHMARK.json at the checkout's root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// declarationFile is where the commands find BENCHMARK.json: the working
// directory is the checkout's root (run.sh changes to it).
const declarationFile = "BENCHMARK.json"

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// spread the driver computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// cmdCompare judges result file b against a by the bounds in
// BENCHMARK.json. Per (end-to-end metric, workload): the share by which b's
// median is worse than a's; a spread wider than the bound in either file is
// reported as unresolved, never as unchanged. Exact counts are compared for
// equality seed by seed. It fails on any breach — a regression, a differing
// exact count, a declared metric or workload a file lacks — and refuses
// files holding a generator-bound or failed run.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <a.json> <b.json>")
	}
	decl, err := readBenchmarkJSON(declarationFile)
	if err != nil {
		return err
	}
	var files [2]resultFile
	for i := range files {
		raw, err := os.ReadFile(args[i])
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", args[i], err)
		}
		for _, r := range files[i].Runs {
			if r.GeneratorBound {
				return fmt.Errorf("%s: %s seed %d is generator-bound (load generator CPU or lateness too high): its numbers measure the generator, not the server", args[i], r.Workload, r.Seed)
			}
			if !r.Correct {
				return fmt.Errorf("%s: %s seed %d failed verification (%d of %d operations)", args[i], r.Workload, r.Seed, r.Failed, r.Attempted)
			}
		}
	}
	breaches, unresolved := compareFiles(os.Stdout, decl, files[0], files[1])
	fmt.Printf("%d breach(es), %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return fmt.Errorf("%d breach(es)", breaches)
	}
	return nil
}

// values collects a metric's values from the runs of one mode and workload,
// keyed by seed (several runs of one seed keep every value).
func values(f resultFile, workload, metric string, traced bool) (all []float64, bySeed map[int64][]float64) {
	bySeed = map[int64][]float64{}
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		all = append(all, v)
		bySeed[r.Seed] = append(bySeed[r.Seed], v)
	}
	return all, bySeed
}

// spread is the quartile spread of an end-to-end metric on one workload in
// one file: across the file's runs when it holds several, across the one
// run's cycles when it holds one (single cycles scatter more than runs'
// medians do, so this errs towards unresolved). ok is false when the file
// has neither.
func spread(f resultFile, workload, metric string) (s float64, ok bool) {
	var runs []*runResult
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			runs = append(runs, r)
		}
	}
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		xs = append(xs, r.Metrics[metric])
	}
	if len(runs) == 1 {
		xs = runs[0].PerCycle[metric]
	}
	return quartileSpread(xs), len(xs) >= 2
}

func compareFiles(w io.Writer, decl *benchmarkJSON, a, b resultFile) (breaches, unresolved int) {
	fmt.Fprintf(w, "%-18s %-38s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "worse", "spread", "bound", "verdict")
	for _, wl := range decl.Workloads {
		for _, d := range decl.EndToEnd {
			va, _ := values(a, wl.Name, d.Name, false)
			vb, _ := values(b, wl.Name, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-38s in %d run(s) of a, %d of b  MISSING\n", wl.Name, d.Name, len(va), len(vb))
				breaches++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, oka := spread(a, wl.Name, d.Name)
			sb, okb := spread(b, wl.Name, d.Name)
			bound := 0.0
			if d.Bound != nil {
				bound = *d.Bound
			}
			verdict := "within bound"
			switch {
			case !oka || !okb:
				verdict = "unresolved (no spread: one run without per-cycle values)"
				unresolved++
			case max(sa, sb) > bound:
				verdict = "unresolved (spread wider than bound)"
				unresolved++
			case worse > bound:
				verdict = "REGRESSION"
				breaches++
			case -worse > bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-18s %-38s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, d.Name, ma, mb, 100*worse, 100*max(sa, sb), 100*bound, verdict)
		}
		for _, d := range decl.PerLayer {
			def, _ := metricByName(d.Name)
			// Per-layer metrics are emitted by traced runs; the end-to-end
			// runs carry the client- and server-sourced ones too.
			va, sa := values(a, wl.Name, d.Name, true)
			vb, sb := values(b, wl.Name, d.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue // most layers report on some workloads only
			}
			if !def.exact {
				ma, mb := median(va), median(vb)
				if ma != 0 {
					fmt.Fprintf(w, "%-18s %-38s %14.6g %14.6g %+8.1f%%\n", wl.Name, d.Name, ma, mb, 100*(mb-ma)/ma)
				}
				continue
			}
			for seed, xs := range sa {
				ys, ok := sb[seed]
				if !ok {
					continue
				}
				for _, y := range append(append([]float64(nil), xs[1:]...), ys...) {
					if y != xs[0] {
						fmt.Fprintf(w, "%-18s %-38s seed %d: exact count differs: %v vs %v  MISMATCH\n", wl.Name, d.Name, seed, xs[0], y)
						breaches++
						break
					}
				}
			}
		}
	}
	return breaches, unresolved
}
