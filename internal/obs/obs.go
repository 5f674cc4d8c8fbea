// Package obs is the engine's zero-dependency observability kit: a metrics
// registry of atomic counters, gauges, and fixed-bucket histograms with
// Prometheus text-format exposition, plus the commit-path tracer (trace.go).
//
// The design constraint is the hot path. The engine's batched ingest path is
// pinned at 0 allocs/op (exec's TestKeyedHotPathAllocFree), so every
// recording primitive here — Counter.Add, Gauge.Set, Histogram.Observe — is
// lock-free and allocation-free: an atomic add or two, plus a short linear
// scan over fixed bucket bounds for histograms. All the allocation (label
// rendering, family bookkeeping, sorting) happens once at registration or at
// scrape time, never per observation.
//
// Metric handles are nil-safe: calling Add/Set/Observe on a nil *Counter,
// *Gauge, or *Histogram is a no-op. Instrumented layers therefore hold plain
// possibly-nil fields and skip the "is observability enabled" branch at every
// call site; a layer built without a Registry records nothing at zero cost
// beyond a predictable nil check.
//
// Naming scheme: every family is prefixed with its owning layer — engine_,
// wal_, checkpoint_, live_, exec_, commit_ — counters end in _total,
// and duration histograms end in _seconds (integer nanoseconds against
// DurationBuckets, scaled by DurationScale at exposition). Variants are
// fixed-cardinality labels (kind=, stage=, reason=), never name suffixes;
// nothing is labelled per subscription or relation. The registry is made
// once, in cmd/serve, and threaded down: core.WithObs (engine families, the
// commit tracer), live.Options.Obs (live and exec families), wal.Options.Obs
// (WAL counters). Registration is idempotent per (name, labels) and happens
// at construction, so hot paths touch only handles registered in advance. A
// collect callback (GaugeFunc) must never take a lock a commit can hold
// across I/O, such as wal.Writer.mu or the live manager's ordering lock: WAL
// metrics are plain counters bumped at the instrument sites, and live gauges
// sample the manager's atomic session snapshot and heartbeat clock.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil receiver records nothing.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored — counters are
// monotone). Lock-free and allocation-free; safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable integer metric. The zero value is ready to use; a nil
// receiver records nothing.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram. Observations are int64 in whatever
// unit the caller chose at registration (the scale factor converts to the
// exposed unit at scrape time — durations observe nanoseconds and expose
// seconds with scale 1e-9). Observe is lock-free and allocation-free: a
// linear scan over the fixed bounds plus three atomic adds.
type Histogram struct {
	bounds []int64        // ascending upper bounds; +Inf bucket is implicit
	scale  float64        // exposition multiplier (1 = raw unit)
	counts []atomic.Int64 // len(bounds)+1; per-bucket, cumulated at scrape
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the elapsed nanoseconds since t0. Pair with
// DurationBuckets and scale 1e-9.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(t0)))
}

// DurationBuckets are the standard latency bounds, in nanoseconds: 50µs to
// 5s, roughly 1-2.5-5 per decade. Register duration histograms with these
// and scale 1e-9 so they expose Prometheus-conventional seconds.
var DurationBuckets = []int64{
	50_000, 100_000, 250_000, 500_000, // 50µs .. 500µs
	1_000_000, 2_500_000, 5_000_000, 10_000_000, // 1ms .. 10ms
	25_000_000, 50_000_000, 100_000_000, 250_000_000, // 25ms .. 250ms
	500_000_000, 1_000_000_000, 2_500_000_000, 5_000_000_000, // 500ms .. 5s
}

// DurationScale converts nanosecond observations to exposed seconds.
const DurationScale = 1e-9

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled sample within a family. Exactly one of the value
// sources is set.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	fn     func() float64 // GaugeFunc
	h      *Histogram
}

// family is one metric name: HELP/TYPE plus its label-distinguished series.
type family struct {
	name   string
	help   string
	typ    string
	series []*series
}

// Registry holds metric families and renders them in Prometheus text format.
// Registration takes a lock; the returned handles never do. The zero value
// is not usable — call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns alternating key/value pairs into a deterministic
// `{k="v",...}` string (sorted by key). Panics on an odd pair count — a
// registration-time programmer error, not a runtime condition.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: labels must be key/value pairs, got %d strings", len(labels)))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the family and returns the series for the given
// labels, creating it with mk when absent. Re-registering the same
// name+labels returns the existing series; a name registered under two
// different types panics (programmer error, caught by any test that touches
// the registry).
func (r *Registry) lookup(name, help, typ string, labels []string, mk func() *series) *series {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labels == ls {
			return s
		}
	}
	s := mk()
	s.labels = ls
	f.series = append(f.series, s)
	return s
}

// Counter registers (or returns the existing) counter under name with
// optional alternating label key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, typeCounter, labels, func() *series { return &series{c: &Counter{}} })
	return s.c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, typeGauge, labels, func() *series { return &series{g: &Gauge{}} })
	return s.g
}

// GaugeFunc registers a gauge sampled from fn at scrape time. fn must be
// safe to call from any goroutine and should not block.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.lookup(name, help, typeGauge, nil, func() *series { return &series{fn: fn} })
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// bounds are ascending upper bounds in the observation unit; scale converts
// observed values to the exposed unit at scrape time (use DurationBuckets
// and DurationScale for latencies).
func (r *Registry) Histogram(name, help string, scale float64, bounds []int64, labels ...string) *Histogram {
	s := r.lookup(name, help, typeHistogram, labels, func() *series {
		if scale == 0 {
			scale = 1
		}
		h := &Histogram{bounds: bounds, scale: scale, counts: make([]atomic.Int64, len(bounds)+1)}
		return &series{h: h}
	})
	return s.h
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with one HELP and TYPE
// line, series sorted by label string. Concurrent Observe/Add calls during a
// scrape are fine — each sample is an atomic load, so a scrape sees a
// near-point-in-time snapshot without stopping writers.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	// Snapshot the series slices so rendering (and user fn callbacks) run
	// outside the registry lock.
	sers := make([][]*series, len(fams))
	for i, f := range fams {
		ss := make([]*series, len(f.series))
		copy(ss, f.series)
		sort.Slice(ss, func(a, b int) bool { return ss[a].labels < ss[b].labels })
		sers[i] = ss
	}
	r.mu.Unlock()

	var b strings.Builder
	for i, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range sers[i] {
			switch {
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case s.fn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.fn()))
			case s.h != nil:
				writeHistogram(&b, f.name, s.labels, s.h)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines with
// le labels (merged into any existing labels), then _sum and _count.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(float64(h.bounds[i]) * h.scale)
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", le), cum)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(float64(h.sum.Load())*h.scale))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.count.Load())
}

// mergeLabel appends one k="v" pair to a rendered label string.
func mergeLabel(labels, k, v string) string {
	pair := k + `="` + escapeLabelValue(v) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Handler returns the HTTP handler serving the registry in Prometheus text
// format — what cmd/serve mounts at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
