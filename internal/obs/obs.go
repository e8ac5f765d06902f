// Package obs is cobrad's dependency-free observability core: a metrics
// registry of counters, gauges and fixed-bucket histograms exposed in
// the Prometheus text exposition format (version 0.0.4), plus a lint
// checker for that format (lint.go) used by tests and the CI metrics
// smoke.
//
// The package exists so the scheduler, sweep trial loop, graph cache,
// engine result path and journal store can be instrumented without
// pulling a client library into the module. Design constraints:
//
//   - Observe-only: instruments are plain atomics on the side of the hot
//     path. Nothing in this package feeds back into scheduling or
//     results — a scrape reads state, it never changes it. Every
//     instrument method is nil-receiver safe, so library code paths that
//     run without a registry (batch.Campaign.Run outside cobrad) carry
//     nil instruments and pay a single predictable branch.
//   - Deterministic exposition: families render in registration order and
//     series within a family in sorted label order, so /metrics output is
//     stable across scrapes and directly diffable in tests.
//   - Fixed histogram buckets: bucket bounds are declared at registration
//     and never resize, so Observe is lock-free (binary search + two
//     atomic adds).
//
// Typical use:
//
//	reg := obs.NewRegistry()
//	trials := reg.Counter("cobrad_trials_executed_total", "Trials computed by this process.")
//	wait := reg.Histogram("cobrad_admission_wait_seconds", "Queue wait.", obs.ExpBuckets(0.001, 2, 14))
//	mux.Handle("/metrics", reg.Handler())
//	...
//	trials.Inc()
//	wait.Observe(time.Since(queued).Seconds())
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The nil Counter
// is a valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n < 0 is ignored: counters never go down).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down. The nil Gauge is a
// valid no-op instrument.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution metric: observation counts
// per bucket plus a running sum, exposed with cumulative bucket counts
// the way Prometheus expects. The nil Histogram is a valid no-op
// instrument.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds; +Inf implicit
	counts []atomic.Int64 // per-bucket (non-cumulative), len = len(bounds)+1
	sum    atomic.Uint64  // math.Float64bits of the running sum
	n      atomic.Int64   // total observations
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose bound >= v; the last slot is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on the nil
// Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values (0 on the nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous — the usual shape for latency
// histograms. start must be > 0 and factor > 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// kind is the exposition TYPE of a metric family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// series is one labeled instance within a family.
type series struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() int64
	gaugeFn   func() int64
}

// family is one named metric with its help text, type, and label schema.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string

	mu     sync.Mutex
	series map[string]*series // key: joined label values
	order  []string           // insertion order; sorted at exposition
}

// Registry holds metric families and renders them as Prometheus text
// exposition. Register instruments once at startup; all methods are safe
// for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnGather registers fn to run at the start of every exposition, before
// any family is rendered — the hook point for gauges computed from live
// state (queue depths by band, cache size) rather than event ticks.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabel(s string) bool {
	return validName(s) && !strings.Contains(s, ":")
}

// register creates a family, panicking on an invalid or duplicate name —
// registration happens once at startup, so a clash is a programming
// error, not a runtime condition.
func (r *Registry) register(name, help string, k kind, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, kind: k, labels: labels, series: make(map[string]*series)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// get returns (creating if needed) the series for the given label values.
func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelVals: append([]string(nil), vals...)}
	switch f.kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter registers and returns a new unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, nil).get(nil).counter
}

// Gauge registers and returns a new unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, nil).get(nil).gauge
}

// Histogram registers and returns a histogram with the given strictly
// increasing bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	f := r.register(name, help, kindHistogram, nil)
	s := f.get(nil)
	s.hist = &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
	}
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at every
// exposition — the bridge for pre-existing counters owned elsewhere
// (graph-cache hit counts). fn must be monotone and safe to call from
// any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(name, help, kindCounter, nil).get(nil).counterFn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at every
// exposition. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, help, kindGauge, nil).get(nil).gaugeFn = fn
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec %q needs at least one label", name))
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels)}
}

// With returns the counter for the given label values, creating it on
// first use. The nil CounterVec returns the nil (no-op) Counter.
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(vals).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec %q needs at least one label", name))
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels)}
}

// With returns the gauge for the given label values, creating it on
// first use. The nil GaugeVec returns the nil (no-op) Gauge.
func (v *GaugeVec) With(vals ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(vals).gauge
}

// WriteText renders the registry as Prometheus text exposition
// (version 0.0.4): families in registration order, series within a
// family sorted by label values, histogram buckets cumulative.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	fams := append([]*family{}, r.families...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	ser := make([]*series, len(keys))
	for i, k := range keys {
		ser[i] = f.series[k]
	}
	f.mu.Unlock()

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range ser {
		switch f.kind {
		case kindCounter:
			v := s.counter.Value()
			if s.counterFn != nil {
				v = s.counterFn()
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatInt(v))
		case kindGauge:
			v := s.gauge.Value()
			if s.gaugeFn != nil {
				v = s.gaugeFn()
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatInt(v))
		case kindHistogram:
			h := s.hist
			cum := int64(0)
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %s\n", f.name,
					labelString(f.labels, s.labelVals, "le", formatFloat(bound)), formatInt(cum))
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %s\n", f.name,
				labelString(f.labels, s.labelVals, "le", "+Inf"), formatInt(cum))
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), formatFloat(h.Sum()))
			fmt.Fprintf(b, "%s_count%s %s\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), formatInt(h.Count()))
		}
	}
}

// labelString renders {k="v",...}, appending the extra pair (the
// histogram "le" label) when extraKey is non-empty; "" for no labels.
func labelString(names, vals []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the exposition at GET.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
