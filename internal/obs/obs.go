// Package obs is the observability backbone of mmfs: a stdlib-only
// metrics registry (counters, gauges, fixed-bucket histograms) plus a
// ring-buffer trace of storage-manager service rounds. The paper's
// continuity guarantees (Eqs. 15–18) are only as good as our ability
// to *see* each service round — per-round disk busy time, admission
// accept/reject decisions, cache interval adoptions, and any
// continuity violations — so every layer (msm, disk, cache, server)
// reports through one Registry that the wire METRICS op, the mmfsd
// -metrics-addr HTTP listener, and the benchmark harness all snapshot.
//
// All metric types are safe for concurrent use: the simulation layers
// mutate them under the server's lock while HTTP scrapes read them
// concurrently. Counters and gauges are single atomics; histograms use
// one atomic per bucket (observations are monotonic, so a scrape may
// see a bucket mid-update but never a torn value).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default histogram bounds, in seconds, for
// simulated-disk access times: the model's reads span ~2 ms (minimum
// seek) to ~40 ms (worst-case seek + rotation + transfer), so the
// bounds bracket that range with headroom for multi-block transfers.
var LatencyBuckets = []float64{
	0.001, 0.002, 0.005, 0.010, 0.015, 0.020, 0.030, 0.050, 0.075, 0.100,
}

// Counter is a monotonically increasing uint64 metric. Like every
// handle in this package a nil one is inert — its updates are no-ops —
// so a subsystem that was never wired to a registry publishes through
// the same statements as one that was.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Adding zero writes nothing: a per-round delta is usually
// zero, and a branch is cheaper than an atomic add.
func (c *Counter) Add(n uint64) {
	if c != nil && n != 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value. It stores only a value that differs from the
// current one: publishers set their gauges every round, and a gauge
// rarely moves, so the usual Set is a load.
func (g *Gauge) Set(v int64) {
	if g != nil && g.v.Load() != v {
		g.v.Store(v)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds d, which may be negative.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets chosen at
// registration. Buckets are cumulative in snapshots (Prometheus
// convention): bucket i counts observations ≤ Uppers[i], and an
// implicit +Inf bucket equals Count.
type Histogram struct {
	uppers []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative) counts
	inf    atomic.Uint64   // observations above the last upper bound
	sum    atomic.Uint64   // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first upper bound ≥ v.
	i := sort.SearchFloat64s(h.uppers, v)
	if i < len(h.uppers) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	//lint:ignore boundedwork CAS retry: each iteration either lands the swap or another writer made progress
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Timer measures host (wall-clock) time for a histogram: the cost of
// work the virtual clock does not charge, such as a metadata Sync. It
// is how simulation-driven packages, which must stay off the wall clock
// (see the simclock analyzer), report real elapsed time — the reading
// goes into a histogram and nowhere else.
type Timer struct{ start time.Time }

// StartTimer starts a timer.
func StartTimer() Timer { return Timer{start: time.Now()} }

// ObserveInto records the seconds since the timer started.
func (t Timer) ObserveInto(h *Histogram) { h.Observe(time.Since(t.start).Seconds()) }

// Uppers returns the configured bucket upper bounds.
func (h *Histogram) Uppers() []float64 { return append([]float64(nil), h.uppers...) }

// Count is the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n + h.inf.Load()
}

// Sum is the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts, total count, and sum.
func (h *Histogram) snapshot() ([]uint64, uint64, float64) {
	cum := make([]uint64, len(h.uppers))
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
		cum[i] = n
	}
	n += h.inf.Load()
	return cum, n, h.Sum()
}

// Registry holds named metrics. Names follow the Prometheus data
// model and may carry an inline label set, e.g.
// `mmfs_requests_total{op="Play"}`; the registry treats the full
// string as the series identity and groups series by base name when
// rendering exposition TYPE/HELP lines. A nil registry hands out nil,
// inert, handles: wiring a subsystem to nil leaves it unobserved.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (uppers must be sorted ascending;
// later calls may pass nil to fetch the existing histogram).
func (r *Registry) Histogram(name string, uppers []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		if !sort.Float64sAreSorted(uppers) {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending: %v", name, uppers))
		}
		h = &Histogram{
			uppers: append([]float64(nil), uppers...),
			counts: make([]atomic.Uint64, len(uppers)),
		}
		r.histograms[name] = h
	}
	return h
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram in a snapshot. Buckets are
// cumulative: Buckets[i] counts observations ≤ Uppers[i].
type HistogramValue struct {
	Name    string    `json:"name"`
	Uppers  []float64 `json:"uppers"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of every registered metric, sorted
// by name. It is the payload of the wire METRICS op and the JSON the
// benchmark harness embeds.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Counter finds a counter's value in the snapshot (0, false if absent).
func (s Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge finds a gauge's value in the snapshot (0, false if absent).
func (s Snapshot) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// sortedKeys returns m's keys in ascending order, so the caller can
// index the map deterministically instead of ranging over it.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot copies every metric. Each family is walked in sorted key
// order, so two snapshots of the same state are identical element for
// element and the /metrics rendering is byte-stable.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, name := range sortedKeys(r.counters) {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.histograms) {
		h := r.histograms[name]
		cum, n, sum := h.snapshot()
		s.Histograms = append(s.Histograms, HistogramValue{
			Name: name, Uppers: h.Uppers(), Buckets: cum, Count: n, Sum: sum,
		})
	}
	return s
}

// baseName strips an inline label set from a series name.
func baseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// labels returns the inline label set of a series name including the
// braces, or "".
func labels(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[i:]
	}
	return ""
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4). Series sharing a base name emit
// one TYPE line.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastType := ""
	emitType := func(base, typ string) error {
		if base == lastType {
			return nil
		}
		lastType = base
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
		return err
	}
	for _, c := range s.Counters {
		if err := emitType(baseName(c.Name), "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := emitType(baseName(g.Name), "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		base := baseName(h.Name)
		if err := emitType(base, "histogram"); err != nil {
			return err
		}
		lbl := labels(h.Name)
		for i, ub := range h.Uppers {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", base+"_bucket", mergeLabel(lbl, fmt.Sprintf("le=%q", formatUpper(ub))), h.Buckets[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", base+"_bucket", mergeLabel(lbl, `le="+Inf"`), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %g\n", base+"_sum", lbl, h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", base+"_count", lbl, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// formatUpper renders a bucket bound the way Prometheus clients do.
func formatUpper(v float64) string { return fmt.Sprintf("%g", v) }

// mergeLabel splices an extra label pair into an existing inline label
// set ("" → {pair}).
func mergeLabel(lbl, pair string) string {
	if lbl == "" {
		return "{" + pair + "}"
	}
	return strings.TrimSuffix(lbl, "}") + "," + pair + "}"
}
