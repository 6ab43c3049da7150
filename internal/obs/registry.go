// Package obs is the observability layer of the STA engine: a metrics
// registry (atomic counters and fixed-bucket histograms with
// snapshot/merge/JSON export, publishable on expvar) plus the structured
// Observer/span interface the sta layer emits per-Analyze events through.
//
// The package is dependency-free (standard library only) and designed so
// that an unused registry or a nil Observer costs nothing on the engine's
// hot paths: every instrument is an atomic word or two, resolution of a
// metric by name happens once per Analyze, and the sta layer never even
// reads the clock unless an observer or registry is attached.
//
// Determinism contract: metric names containing the segment "time/" hold
// wall-clock observations and are inherently non-reproducible; everything
// else (counters, iteration/region histograms) is required to be
// bit-for-bit identical for serial and parallel runs of the same analysis.
// Snapshot.Deterministic strips the timing subset so that guarantee can be
// asserted byte-for-byte (see Snapshot.JSON).
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a valid no-op instrument, so callers may
// hold optional counters without branching.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous-value instrument: unlike a Counter it may
// go down (queue depth, pooled analyzers, live cache bytes). The zero value
// is ready to use; a nil *Gauge is a valid no-op instrument.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative to decrease). No-op on a nil receiver.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic buckets. Bucket i
// counts observations v with bounds[i-1] < v <= bounds[i] (the first bucket
// has no lower bound); one extra overflow bucket counts v > bounds[last].
// Concurrent Observe calls are safe and lock-free.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomicFloat
	// exemplars holds the most recent exemplar label (a trace ID) observed
	// into each bucket, last-writer-wins. Allocated lazily by the first
	// ObserveExemplar so plain histograms pay nothing.
	exemplarMu sync.Mutex
	exemplars  []string
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. It panics on empty or non-increasing bounds — histogram shapes
// are static configuration, and a malformed shape is a programming error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First index with bounds[i] >= v: the "less-or-equal" bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveExemplar records one value and attaches an exemplar label
// (typically a trace ID) to the bucket it lands in, last-writer-wins. The
// label lets a latency outlier in a histogram be followed straight to the
// flight-recorded request that caused it. No-op label handling: an empty
// exemplar degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, exemplar string) {
	if h == nil {
		return
	}
	if exemplar == "" {
		h.Observe(v)
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.exemplarMu.Lock()
	if h.exemplars == nil {
		h.exemplars = make([]string, len(h.counts))
	}
	h.exemplars[i] = exemplar
	h.exemplarMu.Unlock()
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	b := make([]float64, len(h.bounds))
	copy(b, h.bounds)
	return b
}

// snapshot copies the histogram's current state.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.Bounds(),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	h.exemplarMu.Lock()
	if h.exemplars != nil {
		s.Exemplars = append([]string(nil), h.exemplars...)
	}
	h.exemplarMu.Unlock()
	return s
}

// atomicFloat is a CAS-loop float64 accumulator.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Registry is a collection of named counters, gauges and histograms under
// one RWMutex. Counter/Gauge/Histogram are get-or-create and safe for
// concurrent use; metric resolution happens once per Analyze (handles are
// then held directly) and the returned instruments are updated with atomics
// only, so the hot path never touches the registry lock.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// getOrCreate returns m[name], creating it with mk under the write lock on
// first use.
func getOrCreate[T any](r *Registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it on first use.
// A nil registry returns a nil (no-op) gauge. Gauge names share the
// namespace with counters and histograms but the three kinds never collide:
// the same name may not be used for two different instrument kinds (each
// kind has its own map, so reusing a name across kinds simply yields two
// series with the same name in the snapshot — don't).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// GaugeFunc registers a sampled gauge: fn is evaluated at every Snapshot and
// its value written under name, overriding any edge-updated Gauge of the
// same name. Edge-updated gauges go stale whenever a state transition
// bypasses the instrumented edge (a queue that fills and then sits idle); a
// sampled gauge reads the truth at snapshot time. fn must be safe for
// concurrent use and must not touch the registry (it runs outside the
// registry lock, but re-entrancy is a design smell). Re-registering a name
// replaces the function. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds on first use. Re-registering an existing histogram with
// different bounds panics: a name must mean one shape for Merge to be
// well defined. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h := getOrCreate(r, r.hists, name, func() *Histogram { return NewHistogram(bounds) })
	if !equalBounds(h.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	return h
}

// HistSnapshot is the frozen state of one histogram. Counts has one entry
// per bound plus a final overflow bucket.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	// Exemplars holds one trace-ID label per bucket (parallel to Counts),
	// present only when ObserveExemplar was ever used on the histogram —
	// plain histograms marshal exactly as before. Exemplars are inherently
	// run-dependent and are stripped from Deterministic snapshots.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Quantile estimates the q-quantile (q in [0, 1]) of the recorded
// distribution by linear interpolation within the bucket that contains the
// target rank — the same estimator Prometheus's histogram_quantile uses.
// The first bucket interpolates over (0, Bounds[0]] (observations are
// assumed non-negative, as every engine metric is); a rank landing in the
// overflow bucket returns the last finite bound, since the bucket has no
// upper edge to interpolate toward. An empty histogram returns NaN, and q
// outside [0, 1] is clamped.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, b := range h.Bounds {
		if i >= len(h.Counts) {
			break
		}
		n := h.Counts[i]
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(b-lo)
		}
		cum += n
	}
	// Target rank sits in the overflow bucket (> last bound): no upper edge,
	// report the best lower bound we have.
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a frozen copy of a registry: plain maps, safe to marshal,
// merge and diff. encoding/json sorts map keys, so two snapshots with equal
// contents marshal to byte-identical JSON — the property the engine's
// serial-vs-parallel determinism check is asserted on.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	// Gauges is omitted from the JSON when no gauge was ever registered, so
	// registries that use only counters and histograms (the STA engine)
	// marshal exactly as they did before gauges existed — the byte-identity
	// determinism checks are unaffected.
	Gauges map[string]int64 `json:"gauges,omitempty"`
}

// Snapshot freezes the registry's current state. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistSnapshot{}}
	if r == nil {
		return s
	}
	r.mu.RLock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		if s.Gauges == nil {
			s.Gauges = map[string]int64{}
		}
		s.Gauges[name] = g.Value()
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for name, fn := range r.gaugeFns {
		fns[name] = fn
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	r.mu.RUnlock()
	// Sampled gauges are evaluated outside the registry lock (a sampler is
	// allowed to take its own locks) and override same-name edge gauges:
	// the sampled value is the truth at snapshot time.
	for name, fn := range fns {
		if s.Gauges == nil {
			s.Gauges = map[string]int64{}
		}
		s.Gauges[name] = fn()
	}
	return s
}

// Merge adds other into s (counter sums, gauge sums, bucket-wise histogram
// sums). Histograms present in both must share bounds; a shape mismatch is
// reported as an error and leaves that histogram untouched. The receiver is
// a pointer only so a gauge map can be created lazily; the counter and
// histogram maps are mutated in place as before.
func (s *Snapshot) Merge(other Snapshot) error {
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	// Gauges sum across replicas: queue depths and cache sizes aggregate
	// meaningfully, and summing keeps Merge associative like the counters.
	for name, v := range other.Gauges {
		if s.Gauges == nil {
			s.Gauges = map[string]int64{}
		}
		s.Gauges[name] += v
	}
	var firstErr error
	for name, oh := range other.Histograms {
		h, ok := s.Histograms[name]
		if !ok {
			// Deep-copy so later merges cannot alias other's slices.
			cp := HistSnapshot{
				Bounds: append([]float64(nil), oh.Bounds...),
				Counts: append([]int64(nil), oh.Counts...),
				Count:  oh.Count,
				Sum:    oh.Sum,
			}
			s.Histograms[name] = cp
			continue
		}
		if !equalBounds(h.Bounds, oh.Bounds) {
			if firstErr == nil {
				firstErr = fmt.Errorf("obs: merge: histogram %q bounds differ", name)
			}
			continue
		}
		for i := range h.Counts {
			h.Counts[i] += oh.Counts[i]
		}
		h.Count += oh.Count
		h.Sum += oh.Sum
		s.Histograms[name] = h
	}
	return firstErr
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsTiming reports whether a metric name holds wall-clock observations —
// by convention any name containing the path segment "time/". Timing
// metrics are excluded from the determinism guarantee (two runs never see
// the same nanoseconds) and from Deterministic snapshots.
func IsTiming(name string) bool { return strings.Contains(name, "time/") }

// Filter returns a snapshot containing only the metrics keep accepts.
func (s Snapshot) Filter(keep func(name string) bool) Snapshot {
	out := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistSnapshot{}}
	for name, v := range s.Counters {
		if keep(name) {
			out.Counters[name] = v
		}
	}
	for name, h := range s.Histograms {
		if keep(name) {
			out.Histograms[name] = h
		}
	}
	for name, v := range s.Gauges {
		if keep(name) {
			if out.Gauges == nil {
				out.Gauges = map[string]int64{}
			}
			out.Gauges[name] = v
		}
	}
	return out
}

// Deterministic strips the timing metrics, leaving the subset that is
// required to be bit-for-bit identical across worker counts. Histogram
// exemplars (trace IDs — random per run) are stripped too.
func (s Snapshot) Deterministic() Snapshot {
	out := s.Filter(func(name string) bool { return !IsTiming(name) })
	for name, h := range out.Histograms {
		if h.Exemplars != nil {
			h.Exemplars = nil
			out.Histograms[name] = h
		}
	}
	return out
}

// JSON marshals the snapshot with sorted keys and stable indentation.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// publishMu serializes Publish calls: expvar.Publish panics on duplicate
// names, and expvar has no unpublish, so the guard has to live here.
var publishMu sync.Mutex

// Publish registers the registry on the process-wide expvar namespace under
// name; /debug/vars then serves live snapshots. It reports whether the
// registration took effect: expvar has no unpublish, so a name that is
// already taken (by an earlier Publish or any other expvar user) keeps its
// first registration and Publish returns false. It used to swallow that
// collision silently, which made a second registry published under the same
// name serve the FIRST registry's numbers with no indication anything was
// wrong — callers that care (the ops server, CLI tools wiring /debug/vars)
// must check the return and pick a distinct name.
func (r *Registry) Publish(name string) bool {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return true
}
