package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile; a p99 therefore needs at least 1000 samples.
const minTail = 10

// minSamples is the smallest sample count for which p99 has minTail samples
// beyond it. Every timed phase runs at least this many ops.
const minSamples = 1000

// setupRuns is how many fresh set-ups a run times; setup_s is their median.
const setupRuns = 5

// quantile returns the q-quantile of sorted by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := max(int(math.Ceil(q*float64(len(sorted)))), 1)
	return sorted[rank-1]
}

// median returns the median of xs (the mean of the middle pair for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// outcome is the accounting of one timed phase. Every attempted op either
// succeeds with a latency or fails; a failed op counts as missing every
// latency limit, so it enters the latency samples as +Inf.
type outcome struct {
	samples   []sample // in completion order once the phase has ended
	attempted int64
	failed    int64
	wall      time.Duration // phase wall time, heap-probe pauses excluded
	heap      []uint64      // live heap bytes at each heap probe
	heapMarks []int64       // the op counts the heap readings were taken at
}

// sample is one op: when it completed (phase time, pauses excluded) and its
// latency in ms.
type sample struct {
	at time.Duration
	ms float64
}

// record adds one op that completed at phase time at.
func (o *outcome) record(lat, at time.Duration, ok bool) {
	o.attempted++
	ms := float64(lat) / float64(time.Millisecond)
	if !ok {
		o.failed++
		ms = math.Inf(1)
	}
	o.samples = append(o.samples, sample{at: at, ms: ms})
}

// merge adds p's ops and keeps the samples in completion order.
func (o *outcome) merge(p *outcome) {
	o.samples = append(o.samples, p.samples...)
	sort.SliceStable(o.samples, func(i, j int) bool { return o.samples[i].at < o.samples[j].at })
	o.attempted += p.attempted
	o.failed += p.failed
}

// okPct is the share of attempted ops that succeeded, in percent.
func (o *outcome) okPct() float64 {
	if o.attempted == 0 {
		return 0
	}
	return 100 * float64(o.attempted-o.failed) / float64(o.attempted)
}

func (o *outcome) failedPct() float64 {
	if o.attempted == 0 {
		return 100
	}
	return 100 * float64(o.failed) / float64(o.attempted)
}

// latencies returns every sample's latency in ms, sorted.
func (o *outcome) latencies() []float64 {
	s := make([]float64, len(o.samples))
	for i, x := range o.samples {
		s[i] = x.ms
	}
	sort.Float64s(s)
	return s
}

// p50 is the nearest-rank median latency over the whole phase, in ms.
func (o *outcome) p50() float64 { return quantile(o.latencies(), 0.50) }

// window is one run of windowOps consecutive completed ops.
type window struct {
	p99  float64 // ms; minTail samples lie beyond it
	rate float64 // successful ops per second
}

// windowOps is the window length: the fewest samples whose p99 still has
// minTail samples beyond it.
const windowOps = minSamples

// windows splits the phase into consecutive windowOps-op windows in
// completion order; a trailing partial window is dropped. Reporting the
// median over windows keeps a burst of machine noise in one part of a run
// from moving the run's figure.
func (o *outcome) windows() []window {
	var out []window
	var prev time.Duration
	for lo := 0; lo+windowOps <= len(o.samples); lo += windowOps {
		ws := o.samples[lo : lo+windowOps]
		lat := make([]float64, len(ws))
		ok := 0
		for i, x := range ws {
			lat[i] = x.ms
			if !math.IsInf(x.ms, 1) {
				ok++
			}
		}
		sort.Float64s(lat)
		end := ws[len(ws)-1].at
		w := window{p99: quantile(lat, 0.99)}
		if d := end - prev; d > 0 {
			w.rate = float64(ok) / d.Seconds()
		}
		prev = end
		out = append(out, w)
	}
	return out
}

// p99 is the median over windows of each window's p99, in ms; NaN when the
// phase has no full window.
func (o *outcome) p99() float64 {
	var xs []float64
	for _, w := range o.windows() {
		xs = append(xs, w.p99)
	}
	return median(xs)
}

// opsPerSec is the median over windows of each window's successful ops per
// second; 0 when the phase has no full window.
func (o *outcome) opsPerSec() float64 {
	var xs []float64
	for _, w := range o.windows() {
		xs = append(xs, w.rate)
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// heapProbe reads the live heap once each of a fixed list of op counts has
// completed — never at the end of a time-bounded phase, so a faster program
// is not charged for the extra work it finished. The caller whose op
// completed count n calls at(n); the GC pause is returned so the phase can
// exclude it from its wall time.
type heapProbe struct {
	mu    sync.Mutex
	marks []int64
	got   []uint64
}

func newHeapProbe(marks ...int64) *heapProbe {
	return &heapProbe{marks: marks, got: make([]uint64, len(marks))}
}

// at reads the heap if n is one of the probe's marks.
func (h *heapProbe) at(n int64) time.Duration {
	for i, m := range h.marks {
		if m != n {
			continue
		}
		start := time.Now()
		// Twice: the first GC only moves sync.Pool contents to the victim
		// cache, which still counts as live.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.mu.Lock()
		h.got[i] = ms.HeapAlloc
		h.mu.Unlock()
		return time.Since(start)
	}
	return 0
}

// last is the highest mark: a phase runs at least this many ops.
func (h *heapProbe) last() int64 {
	var m int64
	for _, x := range h.marks {
		m = max(m, x)
	}
	return m
}

// readings returns the heap bytes per mark.
func (h *heapProbe) readings() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.got...)
}

// closedLoop runs op from `clients` goroutines, each sending its next op
// only after the previous one returned, until at least d has passed and at
// least minSamples ops and the last heap mark have completed. op reports
// its own latency, so work it does outside the measured interval (input
// generation, checks) is excluded; it returns ok=false for a failed op.
func closedLoop(clients int, d time.Duration, hp *heapProbe, op func(client int, i int64) (time.Duration, bool)) *outcome {
	var (
		mu     sync.Mutex
		done   int64
		paused time.Duration
	)
	minOps := max(minSamples, hp.last())
	parts := make([]*outcome, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		parts[c] = &outcome{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := parts[c]
			for i := int64(0); ; i++ {
				lat, ok := op(c, i)
				mu.Lock()
				done++
				n := done
				at := time.Since(start) - paused
				mu.Unlock()
				o.record(lat, at, ok)
				if p := hp.at(n); p > 0 {
					mu.Lock()
					paused += p
					mu.Unlock()
				}
				if n >= minOps && time.Since(start) >= d {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	out := &outcome{}
	for _, p := range parts {
		out.merge(p)
	}
	out.wall = time.Since(start) - paused
	out.heap = hp.readings()
	out.heapMarks = hp.marks
	return out
}

// timedSetups performs n fresh set-ups, timing each, and keeps the last one:
// every earlier state is torn down. setup_s is the median of the returned
// durations (seconds).
func timedSetups[T any](n int, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var (
		st   T
		durs []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(st)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		durs = append(durs, time.Since(start).Seconds())
		st = s
	}
	return st, durs, nil
}
