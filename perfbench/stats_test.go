package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// Every p99 is taken over one window: the nearest-rank p99 of windowOps
	// samples must leave at least minTail of them beyond it.
	if beyond := windowOps - int(math.Ceil(0.99*windowOps)); beyond < minTail {
		t.Fatalf("a %d-op window has %d samples beyond its p99, want >= %d", windowOps, beyond, minTail)
	}

	// 999 samples: no window is full, so no p99 is reported.
	o := &outcome{}
	for i := 1; i <= 999; i++ {
		o.record(time.Duration(i)*time.Millisecond, time.Duration(i)*time.Millisecond, true)
	}
	if p99 := o.p99(); !math.IsNaN(p99) {
		t.Fatalf("p99 over 999 samples = %v, want NaN", p99)
	}
	// 1000 samples 1..1000 ms: nearest-rank p99 is the 990th, p50 the 500th.
	o.record(time.Second, time.Second, true)
	if p50, p99 := o.p50(), o.p99(); p50 != 500 || p99 != 990 {
		t.Fatalf("p50, p99 = %v, %v; want 500, 990", p50, p99)
	}
	if got := o.opsPerSec(); got != 1000 {
		t.Fatalf("opsPerSec = %v, want 1000 (1000 ops completed in 1 s)", got)
	}
}

func TestWindowMediansIgnoreABurst(t *testing.T) {
	// Five 1000-op windows at 1 ms per op; the third is a stall at 10 ms.
	o := &outcome{}
	var at time.Duration
	for w := 0; w < 5; w++ {
		lat := time.Millisecond
		if w == 2 {
			lat = 10 * time.Millisecond
		}
		for i := 0; i < windowOps; i++ {
			at += lat
			o.record(lat, at, true)
		}
	}
	if got := len(o.windows()); got != 5 {
		t.Fatalf("%d windows, want 5", got)
	}
	if got := o.p99(); got != 1 {
		t.Errorf("window-median p99 = %v ms, want 1", got)
	}
	if got := o.opsPerSec(); got != 1000 {
		t.Errorf("window-median ops/s = %v, want 1000", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	o := &outcome{}
	for i := 0; i < 990; i++ {
		o.record(time.Millisecond, time.Millisecond*time.Duration(i+1), true)
	}
	for i := 0; i < 10; i++ {
		o.record(time.Microsecond, time.Second, false) // fast failures must not look fast
	}
	if o.attempted != 1000 || o.failed != 10 {
		t.Fatalf("attempted, failed = %d, %d; want 1000, 10", o.attempted, o.failed)
	}
	if got := o.okPct(); got != 99 {
		t.Errorf("okPct = %v, want 99", got)
	}
	if got := o.failedPct(); got != 1 {
		t.Errorf("failedPct = %v, want 1", got)
	}
	if got := o.opsPerSec(); got != 990 {
		t.Errorf("opsPerSec = %v, want 990 (failed ops do not count)", got)
	}
	if got := o.p99(); got != 1 {
		t.Errorf("p99 with 10 failed ops in 1000 = %v, want 1 ms (10 samples beyond)", got)
	}
	// A failed op misses every latency limit: with 11 failures in 1000 the
	// p99 is one of them.
	o = &outcome{}
	for i := 0; i < 1000; i++ {
		o.record(time.Millisecond, time.Millisecond*time.Duration(i+1), i >= 11)
	}
	if p99 := o.p99(); !math.IsInf(p99, 1) {
		t.Errorf("p99 with 1.1 %% failed ops = %v, want +Inf", p99)
	}
}

func TestHeapTakenAtFixedOpCount(t *testing.T) {
	hp := newHeapProbe(1200, 1500)
	// A short phase that would stop at 1000 ops by the sample rule alone
	// must run on to the last heap mark, whichever client completes it.
	o := closedLoop(2, time.Millisecond, hp, func(int, int64) (time.Duration, bool) {
		return time.Microsecond, true
	})
	if o.attempted < 1500 {
		t.Fatalf("phase stopped after %d ops, before the last heap mark", o.attempted)
	}
	if len(o.heap) != 2 || len(o.heapMarks) != 2 || o.heapMarks[0] != 1200 || o.heapMarks[1] != 1500 {
		t.Fatalf("heap readings %v at marks %v, want two at 1200 and 1500", o.heap, o.heapMarks)
	}
	for i, h := range o.heap {
		if h == 0 {
			t.Errorf("heap reading %d is 0", i)
		}
	}
	if hp.at(1199) != 0 || hp.at(1501) != 0 {
		t.Error("heap probe fired away from its marks")
	}
}

func TestSetupIsMedianOfFive(t *testing.T) {
	durs := []time.Duration{9, 1, 5, 3, 7} // ms, out of order
	var (
		next     int
		torndown []int
	)
	st, got, err := timedSetups(setupRuns, func() (int, error) {
		d := durs[next]
		next++
		time.Sleep(d * time.Millisecond)
		return next, nil
	}, func(s int) { torndown = append(torndown, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || next != 5 {
		t.Fatalf("ran %d set-ups, timed %d; want 5 and 5", next, len(got))
	}
	if st != 5 || len(torndown) != 4 {
		t.Fatalf("kept state %d, tore down %v; want the last kept and the other four torn down", st, torndown)
	}
	s := append([]float64(nil), got...)
	sort.Float64s(s)
	if m := median(got); m != s[2] || m < 0.005 || m > 0.05 {
		t.Fatalf("median %v of %v; want the third smallest, about 5 ms", m, got)
	}
}

func TestNegativeSelfTimeFailsTheRun(t *testing.T) {
	ph := &outcome{heap: []uint64{1}}
	for i := 1; i <= windowOps; i++ {
		ph.record(time.Millisecond, time.Duration(i)*time.Millisecond, true)
	}
	for _, c := range []struct {
		engine   time.Duration
		wantFail bool
	}{{200 * time.Microsecond, false}, {-time.Microsecond, true}} {
		tr := newTracer()
		tr.addSelf(map[string]time.Duration{"qwm.evals": 800 * time.Microsecond, "sta.engine": c.engine})
		m := emptyLayers()
		note := commonLayers(m, ph, ph, tr, filepath.Join(t.TempDir(), "trace.json"))
		if (note != "") != c.wantFail {
			t.Errorf("sta.engine self time %v: note %q, want failure %v", c.engine, note, c.wantFail)
		}
		if !c.wantFail && m["trace.reconcile_pct"].Value != 0 {
			t.Errorf("self times summing to the median: reconcile %v %%, want 0", m["trace.reconcile_pct"].Value)
		}
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{5, 8}, {0, 3}, {2, 4}, {7, 10}, {12, 13}}
	if got := unionLen(ivs); got != 4+5+1 {
		t.Fatalf("unionLen = %d, want 10", got)
	}
}

// TestBenchmarkSpecMatches pins BENCHMARK.json to the metrics this program
// prints: the same end-to-end names and the same per-layer names and units.
func TestBenchmarkSpecMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&outcome{heap: []uint64{1}}, []float64{1})
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program prints %d", len(spec.PerLayer), len(layerUnits))
	}
	for _, m := range spec.PerLayer {
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s (%s): program unit %q", m.Name, m.Unit, u)
		}
	}
}
