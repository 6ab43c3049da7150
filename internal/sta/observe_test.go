package sta

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"qwm/internal/obs"
	"qwm/internal/stages"
)

// collectObserver is a concurrency-safe Observer that records every event.
// StageEval may be called from multiple workers; the mutex makes the
// collected slice safe, and tests sort it by (Level, Item) as the Observer
// contract prescribes.
type collectObserver struct {
	mu     sync.Mutex
	starts []obs.AnalyzeStartInfo
	levels []obs.LevelStartInfo
	evals  []obs.StageEvalInfo
	ends   []obs.AnalyzeEndInfo
}

func (c *collectObserver) AnalyzeStart(i obs.AnalyzeStartInfo) {
	c.mu.Lock()
	c.starts = append(c.starts, i)
	c.mu.Unlock()
}

func (c *collectObserver) LevelStart(i obs.LevelStartInfo) {
	c.mu.Lock()
	c.levels = append(c.levels, i)
	c.mu.Unlock()
}

func (c *collectObserver) StageEval(i obs.StageEvalInfo) {
	c.mu.Lock()
	c.evals = append(c.evals, i)
	c.mu.Unlock()
}

func (c *collectObserver) AnalyzeEnd(i obs.AnalyzeEndInfo) {
	c.mu.Lock()
	c.ends = append(c.ends, i)
	c.mu.Unlock()
}

// sortedEvals returns the StageEval events in the deterministic (Level,
// Item) order the Observer documentation tells consumers to use.
func (c *collectObserver) sortedEvals() []obs.StageEvalInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]obs.StageEvalInfo(nil), c.evals...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Level != out[j].Level {
			return out[i].Level < out[j].Level
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// decoderRequest builds the 3-bit decoder request with staggered primary
// arrivals and slews, so the slew-bucketed cache keys and worst-input
// selection are genuinely exercised: the fixture of the observability,
// determinism and ladder tests.
func decoderRequest(t testing.TB) Request {
	t.Helper()
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	primary := map[string]Arrival{}
	for i, in := range ins {
		primary[in] = Arrival{
			Rise: float64(i) * 17e-12, Fall: float64(i) * 13e-12,
			RiseSlew: 20e-12 + float64(i)*7e-12, FallSlew: 15e-12 + float64(i)*5e-12,
		}
	}
	return Request{Netlist: nl, Primary: primary, Outputs: outs}
}

// TestObserverEventOrdering pins the span contract: AnalyzeStart first,
// LevelStart per level in order, one StageEval per work item, AnalyzeEnd
// last — and, after the documented (Level, Item) sort, the parallel run's
// eval stream is identical (outputs, directions, hit/miss pattern, solver
// stats) to the serial run's.
func TestObserverEventOrdering(t *testing.T) {
	run := func(workers int) *collectObserver {
		a := New(tech, lib, Config{Workers: workers})
		c := &collectObserver{}
		req := decoderRequest(t)
		req.Observer = c
		if _, err := a.AnalyzeContext(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		return c
	}

	serial := run(1)
	if len(serial.starts) != 1 || len(serial.ends) != 1 {
		t.Fatalf("serial run: %d AnalyzeStart, %d AnalyzeEnd events, want 1 and 1",
			len(serial.starts), len(serial.ends))
	}
	start := serial.starts[0]
	// 19 stages (3 inverters + 8 NANDs + 8 drivers), one output each, two
	// directions: 38 items across 3 levels.
	if start.Stages != 19 || start.Items != 38 || start.Levels != 3 {
		t.Errorf("AnalyzeStart = %+v, want 19 stages / 38 items / 3 levels", start)
	}
	if got := len(serial.levels); got != start.Levels {
		t.Fatalf("%d LevelStart events, want %d", got, start.Levels)
	}
	itemSum := 0
	for li, lv := range serial.levels {
		if lv.Level != li {
			t.Errorf("LevelStart[%d].Level = %d, want in-order delivery", li, lv.Level)
		}
		itemSum += lv.Items
	}
	if itemSum != start.Items || len(serial.evals) != start.Items {
		t.Errorf("level items sum %d, evals %d, want both = %d", itemSum, len(serial.evals), start.Items)
	}
	end := serial.ends[0]
	if end.Err != nil || end.Cancelled {
		t.Errorf("AnalyzeEnd reports err=%v cancelled=%v on a clean run", end.Err, end.Cancelled)
	}
	if end.CacheHits+end.CacheMisses != int64(start.Items) {
		t.Errorf("hits %d + misses %d != items %d", end.CacheHits, end.CacheMisses, start.Items)
	}
	if end.StagesEvaluated != int(end.CacheMisses) {
		t.Errorf("StagesEvaluated %d != misses %d on a fresh analyzer", end.StagesEvaluated, end.CacheMisses)
	}

	// The serial stream must already be in (Level, Item) order.
	se := serial.sortedEvals()
	for i := range se {
		if se[i] != serial.evals[i] {
			t.Fatalf("serial StageEval stream not in (Level, Item) order at %d", i)
		}
	}

	par := run(runtime.GOMAXPROCS(0))
	pe := par.sortedEvals()
	if len(pe) != len(se) {
		t.Fatalf("parallel run delivered %d StageEval events, serial %d", len(pe), len(se))
	}
	// The serial run must attribute every item to worker slot 0.
	for i := range se {
		if se[i].Worker != 0 {
			t.Errorf("serial event %d ran on worker %d, want 0", i, se[i].Worker)
		}
		if se[i].CacheHit || se[i].Tier != "qwm" {
			continue // clean decoder run: all misses at the QWM tier checked below
		}
	}
	for i := range se {
		a, b := se[i], pe[i]
		// Duration is wall clock and Worker is the pool slot — both are
		// schedule-dependent; everything else must match exactly (Tier
		// included: the ladder rung is a property of the cached entry).
		a.Duration, b.Duration = 0, 0
		a.Worker, b.Worker = 0, 0
		if a != b {
			t.Errorf("event %d differs after sort:\n serial  %+v\n parallel %+v", i, a, b)
		}
	}

	// A warm re-run at Workers = 4 finds every key finished, so every item
	// resolves on the calling goroutine: one hit event per item, each on
	// worker slot 0, in (Level, Item) order.
	a := New(tech, lib, Config{Workers: 4})
	req := decoderRequest(t)
	if _, err := a.AnalyzeContext(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	warm := &collectObserver{}
	req.Observer = warm
	if _, err := a.AnalyzeContext(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if len(warm.evals) != start.Items {
		t.Fatalf("warm run delivered %d StageEval events, want %d", len(warm.evals), start.Items)
	}
	we := warm.sortedEvals()
	for i, ev := range warm.evals {
		if !ev.CacheHit || ev.Worker != 0 || ev != we[i] {
			t.Errorf("warm event %d = %+v: want an in-order cache hit on worker 0", i, ev)
		}
	}
}

// TestMetricsDeterminism is the acceptance gate: the deterministic portion
// of the metrics snapshot (everything outside "sta/time/") is byte-for-byte
// identical between Workers = 1 and Workers = 8 on the same input.
func TestMetricsDeterminism(t *testing.T) {
	snap := func(workers int) []byte {
		reg := obs.NewRegistry()
		a := New(tech, lib, Config{Workers: workers, Metrics: reg})
		if _, err := a.AnalyzeContext(context.Background(), decoderRequest(t)); err != nil {
			t.Fatal(err)
		}
		js, err := reg.Snapshot().Deterministic().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	serial := snap(1)
	parallel := snap(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("deterministic metric snapshots differ between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	// Sanity: the deterministic snapshot actually carries the solver
	// histograms, and no timing series leaked through the filter.
	full := func() obs.Snapshot {
		reg := obs.NewRegistry()
		a := New(tech, lib, Config{Metrics: reg})
		if _, err := a.AnalyzeContext(context.Background(), decoderRequest(t)); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}()
	det := full.Deterministic()
	for _, h := range []string{hNRItersPerEval, hRegionsPerEval} {
		if hs, ok := det.Histograms[h]; !ok || hs.Count == 0 {
			t.Errorf("deterministic snapshot missing observations in %q", h)
		}
	}
	for _, h := range []string{hEvalSeconds, hLevelSeconds, hAnalyzeSeconds} {
		if _, ok := full.Histograms[h]; !ok {
			t.Errorf("full snapshot missing timing histogram %q", h)
		}
		if _, ok := det.Histograms[h]; ok {
			t.Errorf("timing histogram %q leaked into Deterministic()", h)
		}
	}
	if full.Counters[mAnalyzes] != 1 || full.Counters[mCacheMisses] != 38 {
		t.Errorf("counters %v: want %s=1, %s=38", full.Counters, mAnalyzes, mCacheMisses)
	}
}

// TestCancelledContextLeavesCacheUsable is the regression test for the
// single-flight stranding bug: an Analyze handed an already-cancelled
// context must return ctx.Err() without installing pending cache entries,
// and cancellation mid-run must leave every installed entry completed — a
// later Analyze on the same Analyzer must succeed (re-evaluating, not
// deadlocking on a never-closed ready channel).
func TestCancelledContextLeavesCacheUsable(t *testing.T) {
	a, reg := metered(Config{Workers: 4})
	req := decoderRequest(t)

	// Already-cancelled context: no cache activity at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.AnalyzeContext(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled analyze returned %v, want context.Canceled", err)
	}
	if misses, n := count(reg, mCacheMisses), a.cache.entries(); misses != 0 || n != 0 {
		t.Fatalf("pre-cancelled analyze touched the cache: %d misses, %d entries", misses, n)
	}

	// Cancel mid-run, from inside the observer, at the start of level 1:
	// level 0's entries are installed and MUST be completed.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	req.Observer = obs.Funcs{OnLevelStart: func(i obs.LevelStartInfo) {
		if i.Level == 1 {
			cancel2()
		}
	}}
	if _, err := a.AnalyzeContext(ctx2, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel returned %v, want context.Canceled", err)
	}
	partial := count(reg, mCacheMisses)
	if a.cache.entries() == 0 {
		t.Fatal("mid-run cancel left no cache entries; expected level 0 to complete")
	}

	// The same analyzer must now complete normally. A stranded pending entry
	// would deadlock here, so run with a timeout guard.
	req.Observer = nil
	done := make(chan error, 1)
	go func() {
		_, err := a.AnalyzeContext(context.Background(), req)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-cancel analyze failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("post-cancel analyze deadlocked (stranded single-flight entry?)")
	}
	if misses := count(reg, mCacheMisses); misses <= partial {
		t.Errorf("post-cancel analyze added no misses (%d -> %d); expected the abandoned levels to evaluate",
			partial, misses)
	}
}

// TestCancelMidAnalyzeNoGoroutineLeak cancels a running parallel analysis
// and checks the worker goroutines are all joined: the goroutine count
// settles back to its pre-Analyze baseline.
func TestCancelMidAnalyzeNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		a := New(tech, lib, Config{Workers: 8})
		req := decoderRequest(t)
		ctx, cancel := context.WithCancel(context.Background())
		req.Observer = obs.Funcs{OnLevelStart: func(info obs.LevelStartInfo) {
			if info.Level == 1 {
				cancel()
			}
		}}
		if _, err := a.AnalyzeContext(ctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: got %v, want context.Canceled", i, err)
		}
		cancel()
	}
	// Let any stragglers exit, then compare against the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnalyzeEndReportsCancel checks the AnalyzeEnd span on an aborted run:
// Err is the context error and Cancelled is set.
func TestAnalyzeEndReportsCancel(t *testing.T) {
	a := New(tech, lib)
	var ends []obs.AnalyzeEndInfo
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := decoderRequest(t)
	req.Observer = obs.Funcs{
		OnLevelStart: func(i obs.LevelStartInfo) {
			if i.Level == 1 {
				cancel()
			}
		},
		OnAnalyzeEnd: func(i obs.AnalyzeEndInfo) { ends = append(ends, i) },
	}
	if _, err := a.AnalyzeContext(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if len(ends) != 1 {
		t.Fatalf("%d AnalyzeEnd events, want exactly 1", len(ends))
	}
	end := ends[0]
	if !end.Cancelled || !errors.Is(end.Err, context.Canceled) {
		t.Errorf("AnalyzeEnd = %+v, want Cancelled with context.Canceled", end)
	}
}

// TestDiagnosticsString pins the folded Diagnostics rendering and the
// deprecated promoted selectors on Result.
func TestDiagnosticsString(t *testing.T) {
	cases := []struct {
		d    Diagnostics
		want string
	}{
		{Diagnostics{}, "0 eval errors, 0 slew fallbacks"},
		{Diagnostics{EvalErrors: 1, SlewFallbacks: 2}, "1 eval error, 2 slew fallbacks"},
		{
			Diagnostics{
				EvalErrors: 2, SlewFallbacks: 1,
				EvalErrorDetail: map[string]string{"x~fall": "diverged", "out~rise": "no path"},
			},
			"2 eval errors, 1 slew fallback [out~rise: no path; x~fall: diverged]",
		},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Diagnostics%+v.String() = %q, want %q", c.d, got, c.want)
		}
	}
	if !(Diagnostics{}).Healthy() || (Diagnostics{SlewFallbacks: 1}).Healthy() {
		t.Error("Healthy() wrong on zero / fallback diagnostics")
	}
	// Promoted (deprecated) selectors still work through the embedding.
	var r Result
	r.Diagnostics.EvalErrors = 3
	if r.EvalErrors != 3 {
		t.Error("Result.EvalErrors no longer promoted from Diagnostics")
	}
}

// BenchmarkAnalyzeObserved measures the observability overhead on a warm
// cache: the same decoder analysis bare, with a no-op observer, and with a
// metrics registry attached.
func BenchmarkAnalyzeObserved(b *testing.B) {
	bench := func(b *testing.B, observer obs.Observer, metrics *obs.Registry) {
		a := New(tech, lib, Config{Metrics: metrics})
		req := decoderRequest(b)
		req.Observer = observer
		ctx := context.Background()
		if _, err := a.AnalyzeContext(ctx, req); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.AnalyzeContext(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { bench(b, nil, nil) })
	b.Run("nop-observer", func(b *testing.B) { bench(b, obs.Nop{}, nil) })
	b.Run("metrics", func(b *testing.B) { bench(b, nil, obs.NewRegistry()) })
	b.Run("both", func(b *testing.B) { bench(b, obs.Nop{}, obs.NewRegistry()) })
}
