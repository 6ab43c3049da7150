package sta

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"qwm/internal/faultinject"
	"qwm/internal/obs"
)

// runTraced runs the decoder fixture on a fresh analyzer with a metrics
// registry attached and a request trace on the context — the path every
// engine trace takes — returning the metrics registry, the finished trace
// and the result.
func runTraced(t *testing.T, workers int) (*obs.Registry, *obs.RequestTrace, *Result) {
	t.Helper()
	reg := obs.NewRegistry()
	rt, res := traceAnalysis(t, New(tech, lib, Config{Workers: workers, Metrics: reg}), decoderRequest(t))
	return reg, rt, res
}

// traceAnalysis runs req on a with a fresh request trace on the context,
// parented under the span "sta", and returns the finished trace and the
// result.
func traceAnalysis(t *testing.T, a *Analyzer, req Request) (*obs.RequestTrace, *Result) {
	t.Helper()
	at := obs.NewActiveTrace("")
	ctx := obs.ContextWithTrace(context.Background(), obs.TraceRef{T: at, Parent: "sta", Level: obs.LevelWorker})
	res, err := a.AnalyzeContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return at.Finish("sta", 0, time.Since(at.Start)), res
}

// TestTraceDecoderSmoke records a full decoder analysis and validates the
// exported Chrome trace end to end: valid JSON in the object format, one
// analyze span, one span per level, one eval span per work item carrying
// the cache outcome, tier and solver statistics, balanced (non-negative,
// bounded) durations, evals nested inside the analysis, and evals spread
// over more than one worker lane.
func TestTraceDecoderSmoke(t *testing.T) {
	_, rt, _ := runTraced(t, 4)
	b, err := rt.ChromeJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if parsed.Metadata["recorder"] == nil {
		t.Error("trace metadata missing recorder")
	}

	var analyze, level, eval, meta int
	var aStart, aEnd float64
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			continue
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("unbalanced X event %q (dur %v)", ev.Name, ev.Dur)
			}
		default:
			t.Fatalf("unexpected phase %q on %q", ev.Ph, ev.Name)
		}
		switch {
		case ev.Name == "analyze":
			analyze++
			aStart, aEnd = ev.TS, ev.TS+*ev.Dur
		case strings.HasPrefix(ev.Name, "level "):
			level++
		default:
			eval++
		}
	}
	// Decoder fixture: 19 stages / 38 items over 3 levels.
	if analyze != 1 || level != 3 || eval != 38 {
		t.Fatalf("span counts analyze=%d level=%d eval=%d, want 1/3/38", analyze, level, eval)
	}
	if meta < 2 { // process_name + >=1 worker lane
		t.Fatalf("metadata events = %d, want >= 2", meta)
	}
	// Lanes are a scheduling outcome: with one P a single worker goroutine
	// may drain a whole level before the others run, and on a loaded machine
	// so may one of several. The check therefore asks that one of a bounded
	// number of fresh traced analyses spreads its evals over two lanes.
	if runtime.GOMAXPROCS(0) > 1 {
		tids := evalLanes(t, rt)
		for try := 1; len(tids) < 2 && try < 20; try++ {
			_, rt, _ := runTraced(t, 4)
			tids = evalLanes(t, rt)
		}
		if len(tids) < 2 {
			t.Errorf("eval spans on tids %v in 20 analyses, want more than one worker lane at Workers 4", tids)
		}
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" || ev.Tid == 0 {
			continue
		}
		if ev.TS < aStart-1e-6 || ev.TS+*ev.Dur > aEnd+1e-6 {
			t.Errorf("eval %q [%g,%g] outside analyze [%g,%g]", ev.Name, ev.TS, ev.TS+*ev.Dur, aStart, aEnd)
		}
		if ev.Args["tier"] == nil {
			t.Errorf("eval %q missing tier arg", ev.Name)
		}
		if c := ev.Args["cache"]; c != "hit" && c != "miss" {
			t.Errorf("eval %q cache arg = %v", ev.Name, c)
		}
		for _, k := range []string{"nr_iters", "regions", "dense_fallbacks", "cap_resolves"} {
			if _, ok := ev.Args[k].(float64); !ok {
				t.Errorf("eval %q missing solver arg %s: %v", ev.Name, k, ev.Args)
			}
		}
	}
}

// TestEngineSpanTree checks the span tree the engine writes on real decoder
// analyses, serial and parallel (see checkSpanTree).
func TestEngineSpanTree(t *testing.T) {
	t.Run("workers 1", func(t *testing.T) { checkSpanTree(t, 1) })
	t.Run("workers 4", func(t *testing.T) { checkSpanTree(t, 4) })
}

// checkSpanTree traces the decoder twice at the given Workers setting, with
// an observer attached: cold on a fresh analyzer, then on a second fresh
// analyzer whose only tier holds the cold run's entries, edited so that
// every entry's slew fell back and one fall direction failed. Each run's
// analyze, level, eval and tier-probe spans must carry their semantic IDs
// and parents; the analyze span the result's cache, error and fallback
// counts and no Workers setting; and each eval span its item's observed
// cache outcome, tier, solver statistics and error, on the lane of the
// worker that resolved it.
func checkSpanTree(t *testing.T, workers int) {
	store := newMapTierStore()
	check := func(name string, a *Analyzer) *Result {
		c := &collectObserver{}
		req := decoderRequest(t)
		req.Observer = c
		rt, res := traceAnalysis(t, a, req)
		byID := map[string]obs.ReqSpan{}
		for _, s := range rt.Spans() {
			if _, dup := byID[s.ID]; dup {
				t.Errorf("%s: span ID %s recorded twice", name, s.ID)
			}
			byID[s.ID] = s
		}
		an, ok := byID["sta.analyze"]
		if !ok || an.Parent != "sta" || an.Level != obs.LevelAnalyze || an.Thread != 0 {
			t.Fatalf("%s: analyze span %+v (present %v), want parent sta on lane 0", name, an, ok)
		}
		var hits int64
		for _, ev := range c.evals {
			if ev.CacheHit {
				hits++
			}
		}
		for k, want := range map[string]any{
			"cache_hits": hits, "cache_misses": int64(len(c.evals)) - hits,
			"stages_evaluated": int64(res.StagesEvaluated), "eval_errors": int64(res.EvalErrors),
			"slew_fallbacks": int64(res.SlewFallbacks), "levels": int64(3), "items": int64(38),
		} {
			if got := an.Attrs.Get(k); got != want {
				t.Errorf("%s: analyze span %s = %v, want %v", name, k, got, want)
			}
		}
		if an.Attrs.Get("workers") != nil {
			t.Errorf("%s: analyze span carries the schedule-dependent Workers setting", name)
		}
		for l := 0; l < 3; l++ {
			id := "sta.analyze.L" + strconv.Itoa(l)
			if s, ok := byID[id]; !ok || s.Parent != "sta.analyze" || s.Level != l || s.Item != -1 || s.Thread != 0 {
				t.Errorf("%s: level span %s = %+v (present %v)", name, id, s, ok)
			}
			// A fresh analyzer reads every level's keys from its one tier.
			probe := id + ".t0-map"
			if s, ok := byID[probe]; !ok || s.Parent != id || s.Name != "tier map" {
				t.Errorf("%s: tier probe %s = %+v (present %v), want it under %s", name, probe, s, ok, id)
			}
		}
		for _, ev := range c.evals {
			levelID := "sta.analyze.L" + strconv.Itoa(ev.Level)
			id := levelID + ".e" + strconv.Itoa(ev.Item)
			s, ok := byID[id]
			if !ok {
				t.Errorf("%s: no eval span %s", name, id)
				continue
			}
			if s.Parent != levelID || s.Level != ev.Level || s.Item != ev.Item || s.Name != ev.Output+"~"+ev.Direction {
				t.Errorf("%s: eval span %s = %+v", name, id, s)
			}
			if s.Thread != ev.Worker+1 {
				t.Errorf("%s: eval span %s on lane %d, resolved by worker %d", name, id, s.Thread, ev.Worker)
			}
			cache := "miss"
			if ev.CacheHit {
				cache = "hit"
			}
			want := map[string]any{
				"cache": cache, "nr_iters": int64(ev.QWM.NRIters), "regions": int64(ev.QWM.Regions),
				"dense_fallbacks": int64(ev.QWM.DenseFallbacks), "cap_resolves": int64(ev.QWM.CapResolves),
			}
			if ev.Tier != "" {
				want["tier"] = ev.Tier
			}
			if ev.Err != "" {
				want["err"] = ev.Err
			}
			if len(s.Attrs) != len(want)+2 { // plus output and dir
				t.Errorf("%s: eval span %s attrs %v, want %v", name, id, s.Attrs, want)
			}
			for k, w := range want {
				if got := s.Attrs.Get(k); got != w {
					t.Errorf("%s: eval span %s %s = %v, want %v", name, id, k, got, w)
				}
			}
		}
		return res
	}

	cold := check("cold", New(tech, lib, Config{Workers: workers, Tiers: []TierStore{store}}))
	if cold.EvalErrors != 0 || cold.SlewFallbacks != 0 || cold.StagesEvaluated == 0 {
		t.Fatalf("cold decoder run: %d eval errors, %d slew fallbacks, %d evaluated", cold.EvalErrors, cold.SlewFallbacks, cold.StagesEvaluated)
	}
	// Edit the stored entries: every slew fell back, and the fall direction
	// with the lowest key failed.
	keys := make([]Key, 0, len(store.m))
	for k := range store.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })
	failed := false
	for _, k := range keys {
		e := store.m[k]
		e.SlewFellBack = true
		if !failed && k[nsByte]&nsRise == 0 {
			e = TierEntry{ErrMsg: "injected failure", SlewFellBack: true}
			failed = true
		}
		store.m[k] = e
	}
	edited := check("edited tier", New(tech, lib, Config{Workers: workers, Tiers: []TierStore{store}}))
	if edited.EvalErrors == 0 || edited.SlewFallbacks == 0 {
		t.Errorf("edited-tier run: %d eval errors, %d slew fallbacks; want both from the tier", edited.EvalErrors, edited.SlewFallbacks)
	}
}

// TestTraceLevelSpansMatchLevelSeconds pins a level's one timed interval,
// from the start of its gather phase to the end of its apply phase. A traced
// analysis with a metrics registry runs cold and then warm, at Workers 1 and
// 4: its level spans' durations must sum to its increase in the
// sta/time/level_seconds sum (within 1 µs a level, as both come from the
// same two clock reads), the level spans must come in level order without
// overlapping, and every eval and tier-probe span of a level must lie inside
// that level's span.
func TestTraceLevelSpansMatchLevelSeconds(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		a := New(tech, lib, Config{Workers: workers, Metrics: reg, Tiers: []TierStore{newMapTierStore()}})
		for _, run := range []string{"cold", "warm"} {
			name := run + " Workers " + strconv.Itoa(workers)
			before := reg.Snapshot().Histograms[MetricLevelSeconds].Sum
			rt, _ := traceAnalysis(t, a, decoderRequest(t))
			metric := reg.Snapshot().Histograms[MetricLevelSeconds].Sum - before

			spans := rt.Spans()
			var levels []obs.ReqSpan
			var sum time.Duration
			for _, s := range spans {
				if strings.HasPrefix(s.Name, "level ") {
					levels = append(levels, s)
					sum += s.Dur
				}
			}
			if len(levels) != 3 {
				t.Fatalf("%s: %d level spans, want 3", name, len(levels))
			}
			if d := math.Abs(sum.Seconds() - metric); d > 1e-6*float64(len(levels)) {
				t.Errorf("%s: level spans sum to %v, level_seconds grew by %v", name, sum, time.Duration(metric*1e9))
			}
			sort.Slice(levels, func(i, j int) bool { return levels[i].Start.Before(levels[j].Start) })
			for k, l := range levels {
				if l.Level != k {
					t.Errorf("%s: level %d's span starts in position %d", name, l.Level, k)
				}
				if k > 0 && l.Start.Before(levels[k-1].Start.Add(levels[k-1].Dur)) {
					t.Errorf("%s: level %d's span starts before level %d's ends", name, k, k-1)
				}
			}
			for _, s := range spans {
				if s.Level < 0 || s.Item < 0 && !strings.HasPrefix(s.Name, "tier ") {
					continue // analyze and level spans
				}
				l := levels[s.Level]
				if s.Start.Before(l.Start) || s.Start.Add(s.Dur).After(l.Start.Add(l.Dur)) {
					t.Errorf("%s: span %s [%v, +%v] outside level %d's [%v, +%v]", name, s.ID,
						s.Start.Sub(rt.Start), s.Dur, s.Level, l.Start.Sub(rt.Start), l.Dur)
				}
			}
		}
	}
}

// evalLanes returns the thread IDs that a trace's eval spans sit on.
func evalLanes(t *testing.T, rt *obs.RequestTrace) map[int]bool {
	t.Helper()
	b, err := rt.ChromeJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatal(err)
	}
	tids := map[int]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" && ev.Name != "analyze" && !strings.HasPrefix(ev.Name, "level ") {
			tids[ev.Tid] = true
		}
	}
	return tids
}

// TestTraceDeterministicWorkersByteIdentical pins the acceptance criterion:
// the deterministic trace of the same request is byte-identical at Workers 1
// and Workers 8.
func TestTraceDeterministicWorkersByteIdentical(t *testing.T) {
	_, rt1, _ := runTraced(t, 1)
	_, rt8, _ := runTraced(t, 8)
	b1, err := rt1.ChromeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := rt8.ChromeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		d1, d8 := firstDiffLine(b1, b8)
		t.Fatalf("deterministic traces differ between Workers 1 and 8:\nworkers=1: %s\nworkers=8: %s", d1, d8)
	}
	// Sanity: the wall-clock variants are allowed to differ, but both must
	// stay valid JSON.
	for _, rt := range []*obs.RequestTrace{rt1, rt8} {
		b, err := rt.ChromeJSON(false)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Fatal("wall-clock trace is not valid JSON")
		}
	}
}

func firstDiffLine(a, b []byte) (string, string) {
	la := strings.Split(string(a), "\n")
	lb := strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return la[i], lb[i]
		}
	}
	return "<prefix>", "<prefix>"
}

// TestOpsServerIntegration exercises the full ops surface over real HTTP
// against a live analyzer: Prometheus metrics with engine counters, the
// flight-recorded trace, pprof, expvar-free health — and the healthz flip to
// 503 when the analysis degraded under injected faults.
func TestOpsServerIntegration(t *testing.T) {
	reg, rt, res := runTraced(t, 2)
	fl := obs.NewFlightRecorder()
	defer fl.Close()
	fl.Record(rt)

	srv := &obs.Server{
		Registry: reg,
		Flight:   fl,
		Health: func() (bool, string) {
			if res.Diagnostics.Healthy() {
				return true, "ok"
			}
			return false, res.Diagnostics.String()
		},
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := fetch("/metrics"); code != 200 ||
		!strings.Contains(body, "sta_analyzes 1") ||
		!strings.Contains(body, `sta_nr_iters_per_eval_bucket{le="+Inf"}`) {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, body := fetch("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := fetch("/trace"); code != 200 || !strings.Contains(body, `"traceEvents"`) ||
		!strings.Contains(body, rt.TraceID) {
		t.Fatalf("/trace: %d", code)
	}
	if code, _ := fetch("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}

	// Degrade: kill every QWM Newton solve so the ladder escalates and the
	// diagnostics report degradation; health must flip to 503 with detail.
	inj := faultinject.New(3).Enable(faultinject.NRDivergence, 1)
	fa := New(tech, lib, Config{FaultPlan: inj})
	fres, err := fa.AnalyzeContext(context.Background(), decoderRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if fres.Degraded == 0 || fres.Diagnostics.Healthy() {
		t.Fatalf("fault injection did not degrade the run: %+v", fres.Diagnostics)
	}
	res = fres // the Health closure reads the updated result

	code, body := fetch("/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after degradation: %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "degraded") {
		t.Fatalf("degraded healthz body lacks detail: %q", body)
	}
}
