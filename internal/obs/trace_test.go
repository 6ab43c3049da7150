package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// feedAnalysis drives one synthetic Analyze span stream through a trace
// bridge into a fresh trace: 2 levels with 2 evals each, delivered in the
// given eval order with the given worker ids. The deterministic identity
// (Level, Item) and every cached-entry property are fixed; only
// schedule-dependent content (durations, delivery order, worker ids) varies
// between invocations. Each level waits out its evals' durations first, so
// the reconstructed eval starts fall inside the level, as they do when the
// engine measures them.
func feedAnalysis(order []int, workers []int, durScale time.Duration) *ActiveTrace {
	at := NewActiveTrace("")
	b := NewTraceBridge(TraceRef{T: at, Parent: "sta", Level: LevelWorker})
	b.AnalyzeStart(AnalyzeStartInfo{Stages: 2, Levels: 2, Items: 4, Outputs: 1, Workers: len(workers)})
	evals := []StageEvalInfo{
		{Level: 0, Item: 0, Output: "n1", Direction: "fall", QWM: QWMStats{Regions: 5, NRIters: 40}, Tier: "qwm"},
		{Level: 0, Item: 1, Output: "n1", Direction: "rise", CacheHit: true, QWM: QWMStats{Regions: 5, NRIters: 40}, Tier: "qwm"},
		{Level: 1, Item: 0, Output: "out", Direction: "fall", QWM: QWMStats{Regions: 7, NRIters: 61, DenseFallbacks: 1}, Tier: "qwm-bisect"},
		{Level: 1, Item: 1, Output: "out", Direction: "rise", Err: "no conducting path"},
	}
	for level := 0; level < 2; level++ {
		b.LevelStart(LevelStartInfo{Level: level, Levels: 2, Stages: 1, Items: 2})
		time.Sleep(time.Duration(len(order)) * durScale)
		for _, i := range order {
			e := evals[2*level+i]
			e.Duration = time.Duration(i+1) * durScale
			e.Worker = workers[i%len(workers)]
			b.StageEval(e)
		}
	}
	b.AnalyzeEnd(AnalyzeEndInfo{
		Duration: 4 * durScale, CacheHits: 1, CacheMisses: 3, HitRatio: 0.25,
		StagesEvaluated: 3, EvalErrors: 1,
	})
	return at
}

// parseChrome decodes an exported Chrome trace object.
func parseChrome(t *testing.T, b []byte) []TraceEvent {
	t.Helper()
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	return doc.TraceEvents
}

// TestTraceBridgeWallClock checks the wall-clock export of a bridged
// analysis: span counts, analyze and eval args, one Perfetto lane per
// worker slot, and balanced spans nested inside the analysis.
func TestTraceBridgeWallClock(t *testing.T) {
	at := feedAnalysis([]int{0, 1}, []int{0, 3}, time.Microsecond)
	b, err := at.Finish("sta", 0, time.Since(at.Start)).ChromeJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	events := parseChrome(t, b)
	var analyze, levels, evals int
	lanes := map[string]bool{}
	evalTids := map[int]bool{}
	for _, ev := range events {
		switch {
		case ev.Ph == "M":
			if ev.Name == "thread_name" {
				lanes[ev.Args["name"].(string)] = true
			}
		case ev.Name == "analyze":
			analyze++
			if ev.Args["cache_hits"] != float64(1) || ev.Args["eval_errors"] != float64(1) ||
				ev.Args["slew_fallbacks"] != float64(0) {
				t.Errorf("analyze end args wrong: %v", ev.Args)
			}
		case strings.HasPrefix(ev.Name, "level "):
			levels++
			if ev.Tid != 0 {
				t.Errorf("level span on tid %d, want 0", ev.Tid)
			}
		default:
			evals++
			evalTids[ev.Tid] = true
			for _, k := range []string{"cache", "nr_iters", "regions", "dense_fallbacks", "cap_resolves"} {
				if _, ok := ev.Args[k]; !ok {
					t.Errorf("eval span %q lacks %s: %v", ev.Name, k, ev.Args)
				}
			}
		}
	}
	if analyze != 1 || levels != 2 || evals != 4 {
		t.Fatalf("span counts analyze=%d levels=%d evals=%d, want 1/2/4", analyze, levels, evals)
	}
	if !evalTids[1] || !evalTids[4] || len(evalTids) != 2 {
		t.Errorf("eval tids %v, want worker lanes 1 and 4", evalTids)
	}
	if !lanes["worker 0"] || !lanes["worker 3"] {
		t.Errorf("worker lanes not named: %v", lanes)
	}

	// Every X event must be self-balanced, and eval spans must nest inside
	// their analysis span.
	var aStart, aEnd float64
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur == nil || *ev.Dur < 0 {
			t.Fatalf("X event %q without non-negative dur", ev.Name)
		}
		if ev.Name == "analyze" {
			aStart, aEnd = ev.TS, ev.TS+*ev.Dur
		}
	}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Tid > 0 && (ev.TS < aStart-1e-9 || ev.TS+*ev.Dur > aEnd+1e-9) {
			t.Errorf("eval span [%g,%g] outside analyze span [%g,%g]",
				ev.TS, ev.TS+*ev.Dur, aStart, aEnd)
		}
	}
}

// TestTraceDeterministicByteIdentical pins the determinism contract at the
// bridge: the same logical analysis observed under different schedules —
// shuffled delivery order, different worker ids, different durations —
// exports byte-identical deterministic JSON with every span on lane 0.
func TestTraceDeterministicByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ref []byte
	for trial := 0; trial < 8; trial++ {
		order := []int{0, 1}
		if trial%2 == 1 {
			order = []int{1, 0}
		}
		workers := []int{rng.Intn(8), rng.Intn(8)}
		at := feedAnalysis(order, workers, time.Duration(1+rng.Intn(900))*time.Microsecond)
		b, err := at.Finish("sta", 0, time.Since(at.Start)).ChromeJSON(true)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("deterministic trace differs at trial %d:\n%s\n--- vs ---\n%s", trial, ref, b)
		}
	}

	for _, ev := range parseChrome(t, ref) {
		if ev.Tid != 0 {
			t.Errorf("deterministic event %q on tid %d, want 0", ev.Name, ev.Tid)
		}
		if ev.Name == "thread_name" {
			t.Error("deterministic export names worker lanes")
		}
		if _, ok := ev.Args["workers"]; ok {
			t.Errorf("deterministic event %q leaks the Workers setting", ev.Name)
		}
	}
}

// TestTraceIncompleteAnalysis: a trace frozen mid-analysis exports the
// spans completed so far, balanced; the open analyze and level spans appear
// only in a trace frozen after AnalyzeEnd, and the earlier freeze is left
// as it was.
func TestTraceIncompleteAnalysis(t *testing.T) {
	at := NewActiveTrace("")
	b := NewTraceBridge(TraceRef{T: at, Parent: "sta"})
	b.AnalyzeStart(AnalyzeStartInfo{Stages: 1, Levels: 1, Items: 2, Workers: 1})
	b.LevelStart(LevelStartInfo{Level: 0, Levels: 1, Stages: 1, Items: 2})
	b.StageEval(StageEvalInfo{Level: 0, Item: 0, Output: "out", Direction: "fall"})
	partial := at.Finish("sta", 0, time.Since(at.Start))

	count := func(rt *RequestTrace, det bool) (analyze, evals int) {
		b, err := rt.ChromeJSON(det)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range parseChrome(t, b) {
			if ev.Ph != "X" {
				continue
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("det=%v: unbalanced X event %q", det, ev.Name)
			}
			switch {
			case ev.Name == "analyze":
				analyze++
			case !strings.HasPrefix(ev.Name, "level "):
				evals++
			}
		}
		return analyze, evals
	}
	for _, det := range []bool{false, true} {
		if a, e := count(partial, det); a != 0 || e != 1 {
			t.Errorf("det=%v: mid-analysis trace has %d analyze / %d eval spans, want 0/1", det, a, e)
		}
	}

	b.AnalyzeEnd(AnalyzeEndInfo{})
	if a, e := count(at.Finish("sta", 0, time.Since(at.Start)), false); a != 1 || e != 1 {
		t.Errorf("completed trace has %d analyze / %d eval spans, want 1/1", a, e)
	}
	if partial.NumSpans() != 1 || len(partial.Spans()) != 1 {
		t.Errorf("spans added after Finish leaked into the frozen trace: %d spans", len(partial.Spans()))
	}
}
