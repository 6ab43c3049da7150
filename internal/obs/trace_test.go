package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// analysisSpans returns the spans of one synthetic two-level analysis under
// the span "sta", as an engine writes them: an analyze span, two level spans
// and two eval spans per level. The deterministic identity (ID, parent,
// Level, Item) and every attribute are fixed; the eval spans' threads come
// from threads and every start and duration is a multiple of durScale, so
// only schedule-dependent content varies between calls. Each eval lies
// inside its level and each level inside the analysis.
func analysisSpans(start time.Time, threads []int, durScale time.Duration) []ReqSpan {
	at := func(ticks int) time.Time { return start.Add(time.Duration(ticks) * durScale) }
	spans := []ReqSpan{{
		ID: "sta.analyze", Parent: "sta", Name: "analyze", Level: LevelAnalyze,
		Start: at(0), Dur: 10 * durScale,
		Attrs: Attrs{Int("stages", 2), Int("levels", 2), Int("items", 4), Int("outputs", 1),
			Int64("cache_hits", 1), Int64("cache_misses", 3), Int("stages_evaluated", 3),
			Int("eval_errors", 1), Int("slew_fallbacks", 0)},
	}}
	evals := [][]Attr{
		{Str("output", "n1"), Str("dir", "fall"), Str("cache", "miss"), Int("nr_iters", 40), Int("regions", 5),
			Int("dense_fallbacks", 0), Int("cap_resolves", 0), Str("tier", "qwm")},
		{Str("output", "n1"), Str("dir", "rise"), Str("cache", "hit"), Int("nr_iters", 40), Int("regions", 5),
			Int("dense_fallbacks", 0), Int("cap_resolves", 0), Str("tier", "qwm")},
		{Str("output", "out"), Str("dir", "fall"), Str("cache", "miss"), Int("nr_iters", 61), Int("regions", 7),
			Int("dense_fallbacks", 1), Int("cap_resolves", 0), Str("tier", "spice")},
		{Str("output", "out"), Str("dir", "rise"), Str("cache", "miss"), Int("nr_iters", 0), Int("regions", 0),
			Int("dense_fallbacks", 0), Int("cap_resolves", 0), Str("err", "no conducting path")},
	}
	for level := 0; level < 2; level++ {
		lvl := strconv.Itoa(level)
		levelID := "sta.analyze.L" + lvl
		spans = append(spans, ReqSpan{
			ID: levelID, Parent: "sta.analyze", Name: "level " + lvl, Level: level, Item: -1,
			Start: at(5 * level), Dur: 5 * durScale,
			Attrs: Attrs{Int("level", level), Int("stages", 1), Int("items", 2)},
		})
		for item := 0; item < 2; item++ {
			a := evals[2*level+item]
			spans = append(spans, ReqSpan{
				ID: levelID + ".e" + strconv.Itoa(item), Parent: levelID,
				Name:  a[0].Value().(string) + "~" + a[1].Value().(string),
				Level: level, Item: item,
				Start: at(5*level + 1 + 2*item), Dur: time.Duration(item+1) * durScale,
				Thread: threads[item%len(threads)] + 1,
				Attrs:  a,
			})
		}
	}
	return spans
}

// feedAnalysis adds analysisSpans to a fresh trace in the given order (a
// permutation of the span indices), as concurrent workers deliver them.
func feedAnalysis(order []int, threads []int, durScale time.Duration) *ActiveTrace {
	at := NewActiveTrace("")
	spans := analysisSpans(at.Start, threads, durScale)
	for _, i := range order {
		at.Add(spans[i])
	}
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

// TestTraceWallClockExport checks the wall-clock export of an analysis's
// spans: span counts, analyze and eval args, one named Perfetto lane per
// worker slot, and balanced spans nested inside the analysis.
func TestTraceWallClockExport(t *testing.T) {
	at := feedAnalysis([]int{0, 1, 2, 3, 4, 5, 6}, []int{0, 3}, time.Microsecond)
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

// TestTraceDeterministicByteIdentical pins the determinism contract of the
// export: the same logical analysis recorded under different schedules —
// spans added in shuffled order, on different worker lanes, with different
// durations — exports byte-identical deterministic JSON with every span on
// lane 0.
func TestTraceDeterministicByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ref []byte
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(7)
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
// spans completed so far, balanced; the analyze and level spans, recorded
// when they end, appear only in a trace frozen after the analysis, and the
// earlier freeze is left as it was.
func TestTraceIncompleteAnalysis(t *testing.T) {
	at := NewActiveTrace("")
	spans := analysisSpans(at.Start, []int{0}, time.Microsecond)
	at.Add(spans[2]) // level 0's first eval
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

	at.Add(spans[1]) // level 0
	at.Add(spans[0]) // the analysis
	if a, e := count(at.Finish("sta", 0, time.Since(at.Start)), false); a != 1 || e != 1 {
		t.Errorf("completed trace has %d analyze / %d eval spans, want 1/1", a, e)
	}
	if partial.NumSpans() != 1 || len(partial.Spans()) != 1 {
		t.Errorf("spans added after Finish leaked into the frozen trace: %d spans", len(partial.Spans()))
	}
}
