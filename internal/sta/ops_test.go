package sta

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
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
	a := New(tech, lib, Config{Workers: workers, Metrics: reg})
	at := obs.NewActiveTrace("")
	ctx := obs.ContextWithTrace(context.Background(), obs.TraceRef{T: at, Parent: "sta"})
	res, err := a.AnalyzeContext(ctx, decoderRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	return reg, at.Finish("sta", 0, time.Since(at.Start)), res
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
