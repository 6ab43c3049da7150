package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"qwm/internal/api/v1"
	"qwm/internal/obs"
	"qwm/internal/race"
	"qwm/internal/sta/remotecache"
)

// tracedServer builds a service with tracing (and metrics) on.
func tracedServer(t testing.TB, opts Options) (*Server, *httptest.Server, *obs.FlightRecorder) {
	t.Helper()
	fl := obs.NewFlightRecorder()
	opts.Flight = fl
	s, hs := newTestServer(t, opts)
	t.Cleanup(fl.Close)
	return s, hs, fl
}

// TestTraceEnvelopeAndRecorder pins the local tracing contract: the response
// carries the trace ID in both the header and the v1 envelope, and the flight
// recorder retains the full span chain service → worker → analyze.
func TestTraceEnvelopeAndRecorder(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	reg := obs.NewRegistry()
	_, hs, fl := tracedServer(t, Options{Metrics: reg})

	hr, body := postJSON(t, hs.URL, v1.AnalyzeRequest{ID: "traced", Netlist: deck, Outputs: outs})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", hr.StatusCode, body)
	}
	resp := decodeAnalyze(t, body)
	if resp.TraceID == "" {
		t.Fatal("envelope missing trace_id")
	}
	if got := hr.Header.Get("X-Qwm-Trace-Id"); got != resp.TraceID {
		t.Errorf("X-Qwm-Trace-Id %q != envelope trace_id %q", got, resp.TraceID)
	}

	rt := fl.Get(resp.TraceID)
	if rt == nil {
		t.Fatal("flight recorder did not retain the trace")
	}
	if rt.Route != "analyze" || rt.Status != 200 {
		t.Errorf("retained route/status %s/%d", rt.Route, rt.Status)
	}
	byID := map[string]obs.ReqSpan{}
	for _, s := range rt.Spans() {
		byID[s.ID] = s
	}
	for _, id := range []string{"req", "req.enqueue", "req.j0", "req.j0.analyze"} {
		if _, ok := byID[id]; !ok {
			t.Errorf("trace missing span %q (have %d spans)", id, rt.NumSpans())
		}
	}
	// A cold analysis evaluates stages: level and eval spans must be there.
	if _, ok := byID["req.j0.analyze.L0"]; !ok {
		t.Error("trace missing the level-0 span")
	}
	// RED metrics with an exemplar pointing back at this trace.
	snap := reg.Snapshot()
	if snap.Counters["service/http/requests/analyze"] == 0 {
		t.Error("request counter not incremented")
	}
	h := snap.Histograms["service/http/time/latency/analyze"]
	if h.Count == 0 {
		t.Error("latency histogram empty")
	}
	found := false
	for _, ex := range h.Exemplars {
		if ex == resp.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("latency exemplars %v do not reference trace %s", h.Exemplars, resp.TraceID)
	}
}

// TestDistributedTraceMergesPeerSpan is the tentpole acceptance test: a
// request served warm off a PEER's cache yields ONE trace containing spans
// recorded by both processes. Replica B (with a disk cache) is warmed first
// and serves its cache over the tier API; replica A reads through it and must
// see B's cache-plane span re-parented into its own trace.
func TestDistributedTraceMergesPeerSpan(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	req := v1.AnalyzeRequest{Netlist: deck, Outputs: outs}

	// Replica B: warm its disk cache through the front door.
	b := New(tech, lib, Options{CacheDir: t.TempDir()})
	defer b.Close()
	hsB := httptest.NewServer(b.Handler())
	defer hsB.Close()
	if hr, body := postJSON(t, hsB.URL, req); hr.StatusCode != http.StatusOK {
		t.Fatalf("warming B: %d %s", hr.StatusCode, body)
	}

	// B's cache plane, named so its spans are attributable.
	tier := remotecache.NewServer(b.TierStoreFor, nil)
	tier.Name = "replica-b"
	mux := http.NewServeMux()
	mux.Handle("/tier/", tier.Handler())
	tierSrv := httptest.NewServer(mux)
	defer tierSrv.Close()

	// Replica A: no local disk, reads through B, tracing on.
	_, hsA, fl := tracedServer(t, Options{RemoteCache: tierSrv.URL})
	hr, body := postJSON(t, hsA.URL, req)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("traced request on A: %d %s", hr.StatusCode, body)
	}
	resp := decodeAnalyze(t, body)
	if resp.Result.StagesEvaluated != 0 {
		t.Errorf("A evaluated %d stages; expected a fully warm-off-peer run", resp.Result.StagesEvaluated)
	}

	rt := fl.Get(resp.TraceID)
	if rt == nil {
		t.Fatal("trace not retained")
	}
	var remoteProbes, attempts, peers int
	for _, s := range rt.Spans() {
		switch {
		case s.Process == "replica-b":
			peers++
			if s.Attrs.Get("outcome") != "hit" {
				t.Errorf("peer span outcome %v, want hit", s.Attrs.Get("outcome"))
			}
			if !strings.HasSuffix(s.ID, ".peer") {
				t.Errorf("peer span id %q not under an attempt span", s.ID)
			}
		case s.Name == "remote get":
			attempts++
			if s.Attrs.Get("outcome") != "hit" {
				t.Errorf("attempt outcome %v, want hit", s.Attrs.Get("outcome"))
			}
		case s.Name == "tier remote":
			if hits, _ := s.Attrs.Get("hits").(int64); hits > 0 {
				remoteProbes++
			}
		}
	}
	if peers == 0 || attempts == 0 || remoteProbes == 0 {
		t.Fatalf("merged trace incomplete: %d peer spans, %d attempts, %d remote probes (of %d spans)",
			peers, attempts, remoteProbes, rt.NumSpans())
	}
	// Solver statistics travel with the tier record: evals answered off the
	// peer still report the Newton work that produced their entry.
	qwmEvals := 0
	for _, s := range rt.Spans() {
		if s.Attrs.Get("tier") == "qwm" && s.Attrs.Get("cache") != nil {
			qwmEvals++
			if n, _ := s.Attrs.Get("nr_iters").(int64); n <= 0 {
				t.Errorf("warm-off-peer eval %s reports nr_iters %v", s.ID, s.Attrs.Get("nr_iters"))
			}
		}
	}
	if qwmEvals == 0 {
		t.Error("trace has no qwm-tier eval spans")
	}
	// The deterministic export must attribute the peer's spans to its own
	// process lane.
	det, err := rt.ChromeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(det, []byte("replica replica-b")) {
		t.Error("deterministic export missing the remote process lane")
	}
}

// TestTraceDeterministicAcrossWorkers re-runs one request on fresh servers at
// Workers 1 and 8 and requires byte-identical deterministic exports — the
// schedule-independence contract for traces.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	req := v1.AnalyzeRequest{Netlist: deck, Outputs: outs}

	export := func(workers int) []byte {
		_, hs, fl := tracedServer(t, Options{AnalyzerWorkers: workers})
		hr, body := postJSON(t, hs.URL, req)
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, hr.StatusCode, body)
		}
		resp := decodeAnalyze(t, body)
		rt := fl.Get(resp.TraceID)
		if rt == nil {
			t.Fatalf("workers=%d: trace not retained", workers)
		}
		b, err := rt.ChromeJSON(true)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := export(1), export(8); !bytes.Equal(a, b) {
		t.Error("deterministic trace export differs between Workers 1 and 8")
	}
}

// TestTracingDisabled pins the zero-cost-off contract's visible half: no
// Flight recorder means no trace header and no envelope trace_id.
func TestTracingDisabled(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	_, hs := newTestServer(t, Options{})
	hr, body := postJSON(t, hs.URL, v1.AnalyzeRequest{Netlist: deck, Outputs: outs})
	if hr.Header.Get("X-Qwm-Trace-Id") != "" {
		t.Error("untraced server set X-Qwm-Trace-Id")
	}
	if bytes.Contains(body, []byte("trace_id")) {
		t.Errorf("untraced envelope carries trace_id: %s", body)
	}
}

// TestTraceIDInBatchEnvelopes: both the sync batch response and the async
// 202 accept envelope carry the trace ID.
func TestTraceIDInBatchEnvelopes(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	_, hs, _ := tracedServer(t, Options{Workers: 2})

	breq := v1.BatchRequest{Requests: []v1.AnalyzeRequest{{Netlist: deck, Outputs: outs[:1]}}}
	_, body := postJSON(t, hs.URL, breq)
	var sync v1.BatchResponse
	if err := json.Unmarshal(body, &sync); err != nil {
		t.Fatal(err)
	}
	if sync.TraceID == "" {
		t.Error("sync batch envelope missing trace_id")
	}

	breq.Async = true
	hr, body := postJSON(t, hs.URL, breq)
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("async admit: %d %s", hr.StatusCode, body)
	}
	var acc v1.BatchResponse
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.TraceID == "" {
		t.Error("async 202 envelope missing trace_id")
	}
}

// TestInboundTraceparentJoined: a caller-supplied Traceparent header joins
// the existing trace instead of minting a new ID.
func TestInboundTraceparentJoined(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	_, hs, fl := tracedServer(t, Options{})

	inbound := "aaaabbbbccccddddaaaabbbbccccdddd"
	b, err := json.Marshal(v1.AnalyzeRequest{Netlist: deck, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, hs.URL+"/analyze", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Traceparent", obs.FormatTraceparent(inbound, "caller"))
	hr, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if got := hr.Header.Get("X-Qwm-Trace-Id"); got != inbound {
		t.Errorf("trace id %q, want the inbound %q", got, inbound)
	}
	if fl.Get(inbound) == nil {
		t.Error("trace not retained under the inbound id")
	}
}

// TestHealthInfoShape pins the /healthz JSON detail contract end to end:
// HealthInfo's keys, plus the full obs.Server JSON rendering with build info,
// exactly as cmd/stad wires it.
func TestHealthInfoShape(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 2, QueueLen: 8})

	info := s.HealthInfo()
	for _, key := range []string{"queue_depth", "queue_capacity", "workers", "open_breakers"} {
		if _, ok := info[key]; !ok {
			t.Errorf("HealthInfo missing %q: %v", key, info)
		}
	}
	if info["queue_capacity"] != 8 || info["workers"] != 2 {
		t.Errorf("HealthInfo config values wrong: %v", info)
	}
	if br, ok := info["open_breakers"].([]string); !ok || br == nil {
		t.Errorf("open_breakers = %#v, want a non-nil []string", info["open_breakers"])
	}

	reg := obs.NewRegistry()
	build := obs.RegisterBuildInfo(reg)
	ops := &obs.Server{
		Registry: reg,
		Health:   s.Healthy,
		HealthDetail: func() map[string]any {
			d := s.HealthInfo()
			d["build"] = build
			return d
		},
	}
	ts := httptest.NewServer(ops.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || m["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, m)
	}
	for _, key := range []string{"queue_depth", "queue_capacity", "workers", "open_breakers", "build", "status"} {
		if _, ok := m[key]; !ok {
			t.Errorf("healthz body missing %q: %v", key, m)
		}
	}
}

// TestQueueDepthGaugeTruthful pins the staleness fix: the snapshot samples
// the live queue depth through the GaugeFunc New registers, so a stale
// edge-updated gauge of the same name can never misreport.
func TestQueueDepthGaugeTruthful(t *testing.T) {
	reg := obs.NewRegistry()
	_, _ = newTestServer(t, Options{Metrics: reg})

	// Poison an edge gauge with a stale value; the sampler must win.
	reg.Gauge("service/queue/depth").Set(42)
	if got := reg.Snapshot().Gauges["service/queue/depth"]; got != 0 {
		t.Errorf("snapshot queue depth %d, want sampled 0 (stale edge said 42)", got)
	}

	// And the stuck-full case: a server holding 2 requests that can never
	// start still reads 2 — the exact TestBackpressure429 topology.
	reg2 := obs.NewRegistry()
	s2 := stalled(Options{QueueLen: 2, Metrics: reg2})
	defer s2.Close()
	if s2.admit(context.Background(), make([]v1.AnalyzeRequest, 2), false) == nil {
		t.Fatal("admission failed on an empty queue")
	}
	reg2.Gauge("service/queue/depth").Set(0) // a stale edge value
	if got := reg2.Snapshot().Gauges["service/queue/depth"]; got != 2 {
		t.Errorf("stuck-full queue depth %d, want 2", got)
	}
}

// TestTraceDeterministicGolden pins the deterministic export of a fixed
// traced 2-bit decoder request — cold, then warm off the same server —
// byte for byte against goldens recorded from the span-map representation
// the compact trace record replaced. Any change to the spans, their
// attributes, their order or the export format shows up here.
func TestTraceDeterministicGolden(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	_, hs, fl := tracedServer(t, Options{})
	for _, golden := range []string{"trace_decoder2_cold.json", "trace_decoder2_warm.json"} {
		hr, body := postJSON(t, hs.URL, v1.AnalyzeRequest{ID: "golden", Netlist: deck, Outputs: outs})
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", golden, hr.StatusCode, body)
		}
		rt := fl.Get(decodeAnalyze(t, body).TraceID)
		if rt == nil {
			t.Fatalf("%s: trace not retained", golden)
		}
		got, err := rt.ChromeJSON(true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("deterministic export differs from testdata/%s:\n%s", golden, got)
		}
	}
}

// warmHandler returns a service handler that has already answered body
// once, so every later request with it is all-hit.
func warmHandler(t testing.TB, opts Options, body []byte) http.Handler {
	t.Helper()
	s := New(tech, lib, opts)
	t.Cleanup(func() { s.Close() })
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup failed: %d %s", rec.Code, rec.Body)
	}
	return h
}

// warmDecoder4Body is the all-hit request body the traced-cost benchmark
// and budget use: a 4-bit decoder, every output.
func warmDecoder4Body(t testing.TB) []byte {
	t.Helper()
	deck, _, outs := decoderDeckBits(t, 4)
	body, err := json.Marshal(v1.AnalyzeRequest{Netlist: deck, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// serveOnce runs one POST /analyze through h in-process.
func serveOnce(t testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("request failed: %d %s", rec.Code, rec.Body)
	}
}

// BenchmarkServiceWarmTraced measures what tracing adds to a warm request:
// the all-hit 4-bit decoder through the full handler, untraced and with a
// flight recorder and metrics registry (the stad configuration). Run with
// -benchmem; the difference between the two is the tracing cost.
func BenchmarkServiceWarmTraced(b *testing.B) {
	body := warmDecoder4Body(b)
	for _, tc := range []struct {
		name   string
		traced bool
	}{{"untraced", false}, {"traced", true}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := Options{}
			if tc.traced {
				fl := obs.NewFlightRecorder()
				b.Cleanup(fl.Close)
				opts = Options{Flight: fl, Metrics: obs.NewRegistry()}
			}
			h := warmHandler(b, opts, body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOnce(b, h, body)
			}
		})
	}
}

// BenchmarkServiceWarmOffPeer measures the two-replica request served warm
// from the peer: replica A has analyzed the all-hit 4-bit decoder and serves
// its cache plane; each op is a fresh replica B answering the same request
// through A's plane (B's construction and Close are outside the timer). Run
// with -benchmem; read_reqs/op and write_reqs/op count the round trips B
// made to the plane.
func BenchmarkServiceWarmOffPeer(b *testing.B) {
	body := warmDecoder4Body(b)
	dir := b.TempDir()
	warm := New(tech, lib, Options{CacheDir: dir})
	serveOnce(b, warm.Handler(), body)
	warm.Close() // drains the disk write-behind, so the plane starts warm
	a := New(tech, lib, Options{CacheDir: dir})
	b.Cleanup(func() { a.Close() })
	plane := remotecache.NewServer(a.TierStoreFor, nil)
	hs := httptest.NewServer(plane.Handler())
	b.Cleanup(hs.Close)

	before := plane.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		replica := New(tech, lib, Options{RemoteCache: hs.URL})
		h := replica.Handler()
		b.StartTimer()
		serveOnce(b, h, body)
		b.StopTimer()
		replica.Close()
		b.StartTimer()
	}
	b.StopTimer()
	after := plane.Stats()
	b.ReportMetric(float64(after.ReadRequests-before.ReadRequests)/float64(b.N), "read_reqs/op")
	b.ReportMetric(float64(after.WriteRequests-before.WriteRequests)/float64(b.N), "write_reqs/op")
}

// TestFlightRetainedBytes bounds what the flight recorder keeps per trace:
// 160 recorded warm 4-bit decoder traces (79 spans each) must hold at most
// 16 KB apiece on the heap, measured as the live-heap growth across the
// recording.
func TestFlightRetainedBytes(t *testing.T) {
	body := warmDecoder4Body(t)
	fl := obs.NewFlightRecorder()
	defer fl.Close()
	h := warmHandler(t, Options{Flight: fl}, body)
	serveOnce(t, h, body) // settle any first-request growth before measuring

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 160; i++ {
		serveOnce(t, h, body)
	}
	after := heap()
	retained := len(fl.List())
	if retained < 100 {
		t.Fatalf("recorder retains only %d of 160 traces", retained)
	}
	per := (int64(after) - int64(before)) / int64(retained)
	t.Logf("%d traces retained, %d B of live heap each", retained, per)
	if per > 16<<10 {
		t.Errorf("each retained trace holds %d B of live heap, budget 16 KB", per)
	}
	runtime.KeepAlive(h)
}

// TestTracedWarmAllocBudget bounds what tracing adds to a warm request: the
// all-hit 4-bit decoder through the handler with a flight recorder and a
// metrics registry may allocate at most 64 more objects and 40 KB more than
// the same request untraced. Each side's cost is the mean of 50 requests.
// Under the race detector it is the least of ten single requests instead:
// there sync.Pool drops a quarter of its puts, and a request that finds the
// engine's arena dropped pays for a fresh one (about 200 allocations and
// 100 KB on this deck), which would decide the difference by the luck of
// the drops.
func TestTracedWarmAllocBudget(t *testing.T) {
	body := warmDecoder4Body(t)
	cost := func(opts Options) (allocs, bytes float64) {
		h := warmHandler(t, opts, body)
		measure := func(runs int) (allocs, bytes float64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, func() { serveOnce(t, h, body) })
			runtime.ReadMemStats(&after)
			return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1) // AllocsPerRun's warm-up + runs
		}
		if !race.Enabled {
			return measure(50)
		}
		allocs, bytes = math.Inf(1), math.Inf(1)
		for i := 0; i < 10; i++ {
			a, b := measure(1)
			allocs, bytes = math.Min(allocs, a), math.Min(bytes, b)
		}
		return allocs, bytes
	}
	plainA, plainB := cost(Options{})
	fl := obs.NewFlightRecorder()
	defer fl.Close()
	tracedA, tracedB := cost(Options{Flight: fl, Metrics: obs.NewRegistry()})
	dA, dB := tracedA-plainA, tracedB-plainB
	t.Logf("tracing adds %.0f allocations and %.1f KB per warm request", dA, dB/1024)
	if dA > 64 || dB > 40<<10 {
		t.Errorf("tracing adds %.0f allocations and %.1f KB per warm request; budget 64 and 40 KB", dA, dB/1024)
	}
}
