package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qwm/internal/api/v1"
	"qwm/internal/obs"
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

	fl.Flush()
	rt := fl.Get(resp.TraceID)
	if rt == nil {
		t.Fatal("flight recorder did not retain the trace")
	}
	if rt.Route != "analyze" || rt.Status != 200 {
		t.Errorf("retained route/status %s/%d", rt.Route, rt.Status)
	}
	byID := map[string]obs.ReqSpan{}
	for _, s := range rt.Spans {
		byID[s.ID] = s
	}
	for _, id := range []string{"req", "req.enqueue", "req.j0", "req.j0.analyze"} {
		if _, ok := byID[id]; !ok {
			t.Errorf("trace missing span %q (have %d spans)", id, len(rt.Spans))
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

	fl.Flush()
	rt := fl.Get(resp.TraceID)
	if rt == nil {
		t.Fatal("trace not retained")
	}
	var remoteProbes, attempts, peers int
	for _, s := range rt.Spans {
		switch {
		case s.Process == "replica-b":
			peers++
			if s.Attrs["outcome"] != "hit" {
				t.Errorf("peer span outcome %v, want hit", s.Attrs["outcome"])
			}
			if !strings.HasSuffix(s.ID, ".peer") {
				t.Errorf("peer span id %q not under an attempt span", s.ID)
			}
		case s.Name == "remote get":
			attempts++
			if s.Attrs["outcome"] != "hit" {
				t.Errorf("attempt outcome %v, want hit", s.Attrs["outcome"])
			}
		case s.Attrs["tier"] == "remote" && s.Attrs["hit"] == true:
			remoteProbes++
		}
	}
	if peers == 0 || attempts == 0 || remoteProbes == 0 {
		t.Fatalf("merged trace incomplete: %d peer spans, %d attempts, %d remote probes (of %d spans)",
			peers, attempts, remoteProbes, len(rt.Spans))
	}
	// Solver statistics travel with the tier record: evals answered off the
	// peer still report the Newton work that produced their entry.
	qwmEvals := 0
	for _, s := range rt.Spans {
		if s.Attrs["tier"] == "qwm" && s.Attrs["cache"] != nil {
			qwmEvals++
			if n, _ := s.Attrs["nr_iters"].(int); n <= 0 {
				t.Errorf("warm-off-peer eval %s reports nr_iters %v", s.ID, s.Attrs["nr_iters"])
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
		fl.Flush()
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
	fl.Flush()
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
// the live queue depth through the GaugeFunc New registers, overriding the
// edge-maintained gauge — a stale edge value can no longer misreport.
func TestQueueDepthGaugeTruthful(t *testing.T) {
	reg := obs.NewRegistry()
	_, _ = newTestServer(t, Options{Metrics: reg})

	// Poison the edge gauge with a stale value; the sampler must win.
	reg.Gauge("service/queue/depth").Set(42)
	if got := reg.Snapshot().Gauges["service/queue/depth"]; got != 0 {
		t.Errorf("snapshot queue depth %d, want sampled 0 (stale edge said 42)", got)
	}

	// And the stuck-full case: a no-worker queue holding 2 jobs with a
	// missed edge update still reads 2 — the exact TestBackpressure429
	// topology, but with the edge gauge deliberately desynchronized.
	reg2 := obs.NewRegistry()
	q := newWorkQueue(2, reg2.Gauge("service/queue/depth"))
	defer q.close()
	reg2.GaugeFunc("service/queue/depth", func() int64 { return int64(q.queuedDepth()) })
	if !q.tryPush([]*job{{}, {}}) {
		t.Fatal("tryPush failed on an empty queue")
	}
	reg2.Gauge("service/queue/depth").Set(0) // simulate the missed edge
	if got := reg2.Snapshot().Gauges["service/queue/depth"]; got != 2 {
		t.Errorf("stuck-full queue depth %d, want 2", got)
	}
}
