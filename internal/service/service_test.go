package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"qwm/internal/api/v1"
	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/remotecache"
	"qwm/internal/stages"
)

var (
	tech = mos.CMOSP35()
	lib  = devmodel.NewLibrary(tech)
)

// decoderDeck renders the decoder workload as deck text — the service's
// wire format for circuits — plus its primary inputs and outputs.
func decoderDeck(t testing.TB) (string, []string, []string) {
	t.Helper()
	return decoderDeckBits(t, 2)
}

// decoderDeckBits is decoderDeck for a decoder of the given address width.
func decoderDeckBits(t testing.TB, bits int) (string, []string, []string) {
	t.Helper()
	nl, ins, outs, err := stages.DecoderNetlist(tech, bits, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	return netlist.Format(&netlist.Deck{Title: "* decoder", Netlist: nl}), ins, outs
}

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(tech, lib, opts)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decodeAnalyze(t testing.TB, b []byte) v1.AnalyzeResponse {
	t.Helper()
	var resp v1.AnalyzeResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatalf("undecodable response %s: %v", b, err)
	}
	return resp
}

func TestAnalyzeSingle(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	_, hs := newTestServer(t, Options{})

	hr, body := postJSON(t, hs.URL, v1.AnalyzeRequest{
		SchemaVersion: v1.SchemaVersion,
		ID:            "req-1",
		Netlist:       deck,
		Outputs:       outs,
		FullArrivals:  true,
	})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", hr.StatusCode, body)
	}
	resp := decodeAnalyze(t, body)
	if resp.SchemaVersion != v1.SchemaVersion || resp.Status != v1.StatusOK || resp.ID != "req-1" {
		t.Fatalf("bad envelope: %+v", resp)
	}
	if resp.Result == nil || resp.Result.WorstArrival <= 0 || resp.Result.WorstOutput == "" {
		t.Fatalf("bad result: %+v", resp.Result)
	}
	if !resp.Result.Diagnostics.Healthy {
		t.Fatalf("decoder analysis unhealthy: %+v", resp.Result.Diagnostics)
	}
	if len(resp.Result.Outputs) != len(outs) {
		t.Fatalf("result has %d outputs, want %d", len(resp.Result.Outputs), len(outs))
	}
	if resp.Result.StagesEvaluated == 0 {
		t.Error("cold analysis reported 0 evaluations")
	}

	// Wire transparency: the queue, pool and JSON round trip move no bit
	// relative to an in-process run on the same parsed deck (Go's encoder
	// writes the shortest float64 form that round-trips exactly).
	parsed, err := netlist.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	canon := make([]string, len(outs))
	for i, o := range outs {
		canon[i] = circuit.CanonName(o)
	}
	res, err := sta.New(tech, lib, sta.Config{}).AnalyzeContext(nil, sta.Request{Netlist: parsed.Netlist, Outputs: canon})
	if err != nil {
		t.Fatal(err)
	}
	ref, got := v1.FromResult(res, canon, true), resp.Result
	if got.WorstArrival != ref.WorstArrival || got.WorstOutput != ref.WorstOutput || got.StagesEvaluated != ref.StagesEvaluated {
		t.Errorf("wire worst %.17g@%s after %d evaluations, in-process %.17g@%s after %d",
			got.WorstArrival, got.WorstOutput, got.StagesEvaluated, ref.WorstArrival, ref.WorstOutput, ref.StagesEvaluated)
	}
	if !reflect.DeepEqual(got.Outputs, ref.Outputs) || !reflect.DeepEqual(got.Arrivals, ref.Arrivals) {
		t.Errorf("wire arrivals differ from in-process:\nwire %+v\nref  %+v", got.Arrivals, ref.Arrivals)
	}

	// Same request again: pooled analyzer, warm cache.
	_, body2 := postJSON(t, hs.URL, v1.AnalyzeRequest{Netlist: deck, Outputs: outs})
	resp2 := decodeAnalyze(t, body2)
	if resp2.Result.StagesEvaluated != 0 {
		t.Errorf("warm analysis evaluated %d stages", resp2.Result.StagesEvaluated)
	}
	if resp2.Result.WorstArrival != resp.Result.WorstArrival {
		t.Error("warm analysis changed the answer")
	}
}

// TestLegacyFeatureKeysIgnored: older clients may still send the retired
// "memo" and "interp" feature keys. The v1 decoder ignores unknown keys, so
// such a body is answered 200 by the same pooled analyzer as the body
// without features, byte for byte.
func TestLegacyFeatureKeysIgnored(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	s, hs := newTestServer(t, Options{})
	plain := map[string]any{"schema_version": v1.SchemaVersion, "netlist": deck, "outputs": outs}
	legacy := map[string]any{"features": map[string]any{"memo": true, "interp": true}}
	for k, v := range plain {
		legacy[k] = v
	}

	postJSON(t, hs.URL, plain) // cold: both bodies below answer warm
	_, want := postJSON(t, hs.URL, plain)
	hr, got := postJSON(t, hs.URL, legacy)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("legacy features: status %d, body %s", hr.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("legacy features changed the response:\nwant %s\ngot  %s", want, got)
	}
	s.pool.mu.Lock()
	n := len(s.pool.analyzers)
	s.pool.mu.Unlock()
	if n != 1 {
		t.Errorf("%d pooled analyzers, want 1: the legacy keys split the pool", n)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	deck, ins, outs := decoderDeck(t)
	s, hs := newTestServer(t, Options{})
	// withSlew is the decoder request with every primary input at one slew:
	// out of range, it must be refused at pre-flight, not stretch the spice
	// rescue tier's simulation window and pin a worker.
	withSlew := func(field string, v float64) string {
		inputs := map[string]map[string]float64{}
		for _, in := range ins {
			inputs[in] = map[string]float64{field: v}
		}
		b, err := json.Marshal(map[string]any{"netlist": deck, "inputs": inputs, "outputs": outs})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// withBudget is the decoder request under one budget: a negative or
	// overflowing value would open a pooled analyzer of its own.
	withBudget := func(budget string) string {
		return fmt.Sprintf(`{"netlist":%q,"outputs":[%q],"budget":%s}`, deck, outs[0], budget)
	}
	// withChaosRate is a chaos request at one firing rate, which must lie in
	// (0, 1] (0 reads as 1).
	withChaosRate := func(rate string) string {
		return fmt.Sprintf(`{"netlist":%q,"outputs":[%q],"chaos":{"seed":1,"classes":["panic"],"rate":%s}}`, deck, outs[0], rate)
	}

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed json", "{", http.StatusBadRequest, v1.CodeInvalidRequest},
		{"empty netlist", `{"netlist":"","outputs":["y"]}`, http.StatusBadRequest, v1.CodeInvalidRequest},
		{"no outputs", `{"netlist":"* t\n.end\n"}`, http.StatusBadRequest, v1.CodeInvalidRequest},
		{"bad schema version", `{"schema_version":"qwm.v9","netlist":"x","outputs":["y"]}`,
			http.StatusBadRequest, v1.CodeInvalidRequest},
		{"bad tech", fmt.Sprintf(`{"tech":"finfet7","netlist":%q,"outputs":["y"]}`, deck),
			http.StatusBadRequest, v1.CodeInvalidRequest},
		{"unparseable deck", `{"netlist":"* t\nMBAD\n.end\n","outputs":["y"]}`,
			http.StatusUnprocessableEntity, v1.CodeInvalidNetlist},
		{"undriven output", fmt.Sprintf(`{"netlist":%q,"outputs":["nosuchnet"]}`, deck),
			http.StatusUnprocessableEntity, v1.CodeInvalidNetlist},
		{"slew over limit", withSlew("rise_slew", 1e-5), http.StatusBadRequest, v1.CodeInvalidRequest},
		{"negative slew", withSlew("fall_slew", -1e-12), http.StatusBadRequest, v1.CodeInvalidRequest},
		{"negative nr_iters", withBudget(`{"nr_iters":-1}`), http.StatusBadRequest, v1.CodeInvalidRequest},
		{"negative wall_ms", withBudget(`{"wall_ms":-1}`), http.StatusBadRequest, v1.CodeInvalidRequest},
		{"overflowing wall_ms", withBudget(`{"wall_ms":1e300}`), http.StatusBadRequest, v1.CodeInvalidRequest},
		// Network faults are not engine fault classes: a chaos analyzer has
		// no remote tier for them to fire at.
		{"network chaos class", fmt.Sprintf(`{"netlist":%q,"outputs":[%q],"chaos":{"seed":1,"classes":["net-error"]}}`, deck, outs[0]),
			http.StatusBadRequest, v1.CodeInvalidRequest},
		{"negative chaos rate", withChaosRate("-0.5"), http.StatusBadRequest, v1.CodeInvalidRequest},
		{"chaos rate above 1", withChaosRate("1.5"), http.StatusBadRequest, v1.CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			hr, err := http.Post(hs.URL+"/analyze", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(hr.Body)
			hr.Body.Close()
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("error answer took %v", d)
			}
			if hr.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (body %s)", hr.StatusCode, tc.status, buf.String())
			}
			resp := decodeAnalyze(t, buf.Bytes())
			if resp.Status != v1.StatusError || resp.Error == nil || resp.Error.Code != tc.code {
				t.Fatalf("error envelope %+v, want code %s", resp, tc.code)
			}
		})
	}
	// Only the rows refused after the parse with a default budget reach the
	// pool, and they share its one analyzer.
	s.pool.mu.Lock()
	n := len(s.pool.analyzers)
	s.pool.mu.Unlock()
	if n != 1 {
		t.Errorf("%d pooled analyzers after the refused requests, want 1", n)
	}
}

// stalled builds a server whose run channel is unbuffered and never read,
// so no admitted sub-request can ever start: each waits until Close.
func stalled(opts Options) *Server {
	s := New(tech, lib, opts)
	s.run = make(chan struct{})
	return s
}

// TestBackpressure429 saturates the waiting count of a server whose admitted
// requests can never start and asserts load shedding: 429, Retry-After,
// overloaded code, degraded health. Deterministic by construction.
func TestBackpressure429(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	reg := obs.NewRegistry()
	s := stalled(Options{QueueLen: 2, Metrics: reg})
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Fill both slots with an async batch (returns 202 immediately; the
	// sub-requests wait forever, since none can start).
	hr, body := postJSON(t, hs.URL, v1.BatchRequest{
		Async: true,
		Requests: []v1.AnalyzeRequest{
			{Netlist: deck, Outputs: outs},
			{Netlist: deck, Outputs: outs},
		},
	})
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("async admit: status %d, body %s", hr.StatusCode, body)
	}
	if ok, _ := s.Healthy(); ok {
		t.Error("saturated queue must report degraded health")
	}
	if d := reg.Snapshot().Gauges["service/queue/depth"]; d != 2 {
		t.Errorf("queue depth gauge = %d, want 2", d)
	}

	// Next single request must shed.
	hr2, body2 := postJSON(t, hs.URL, v1.AnalyzeRequest{ID: "shed-me", Netlist: deck, Outputs: outs})
	if hr2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flooded queue: status %d, body %s", hr2.StatusCode, body2)
	}
	if hr2.Header.Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	resp := decodeAnalyze(t, body2)
	if resp.Error == nil || resp.Error.Code != v1.CodeOverloaded || resp.ID != "shed-me" {
		t.Fatalf("shed envelope %+v", resp)
	}

	// A batch that can't fully fit is rejected whole (all-or-nothing) even
	// when one slot would free: nothing is half-admitted.
	if b := s.admit(context.Background(), make([]v1.AnalyzeRequest, 3), false); b != nil {
		t.Error("oversized group admitted")
	}
	if reg.Snapshot().Counters["service/rejected_overload"] == 0 {
		t.Error("shed not counted")
	}
}

// settleGoroutines waits (up to 5 s) for the goroutine count to fall back
// to before and fails the test with every stack when it does not.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseAnswersWaitingRequests pins Close's contract for admitted work
// that has not started: every waiting synchronous request is answered 429
// overloaded "server shutting down", a request posted after Close is shed
// with 429, a second Close returns, and no goroutine is left behind.
func TestCloseAnswersWaitingRequests(t *testing.T) {
	before := runtime.NumGoroutine()
	const k = 3
	s := stalled(Options{QueueLen: k})
	hs := httptest.NewServer(s.Handler())
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	post := func(id string) (int, v1.AnalyzeResponse, error) {
		body := fmt.Sprintf(`{"id":%q,"netlist":"* x\n.end\n","outputs":["y"]}`, id)
		hr, err := client.Post(hs.URL+"/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, v1.AnalyzeResponse{}, err
		}
		defer hr.Body.Close()
		var resp v1.AnalyzeResponse
		err = json.NewDecoder(hr.Body).Decode(&resp)
		return hr.StatusCode, resp, err
	}

	type answer struct {
		status int
		resp   v1.AnalyzeResponse
		err    error
	}
	answers := make(chan answer, k)
	for i := 0; i < k; i++ {
		go func(id string) {
			status, resp, err := post(id)
			answers <- answer{status, resp, err}
		}(fmt.Sprintf("wait-%d", i))
	}
	for deadline := time.Now().Add(10 * time.Second); s.depth() < k; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests admitted", s.depth(), k)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatal(a.err)
		}
		if a.status != http.StatusTooManyRequests || a.resp.Error == nil ||
			a.resp.Error.Code != v1.CodeOverloaded || a.resp.Error.Message != "server shutting down" {
			t.Errorf("waiting request %q: status %d, error %+v; want 429 overloaded \"server shutting down\"",
				a.resp.ID, a.status, a.resp.Error)
		}
	}
	if d := s.depth(); d != 0 {
		t.Errorf("queue depth %d after Close, want 0", d)
	}

	status, resp, err := post("late")
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests || resp.Error == nil || resp.Error.Code != v1.CodeOverloaded {
		t.Errorf("request after Close: status %d, error %+v; want 429 overloaded", status, resp.Error)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("second Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Close did not return")
	}

	hs.Close()
	tr.CloseIdleConnections()
	settleGoroutines(t, before)
}

// TestPoolDiskFailureLeaksNoRemoteClient: when a signature's disk namespace
// cannot open, the pool must not keep (or orphan) a remote-cache client for
// it — each client runs a write-behind goroutine. Repeated failing requests
// leave the goroutine count and the remote-client map flat, and Close
// leaves no drain goroutine behind.
func TestPoolDiskFailureLeaksNoRemoteClient(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s := New(tech, lib, Options{CacheDir: file, RemoteCache: "http://127.0.0.1:1"})
	for i := 0; i < 20; i++ {
		resp := s.analyze(nil, v1.AnalyzeRequest{ID: "x", Netlist: deck, Outputs: outs})
		if resp.Error == nil || resp.Error.Code != v1.CodeAnalysisFailed {
			t.Fatalf("request %d: %+v, want %s (the cache dir is a file)", i, resp, v1.CodeAnalysisFailed)
		}
	}
	s.pool.mu.Lock()
	n := len(s.pool.remotes)
	s.pool.mu.Unlock()
	if n != 0 {
		t.Errorf("%d remote clients kept for a signature whose disk namespace failed", n)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("20 failing requests grew the goroutine count %d -> %d", before, g)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, before)
}

func TestAsyncBatchLifecycle(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	_, hs := newTestServer(t, Options{Workers: 2})

	hr, body := postJSON(t, hs.URL, v1.BatchRequest{
		SchemaVersion: v1.SchemaVersion,
		Async:         true,
		Requests: []v1.AnalyzeRequest{
			{ID: "a", Netlist: deck, Outputs: outs},
			{ID: "b", Netlist: deck, Outputs: outs[:1]},
		},
	})
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, body %s", hr.StatusCode, body)
	}
	var acc v1.BatchResponse
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Status != v1.StatusPending || acc.ID == "" || acc.Total != 2 {
		t.Fatalf("bad 202 envelope: %+v", acc)
	}

	deadline := time.Now().Add(30 * time.Second)
	var final v1.BatchResponse
	for {
		if time.Now().After(deadline) {
			t.Fatal("batch never completed")
		}
		hr, err := http.Get(hs.URL + "/result/" + acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(hr.Body)
		hr.Body.Close()
		if hr.StatusCode == http.StatusAccepted {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d, body %s", hr.StatusCode, buf.String())
		}
		if err := json.Unmarshal(buf.Bytes(), &final); err != nil {
			t.Fatal(err)
		}
		break
	}
	if final.Status != v1.StatusOK || final.Completed != 2 || len(final.Responses) != 2 {
		t.Fatalf("final batch: %+v", final)
	}
	if final.Responses[0].ID != "a" || final.Responses[1].ID != "b" {
		t.Error("batch responses out of submission order")
	}
	for i, r := range final.Responses {
		if r.Status != v1.StatusOK || r.Result == nil {
			t.Fatalf("slot %d: %+v", i, r)
		}
	}

	// Unknown id → 404 with the not_found code.
	hr404, err := http.Get(hs.URL + "/result/b999999")
	if err != nil {
		t.Fatal(err)
	}
	hr404.Body.Close()
	if hr404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", hr404.StatusCode)
	}
}

func TestSyncBatchPartialFailure(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	_, hs := newTestServer(t, Options{})
	hr, body := postJSON(t, hs.URL, v1.BatchRequest{
		Requests: []v1.AnalyzeRequest{
			{Netlist: deck, Outputs: outs},
			{Netlist: "* broken\nMBAD\n.end\n", Outputs: []string{"y"}},
		},
	})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", hr.StatusCode, body)
	}
	var resp v1.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != v1.StatusError {
		t.Errorf("batch with a failed slot must report error status, got %q", resp.Status)
	}
	if resp.Responses[0].Status != v1.StatusOK || resp.Responses[1].Status != v1.StatusError {
		t.Fatalf("per-slot verdicts wrong: %+v", resp.Responses)
	}
}

// TestChaosDeterministicAndIsolated: identical chaos requests produce
// byte-identical responses, a degrading class never reports an arrival
// earlier than the clean one, a latency-only class moves no bit, and chaos
// never poisons the pooled analyzers production requests share.
func TestChaosDeterministicAndIsolated(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	for _, tc := range []struct {
		class     string
		degrading bool
	}{{"budget-exhaustion", true}, {"cache-stall", false}} {
		t.Run(tc.class, func(t *testing.T) {
			_, hs := newTestServer(t, Options{})
			req := v1.AnalyzeRequest{Netlist: deck, Outputs: outs, FullArrivals: true}
			// A warm clean response reports 0 evaluations, so the isolation
			// probe after the chaos traffic can demand equal bytes.
			postJSON(t, hs.URL, req)
			_, cleanBody := postJSON(t, hs.URL, req)
			clean := decodeAnalyze(t, cleanBody).Result
			if !clean.Diagnostics.Healthy {
				t.Fatalf("clean baseline unhealthy: %+v", clean.Diagnostics)
			}

			chaosReq := req
			chaosReq.Chaos = &v1.Chaos{Seed: 42, Classes: []string{tc.class}}
			_, b1 := postJSON(t, hs.URL, chaosReq)
			_, b2 := postJSON(t, hs.URL, chaosReq)
			if !bytes.Equal(b1, b2) {
				t.Errorf("chaos responses differ across identical requests:\n%s\n%s", b1, b2)
			}
			cr := decodeAnalyze(t, b1)
			if cr.Status != v1.StatusOK {
				t.Fatalf("chaos run failed outright: %s", b1)
			}
			faulted := cr.Result
			if faulted.Diagnostics.Healthy != !tc.degrading {
				t.Errorf("chaos at rate 1 reported healthy=%v", faulted.Diagnostics.Healthy)
			}
			if !tc.degrading && !reflect.DeepEqual(faulted.Arrivals, clean.Arrivals) {
				t.Errorf("latency-only chaos moved arrivals:\n got  %+v\n want %+v", faulted.Arrivals, clean.Arrivals)
			}
			for net, ref := range clean.Arrivals {
				got, ok := faulted.Arrivals[net]
				if !ok || got.Rise < ref.Rise*(1-1e-12) || got.Fall < ref.Fall*(1-1e-12) {
					t.Errorf("net %s: faulted arrival %+v (present %v) earlier than clean %+v", net, got, ok, ref)
				}
			}

			if _, after := postJSON(t, hs.URL, req); !bytes.Equal(after, cleanBody) {
				t.Errorf("clean response changed after chaos traffic:\n got  %s\n want %s", after, cleanBody)
			}
		})
	}
}

// TestWarmDiskRestartBitIdentical is the service-level restart guarantee:
// a new server process over the same cache directory answers every net's
// arrival bit-identically with zero evaluations and a ≥90 % disk hit rate.
func TestWarmDiskRestartBitIdentical(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	dir := t.TempDir()
	req := v1.AnalyzeRequest{Netlist: deck, Outputs: outs, FullArrivals: true}

	s1 := New(tech, lib, Options{CacheDir: dir})
	hs1 := httptest.NewServer(s1.Handler())
	_, cold := postJSON(t, hs1.URL, req)
	_, warmMem := postJSON(t, hs1.URL, req)
	hs1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if decodeAnalyze(t, cold).Result.StagesEvaluated == 0 {
		t.Fatal("cold run reported no evaluations — disk can't have been exercised")
	}

	reg := obs.NewRegistry()
	s2 := New(tech, lib, Options{CacheDir: dir, Metrics: reg})
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	defer s2.Close()
	_, warmDisk := postJSON(t, hs2.URL, req)

	if !bytes.Equal(warmMem, warmDisk) {
		t.Errorf("warm-disk response differs from warm-memory:\nmem:  %s\ndisk: %s", warmMem, warmDisk)
	}
	if got := decodeAnalyze(t, warmDisk).Result.StagesEvaluated; got != 0 {
		t.Errorf("warm-disk run evaluated %d stages", got)
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counters["sta/disk/hits"], snap.Counters["sta/disk/misses"]
	if total := hits + misses; total == 0 || float64(hits)/float64(total) < 0.9 {
		t.Errorf("disk hit rate %d/%d after restart, want >= 90%%", hits, total)
	}
}

// BenchmarkServiceWarmDisk measures the full service path — HTTP decode,
// queue, disk-tier hydration, HTTP encode — for a restarted replica over a
// warm cache directory (a fresh Server per iteration, so the in-memory
// cache never warms).
func BenchmarkServiceWarmDisk(b *testing.B) {
	deck, _, outs := decoderDeck(b)
	dir := b.TempDir()
	body, err := json.Marshal(v1.AnalyzeRequest{Netlist: deck, Outputs: outs})
	if err != nil {
		b.Fatal(err)
	}

	warm := New(tech, lib, Options{CacheDir: dir})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body))
	warm.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup failed: %d %s", rec.Code, rec.Body)
	}
	warm.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(tech, lib, Options{CacheDir: dir})
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("iteration failed: %d %s", rec.Code, rec.Body)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// TestCachePlaneServesOwnAnalyses: replica B reads through replica A's cache
// plane after A analyzed the deck, and must evaluate nothing, whether A has
// a cache directory or not. Without one, A's plane used to serve only what
// peers PUT, so B evaluated every direction again.
func TestCachePlaneServesOwnAnalyses(t *testing.T) {
	deck, _, outs := decoderDeck(t)
	req := v1.AnalyzeRequest{Netlist: deck, Outputs: outs}
	analyze := func(t *testing.T, url string) v1.AnalyzeResponse {
		t.Helper()
		hr, body := postJSON(t, url, req)
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s", hr.StatusCode, body)
		}
		return decodeAnalyze(t, body)
	}
	for _, mode := range []struct{ name, dir string }{{"memory", ""}, {"disk", t.TempDir()}} {
		t.Run(mode.name, func(t *testing.T) {
			a, hsA := newTestServer(t, Options{CacheDir: mode.dir})
			cold := analyze(t, hsA.URL)
			if cold.Result.StagesEvaluated == 0 {
				t.Fatal("A answered its first request warm")
			}
			plane := httptest.NewServer(remotecache.NewServer(a.TierStoreFor, nil).Handler())
			defer plane.Close()
			_, hsB := newTestServer(t, Options{RemoteCache: plane.URL})
			warm := analyze(t, hsB.URL)
			if warm.Result.StagesEvaluated != 0 {
				t.Errorf("B evaluated %d of A's %d directions through A's plane",
					warm.Result.StagesEvaluated, cold.Result.StagesEvaluated)
			}
			if !reflect.DeepEqual(warm.Result.Arrivals, cold.Result.Arrivals) {
				t.Errorf("B's arrivals %+v differ from A's %+v", warm.Result.Arrivals, cold.Result.Arrivals)
			}
		})
	}
}

// TestTierRejectsOpenNoNamespace: tier requests the cache plane refuses —
// a GET, a POST whose body is not whole keys — open no disk namespace.
func TestTierRejectsOpenNoNamespace(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, Options{CacheDir: dir})
	plane := httptest.NewServer(remotecache.NewServer(s.TierStoreFor, nil).Handler())
	defer plane.Close()
	url := plane.URL + "/tier/" + base64.RawURLEncoding.EncodeToString([]byte(sta.Config{}.Signature())) + "/"
	for _, tc := range []struct {
		method, body string
		status       int
	}{{http.MethodGet, "", http.StatusMethodNotAllowed}, {http.MethodPost, "not a key", http.StatusBadRequest}} {
		req, err := http.NewRequest(tc.method, url, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.method, hr.StatusCode, tc.status)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("refused tier requests left %d entries in the cache dir (%v)", len(ents), err)
	}
}

// TestResultGoneVsNotFound pins the two distinct /result failure answers:
// an id this server retained and then FIFO-evicted is 410 Gone with the
// stable v1 "gone" code; an id it never issued is 404 with "not_found".
func TestResultGoneVsNotFound(t *testing.T) {
	// Room for every submission below even if none has started yet.
	_, hs := newTestServer(t, Options{Workers: 2, QueueLen: resultCap + 1})

	submit := func(id string) string {
		hr, body := postJSON(t, hs.URL, v1.BatchRequest{
			SchemaVersion: v1.SchemaVersion,
			Async:         true,
			Requests:      []v1.AnalyzeRequest{{ID: id, Outputs: []string{"y"}}},
		})
		if hr.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, body %s", id, hr.StatusCode, body)
		}
		var acc v1.BatchResponse
		if err := json.Unmarshal(body, &acc); err != nil {
			t.Fatal(err)
		}
		return acc.ID
	}
	poll := func(id string) (int, v1.BatchResponse) {
		hr, err := http.Get(hs.URL + "/result/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(hr.Body)
		var resp v1.BatchResponse
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable poll body %s: %v", buf.String(), err)
		}
		return hr.StatusCode, resp
	}

	// Cheap batches (an empty netlist is refused before any parse), one
	// more than resultCap: retaining the last evicts `first`.
	first := submit("first")
	var last string
	for i := 0; i < resultCap; i++ {
		last = submit(fmt.Sprintf("r%d", i))
	}

	status, resp := poll(first)
	if status != http.StatusGone {
		t.Fatalf("evicted id: status %d, want 410 (%+v)", status, resp)
	}
	if resp.Error == nil || resp.Error.Code != v1.CodeGone {
		t.Fatalf("evicted id: error %+v, want code %q", resp.Error, v1.CodeGone)
	}

	status, resp = poll("b999999")
	if status != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", status)
	}
	if resp.Error == nil || resp.Error.Code != v1.CodeNotFound {
		t.Fatalf("unknown id: error %+v, want code %q", resp.Error, v1.CodeNotFound)
	}

	// The surviving id still resolves (200 or 202 depending on progress).
	if status, _ := poll(last); status != http.StatusOK && status != http.StatusAccepted {
		t.Fatalf("retained id: status %d", status)
	}
}

// TestDequeueCancellationShed pins the start-time disconnect check: a
// sub-request whose client context is already dead when it starts is shed as
// a counted cancellation, without any engine work.
func TestDequeueCancellationShed(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(tech, lib, Options{Workers: 1, Metrics: reg})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is gone before the request is even admitted
	b := s.admit(ctx, []v1.AnalyzeRequest{{ID: "dead", Netlist: "* x\n.end\n", Outputs: []string{"y"}}}, false)
	if b == nil {
		t.Fatal("admission failed on an empty queue")
	}
	<-b.done
	resp := b.responses[0]
	if resp.Status != v1.StatusError || resp.Error == nil || resp.Error.Code != v1.CodeCancelled {
		t.Fatalf("shed response = %+v, want code %q", resp, v1.CodeCancelled)
	}
	if got := httpStatus(resp); got != http.StatusRequestTimeout {
		t.Fatalf("httpStatus(cancelled) = %d, want 408", got)
	}
	if n := s.mCancelled.Value(); n != 1 {
		t.Fatalf("service/cancelled = %d, want 1", n)
	}
}

// TestRetryAfterDerived pins the 429 backoff hint: deterministic per id,
// growing with queue depth, and bounded.
func TestRetryAfterDerived(t *testing.T) {
	s := stalled(Options{Workers: 2, QueueLen: 256})
	defer s.Close()

	idle := s.retryAfter("client-1")
	if idle != s.retryAfter("client-1") {
		t.Fatal("Retry-After not deterministic for a fixed id and depth")
	}
	n, err := strconv.Atoi(idle)
	if err != nil || n < 1 || n > 2 {
		t.Fatalf("idle Retry-After = %q, want 1..2 (base 1 + jitter in [0,1])", idle)
	}

	// Jitter decorrelates ids: across a handful of ids both values appear.
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		seen[s.retryAfter(fmt.Sprintf("client-%d", i))] = true
	}
	if len(seen) < 2 {
		t.Errorf("32 ids produced a single Retry-After %v; jitter is dead", seen)
	}

	// Load the queue: base = 1 + 240/(4*2) = 31, capped at 30; with jitter
	// the answer lives in [30, 60].
	if s.admit(context.Background(), make([]v1.AnalyzeRequest, 240), false) == nil {
		t.Fatal("admission failed on an empty queue")
	}
	deep, err := strconv.Atoi(s.retryAfter("client-1"))
	if err != nil || deep < 30 || deep > 60 {
		t.Fatalf("deep-queue Retry-After = %q, want 30..60", s.retryAfter("client-1"))
	}
	if deep <= n {
		t.Errorf("Retry-After did not grow with queue depth: idle %d, deep %d", n, deep)
	}
}

// TestAnalyzeRejectBodiesPinned pins POST /analyze's answers to malformed
// and refused bodies byte for byte, as the two-step decode (a "requests"
// probe, then the request) produced them before the single decode was
// added: every body the single decode refuses must still get the probe's or
// the request's own error message. Oversize bodies get 413 whether or not
// they declare their length.
func TestAnalyzeRejectBodiesPinned(t *testing.T) {
	s := New(tech, lib, Options{})
	defer s.Close()
	h := s.Handler()
	msg := func(m string) string {
		return `{"schema_version":"qwm.v1","status":"error","error":{"code":"invalid_request","message":` + strconv.Quote(m) + "}}\n"
	}
	probeType := `struct { Requests []json.RawMessage "json:\"requests\"" }`
	cases := []struct {
		body   string
		status int
		want   string
	}{
		{`{`, 400, msg("malformed JSON: unexpected end of JSON input")},
		{``, 400, msg("malformed JSON: unexpected end of JSON input")},
		{`[1,2]`, 400, msg("malformed JSON: json: cannot unmarshal array into Go value of type " + probeType)},
		{`"x"`, 400, msg("malformed JSON: json: cannot unmarshal string into Go value of type " + probeType)},
		{`{"netlist":5,"outputs":["y"]}`, 400, msg("malformed JSON: json: cannot unmarshal number into Go struct field AnalyzeRequest.netlist of type string")},
		{`{"requests":5}`, 400, msg("malformed JSON: json: cannot unmarshal number into Go struct field .requests of type []json.RawMessage")},
		{`{"requests":{"a":1}}`, 400, msg("malformed JSON: json: cannot unmarshal object into Go struct field .requests of type []json.RawMessage")},
		{`{"inputs":{"a":3},"outputs":["y"]}`, 400, msg("malformed JSON: json: cannot unmarshal number into Go struct field AnalyzeRequest.inputs of type v1.Arrival")},
		{`{"outputs":"y","netlist":"x"}`, 400, msg("malformed JSON: json: cannot unmarshal string into Go struct field AnalyzeRequest.outputs of type []string")},
		{`{"netlist":"x"} x`, 400, msg("malformed JSON: invalid character 'x' after top-level value")},
		{`{"requests":[],"netlist":5}`, 400, msg("empty batch")},
		{`{"requests":[{"netlist":5}]}`, 400, msg("malformed JSON: json: cannot unmarshal number into Go struct field AnalyzeRequest.requests.netlist of type string")},
		{`null`, 400, msg("empty netlist")},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(tc.body)))
		if rec.Code != tc.status || rec.Body.String() != tc.want {
			t.Errorf("body %q: got %d %s\nwant %d %s", tc.body, rec.Code, rec.Body, tc.status, tc.want)
		}
	}

	huge := strings.Repeat(" ", maxBodyBytes+1)
	for _, declared := range []bool{true, false} {
		req := httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(huge))
		if !declared {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if want := msg("request body too large"); rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
			t.Errorf("oversize body (length declared %v): got %d %s", declared, rec.Code, rec.Body)
		}
	}
}
