package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeTrace builds a minimal retained trace.
func fakeTrace(id, route string, status int, dur time.Duration, start time.Time) *RequestTrace {
	at := &ActiveTrace{TraceID: id, Start: start}
	at.Add(ReqSpan{ID: "req", Name: "POST /" + route, Level: LevelRequest, Start: start, Dur: dur})
	return at.Finish(route, status, dur)
}

func TestFlightRecordFlushGet(t *testing.T) {
	f := NewFlightRecorder()
	defer f.Close()
	base := time.Now()
	f.Record(fakeTrace("aaa", "analyze", 200, time.Millisecond, base))
	f.Record(fakeTrace("bbb", "analyze", 503, 2*time.Millisecond, base.Add(time.Second)))
	f.Flush()

	if got := f.Get("aaa"); got == nil || got.TraceID != "aaa" {
		t.Fatalf("Get(aaa) = %v", got)
	}
	if f.Get("missing") != nil {
		t.Error("Get(missing) returned a trace")
	}
	list := f.List()
	if len(list) != 2 {
		t.Fatalf("List len %d, want 2", len(list))
	}
	// Newest first.
	if list[0].TraceID != "bbb" || list[1].TraceID != "aaa" {
		t.Errorf("List order %s, %s; want bbb, aaa", list[0].TraceID, list[1].TraceID)
	}
	// The errored request is retained in every class; classes are joined.
	if !strings.Contains(list[0].Classes, "recent") || !strings.Contains(list[0].Classes, "error") {
		t.Errorf("errored trace classes %q, want recent+error", list[0].Classes)
	}
	if list[1].Status != 200 || list[0].Status != 503 {
		t.Errorf("statuses %d/%d", list[1].Status, list[0].Status)
	}
}

// TestFlightRetentionClasses floods the ring and checks that the slowest and
// errored traces survive churn that evicts them from the recent ring.
func TestFlightRetentionClasses(t *testing.T) {
	f := NewFlightRecorder()
	defer f.Close()
	base := time.Now()
	// One very slow and one errored trace, recorded first so ring churn
	// would otherwise evict them.
	f.Record(fakeTrace("slowest", "analyze", 200, time.Hour, base))
	f.Record(fakeTrace("errored", "analyze", 500, time.Microsecond, base))
	// Now far more fast, healthy traces than the whole ring holds.
	total := flightShards*flightRingPerShard + 64
	for i := 0; i < total; i++ {
		f.Record(fakeTrace(fmt.Sprintf("t%04d", i), "analyze", 200, time.Millisecond, base.Add(time.Duration(i)*time.Second)))
	}
	f.Flush()
	if f.Get("slowest") == nil {
		t.Error("slowest trace evicted despite slow-N retention")
	}
	if f.Get("errored") == nil {
		t.Error("errored trace evicted despite error retention")
	}
	if f.Dropped() != 0 {
		// The queue is smaller than `total`, but Flush-free recording is
		// fast; drops are legitimate under extreme load, so only log.
		t.Logf("dropped %d traces on a full queue", f.Dropped())
	}
}

func TestFlightCloseIdempotentNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		f := NewFlightRecorder()
		f.Record(fakeTrace("x", "analyze", 200, time.Millisecond, time.Now()))
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() { defer wg.Done(); f.Close() }()
		}
		wg.Wait()
		// After Close, everything is a safe no-op.
		f.Record(fakeTrace("y", "analyze", 200, time.Millisecond, time.Now()))
		f.Flush()
		f.Close()
		if f.Get("y") != nil {
			t.Error("Record after Close inserted a trace")
		}
	}
	// The flusher goroutines must all have exited.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after close loop", before, runtime.NumGoroutine())
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(fakeTrace("x", "analyze", 200, 0, time.Now())) // must not panic
	f.Flush()
	f.Close()
	if f.Get("x") != nil || f.List() != nil || f.Dropped() != 0 {
		t.Error("nil recorder returned non-zero results")
	}
}

// TestFlightHTTP drives the obs.Server debug surface end to end:
// /debug/requests (HTML and JSON) and /trace/request/{id} (both renderings,
// plus the 400/404 paths).
func TestFlightHTTP(t *testing.T) {
	f := NewFlightRecorder()
	defer f.Close()
	f.Record(fakeTrace("feedface", "analyze", 200, 5*time.Millisecond, time.Now()))
	f.Flush()

	srv := &Server{Flight: f}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string, map[string]string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		hdr := map[string]string{
			"Content-Type":        resp.Header.Get("Content-Type"),
			"Content-Disposition": resp.Header.Get("Content-Disposition"),
		}
		return resp.StatusCode, string(b), hdr
	}

	code, body, _ := get("/debug/requests")
	if code != 200 || !strings.Contains(body, "feedface") || !strings.Contains(body, "/trace/request/feedface") {
		t.Errorf("HTML listing: code %d body %q", code, body)
	}
	code, body, hdr := get("/debug/requests?format=json")
	if code != 200 || hdr["Content-Type"] != "application/json" {
		t.Fatalf("JSON listing: code %d ct %q", code, hdr["Content-Type"])
	}
	var listing struct {
		Requests []TraceSummary `json:"requests"`
		Dropped  int64          `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Requests) != 1 || listing.Requests[0].TraceID != "feedface" || listing.Requests[0].Spans != 1 {
		t.Errorf("JSON listing content: %+v", listing)
	}

	code, body, hdr = get("/trace/request/feedface")
	if code != 200 || hdr["Content-Type"] != "application/json" {
		t.Errorf("trace export: code %d ct %q", code, hdr["Content-Type"])
	}
	if want := `inline; filename="request-feedface.trace.json"`; hdr["Content-Disposition"] != want {
		t.Errorf("Content-Disposition %q, want %q", hdr["Content-Disposition"], want)
	}
	if !strings.Contains(body, "feedface") {
		t.Error("wall-clock export missing trace id")
	}
	code, body, _ = get("/trace/request/feedface?deterministic=1")
	if code != 200 || strings.Contains(body, "feedface") {
		t.Errorf("deterministic export leaks trace id (code %d)", code)
	}

	if code, _, _ := get("/trace/request/"); code != 400 {
		t.Errorf("empty id: code %d, want 400", code)
	}
	if code, _, _ := get("/trace/request/unknown"); code != 404 {
		t.Errorf("unknown id: code %d, want 404", code)
	}
}
