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

func TestFlightRecordGet(t *testing.T) {
	f := NewFlightRecorder()
	defer f.Close()
	base := time.Now()
	f.Record(fakeTrace("aaa", "analyze", 200, time.Millisecond, base))
	f.Record(fakeTrace("bbb", "analyze", 503, 2*time.Millisecond, base.Add(time.Second)))

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

// TestFlightRetentionClasses floods the ring and checks that it keeps
// exactly the most recent traces, while the slowest and errored traces
// survive the churn that evicts them from it. Record is synchronous, so
// nothing is dropped.
func TestFlightRetentionClasses(t *testing.T) {
	f := NewFlightRecorder()
	defer f.Close()
	base := time.Now()
	// One very slow and one errored trace, recorded first so ring churn
	// would otherwise evict them.
	f.Record(fakeTrace("slowest", "analyze", 200, time.Hour, base))
	f.Record(fakeTrace("errored", "analyze", 500, time.Microsecond, base))
	// Then 64 more fast, healthy traces than the ring holds.
	total := flightRecentN + 64
	id := func(i int) string { return fmt.Sprintf("t%04d", i) }
	for i := 0; i < total; i++ {
		f.Record(fakeTrace(id(i), "analyze", 200, time.Millisecond, base.Add(time.Duration(i+1)*time.Second)))
	}
	for i := 0; i < total; i++ {
		if got, want := f.Get(id(i)) != nil, i >= 64; got != want {
			t.Errorf("Get(%s) retained = %v, want %v", id(i), got, want)
		}
	}
	if f.Get("slowest") == nil {
		t.Error("slowest trace evicted despite slow-N retention")
	}
	if f.Get("errored") == nil {
		t.Error("errored trace evicted despite error retention")
	}

	// List: newest first, one row per trace, classes in recent,slow,error
	// order.
	list := f.List()
	if len(list) != flightRecentN+2 {
		t.Fatalf("List len %d, want %d", len(list), flightRecentN+2)
	}
	if list[0].TraceID != id(total-1) || list[0].Classes != "recent,slow" {
		t.Errorf("List[0] = %s %q, want %s \"recent,slow\"", list[0].TraceID, list[0].Classes, id(total-1))
	}
	if last := list[len(list)-1]; last.TraceID != "slowest" || last.Classes != "slow" {
		t.Errorf("List[last] = %s %q, want slowest \"slow\"", last.TraceID, last.Classes)
	}
	if e := list[len(list)-2]; e.TraceID != "errored" || e.Classes != "error" {
		t.Errorf("List[last-1] = %s %q, want errored \"error\"", e.TraceID, e.Classes)
	}
	if mid := list[flightSlowN]; mid.TraceID != id(total-1-flightSlowN) || mid.Classes != "recent" {
		t.Errorf("List[%d] = %s %q, want %s \"recent\"", flightSlowN, mid.TraceID, mid.Classes, id(total-1-flightSlowN))
	}
	for i := 1; i < len(list); i++ {
		if list[i].Start.After(list[i-1].Start) {
			t.Fatalf("List not newest first at %d", i)
		}
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
		f.Close()
		if f.Get("y") != nil {
			t.Error("Record after Close inserted a trace")
		}
	}
	// The recorder starts no goroutine, so none may be left behind.
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
	f.Close()
	if f.Get("x") != nil || f.List() != nil {
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
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(body, "dropped") {
		t.Errorf("JSON listing still carries a drop count: %s", body)
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

// TestFlightConcurrentRecord records from several goroutines while others
// list and look up: every trace recorded is retained (the ring is not full)
// and List sees each once.
func TestFlightConcurrentRecord(t *testing.T) {
	f := NewFlightRecorder()
	defer f.Close()
	const writers, each = 4, flightRecentN / 4
	base := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.Record(fakeTrace(fmt.Sprintf("w%d-%03d", w, i), "analyze", 200+300*(i%2), time.Duration(i)*time.Millisecond, base))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f.List()
				f.Get(fmt.Sprintf("w%d-%03d", w, i))
			}
		}()
	}
	wg.Wait()
	if got := len(f.List()); got != writers*each {
		t.Errorf("List has %d traces, want %d", got, writers*each)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			if f.Get(fmt.Sprintf("w%d-%03d", w, i)) == nil {
				t.Fatalf("trace w%d-%03d lost", w, i)
			}
		}
	}
}
