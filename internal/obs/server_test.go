package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func opsServer() (*Server, *Registry) {
	r := NewRegistry()
	r.Counter("sta/analyzes").Inc()
	r.Histogram("sta/nr_iters_per_eval", []float64{1, 10}).Observe(4)
	return &Server{Registry: r}, r
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw
}

func TestServerEndpoints(t *testing.T) {
	srv, _ := opsServer()
	if rw := get(t, srv.Handler(), "/trace"); rw.Code != 404 {
		t.Fatalf("trace without a flight recorder: code %d, want 404", rw.Code)
	}
	fl := NewFlightRecorder()
	defer fl.Close()
	srv.Flight = fl
	h := srv.Handler()

	if rw := get(t, h, "/"); rw.Code != 200 || !strings.Contains(rw.Body.String(), "/metrics") {
		t.Fatalf("index: code %d body %q", rw.Code, rw.Body.String())
	}
	if rw := get(t, h, "/nope"); rw.Code != 404 {
		t.Fatalf("unknown path: code %d, want 404", rw.Code)
	}

	rw := get(t, h, "/metrics")
	if rw.Code != 200 || !strings.Contains(rw.Header().Get("Content-Type"), "version=0.0.4") {
		t.Fatalf("metrics: code %d content-type %q", rw.Code, rw.Header().Get("Content-Type"))
	}
	if !strings.Contains(rw.Body.String(), "sta_analyzes 1") {
		t.Fatalf("metrics body missing counter:\n%s", rw.Body.String())
	}

	// Trace: 404 until the flight recorder holds a request, then the newest
	// retained one as a Chrome trace, in both renderings.
	if rw := get(t, h, "/trace"); rw.Code != 404 {
		t.Fatalf("empty trace: code %d, want 404", rw.Code)
	}
	base := time.Now()
	fl.Record(fakeTrace("old", "analyze", 200, time.Millisecond, base))
	fl.Record(fakeTrace("new", "analyze", 200, time.Millisecond, base.Add(time.Second)))
	rw = get(t, h, "/trace")
	if rw.Code != 200 || !strings.Contains(rw.Body.String(), `"traceEvents"`) ||
		!strings.Contains(rw.Body.String(), `"trace_id": "new"`) {
		t.Fatalf("trace: code %d body %q", rw.Code, rw.Body.String())
	}
	if cd := rw.Header().Get("Content-Disposition"); !strings.Contains(cd, "request-new.trace.json") {
		t.Fatalf("trace filename: %q", cd)
	}
	for _, q := range []string{"1", "true"} {
		det := get(t, h, "/trace?deterministic="+q)
		if det.Code != 200 || !strings.Contains(det.Body.String(), `"deterministic": true`) ||
			strings.Contains(det.Body.String(), `"trace_id"`) {
			t.Fatalf("deterministic=%s trace: code %d body %q", q, det.Code, det.Body.String())
		}
	}

	if rw := get(t, h, "/debug/vars"); rw.Code != 200 || !strings.HasPrefix(rw.Body.String(), "{") {
		t.Fatalf("expvar: code %d", rw.Code)
	}
	if rw := get(t, h, "/debug/pprof/"); rw.Code != 200 {
		t.Fatalf("pprof index: code %d", rw.Code)
	}
	if rw := get(t, h, "/debug/pprof/cmdline"); rw.Code != 200 {
		t.Fatalf("pprof cmdline: code %d", rw.Code)
	}
}

func TestServerHealthz(t *testing.T) {
	srv, _ := opsServer()
	h := srv.Handler()
	if rw := get(t, h, "/healthz"); rw.Code != 200 || !strings.Contains(rw.Body.String(), "ok") {
		t.Fatalf("nil Health: code %d body %q", rw.Code, rw.Body.String())
	}
	healthy := true
	srv.Health = func() (bool, string) {
		if healthy {
			return true, ""
		}
		return false, "2 directions on rc-bound tier"
	}
	if rw := get(t, h, "/healthz"); rw.Code != 200 {
		t.Fatalf("healthy: code %d", rw.Code)
	}
	healthy = false
	rw := get(t, h, "/healthz")
	if rw.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded: code %d, want 503", rw.Code)
	}
	if !strings.Contains(rw.Body.String(), "rc-bound") {
		t.Fatalf("degraded body lacks detail: %q", rw.Body.String())
	}
}

// TestServerStartShutdownNoLeak pins the lifecycle contract: Start serves on
// a real listener, Shutdown joins the serve goroutine, and the cycle leaks
// nothing — the goroutine count settles back to its starting level.
func TestServerStartShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	for cycle := 0; cycle < 3; cycle++ {
		srv, _ := opsServer()
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if srv.Addr() != addr {
			t.Fatalf("Addr() = %q, want %q", srv.Addr(), addr)
		}
		if _, err := srv.Start("127.0.0.1:0"); err == nil {
			t.Fatal("second Start on a running server did not error")
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
			t.Fatalf("healthz over TCP: %d %q", resp.StatusCode, body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		if srv.Addr() != "" {
			t.Fatal("Addr() non-empty after Shutdown")
		}
		// Shutdown of a stopped server is a no-op.
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Idle HTTP keep-alive machinery can take a moment to unwind; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, after, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServerRestart(t *testing.T) {
	srv, reg := opsServer()
	for i := 0; i < 2; i++ {
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		reg.Counter("sta/analyzes").Inc()
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := fmt.Sprintf("sta_analyzes %d", 2+i)
		if !strings.Contains(string(body), want) {
			t.Fatalf("restart %d: metrics missing %q", i, want)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
