package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server is the engine's ops/debug HTTP surface: Prometheus metrics, expvar,
// pprof, a health probe and the flight-recorded request traces, all served
// from one mux. The zero value is usable (every endpoint degrades gracefully
// when its backing component is nil); populate the fields, then either mount
// Handler on an existing server or call Start/Shutdown for a managed
// listener with graceful shutdown.
//
//	/            endpoint index (text)
//	/metrics     Prometheus text exposition of Registry.Snapshot()
//	/healthz     200 "ok" when Health() is clean, 503 + detail when degraded
//	/debug/vars  expvar (live snapshots for every Publish'd registry)
//	/debug/pprof/{,cmdline,profile,symbol,trace}  net/http/pprof
type Server struct {
	// Registry backs /metrics. Nil serves an empty (but valid) exposition.
	Registry *Registry
	// Health reports process health for /healthz: ok and a human-readable
	// detail line. Nil means unconditionally healthy.
	Health func() (ok bool, detail string)
	// Flight backs the request-trace surface: /debug/requests (retained
	// request listing), /trace/request/{id} (per-request Chrome trace) and
	// /trace (the newest retained request; 404 until one is recorded).
	// Nil leaves all three routes unmounted.
	Flight *FlightRecorder
	// HealthDetail, when set, switches /healthz to a JSON body: the returned
	// map (queue depth, worker count, open breakers, build info — whatever
	// the process wants probes and humans to see) plus "status" and, when
	// degraded, "detail" from Health. Nil keeps the legacy one-line text
	// body.
	HealthDetail func() map[string]any
	// Extra maps additional route patterns to handlers mounted on the same
	// mux — how the analysis front door (internal/service: /analyze,
	// /result/) shares one listener with the ops surface. Patterns here must
	// not collide with the built-in routes.
	Extra map[string]http.Handler

	mu   sync.Mutex
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// Handler builds the ops mux. Safe to call multiple times; each call
// returns a fresh mux over the same components.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.Flight != nil {
		mux.HandleFunc("/debug/requests", s.Flight.handleRequests)
		mux.HandleFunc("/trace", s.Flight.handleLatestTrace)
		mux.HandleFunc("/trace/request/", s.Flight.handleRequestTrace)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range s.Extra {
		mux.Handle(pattern, h)
	}
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `qwm ops server

/metrics        Prometheus text exposition
/healthz        health probe (503 when the last analysis degraded)
/debug/vars     expvar
/debug/pprof/   pprof profiles
`)
	if s.Flight != nil {
		fmt.Fprint(w, `/debug/requests       flight-recorded request traces (HTML; ?format=json)
/trace                the newest request as Chrome trace-event JSON (?deterministic=1)
/trace/request/{id}   one request as Chrome trace-event JSON (?deterministic=1)
`)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var snap Snapshot
	if s.Registry != nil {
		snap = s.Registry.Snapshot()
	}
	_ = snap.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ok, detail := true, "ok"
	if s.Health != nil {
		ok, detail = s.Health()
		if ok && detail == "" {
			detail = "ok"
		}
	}
	if s.HealthDetail != nil {
		body := s.HealthDetail()
		if body == nil {
			body = map[string]any{}
		}
		if ok {
			body["status"] = "ok"
		} else {
			body["status"] = "degraded"
			body["detail"] = detail
		}
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: %s\n", detail)
		return
	}
	fmt.Fprintf(w, "%s\n", detail)
}

// Start listens on addr ("host:port"; ":0" picks a free port) and serves the
// ops mux on a background goroutine. It returns the bound address. Starting
// an already-started server is an error; after Shutdown the server may be
// started again.
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		return "", fmt.Errorf("obs: server already started on %s", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: server listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	s.srv, s.ln, s.done = srv, ln, done
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // http.ErrServerClosed on Shutdown
	}()
	return ln.Addr().String(), nil
}

// Addr returns the listener address of a started server ("" when stopped).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops a started server: the listener closes, in-flight
// requests get until ctx's deadline to finish, and the serve goroutine is
// joined before Shutdown returns — no goroutine outlives the call (the leak
// test pins this). Shutting down a stopped server is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv, done := s.srv, s.done
	s.srv, s.ln, s.done = nil, nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Shutdown(ctx)
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}
