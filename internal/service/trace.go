package service

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"qwm/internal/obs"
)

// This file is the service's front-door observability middleware: per-route
// RED metrics (request/error counters, latency histogram) and — when a
// flight recorder is configured — the minting of one request trace per
// /analyze call, carried through the context to admission, workers, the
// engine and the cache fleet, and retained at completion for /debug/requests
// and /trace/request/{id}.

// traceIDHeader returns the request's trace ID to the caller, so a curl can
// go straight to /trace/request/{id} afterwards.
const traceIDHeader = "X-Qwm-Trace-Id"

// latencyBounds buckets the per-route latency histogram, in seconds. The
// "time/" name segment keeps the histogram out of Deterministic() snapshots.
var latencyBounds = []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30}

// statusWriter captures the response status for metrics and trace retention.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// routeOf classifies a request path into a bounded label set — metric names
// must never embed client-controlled strings.
func routeOf(path string) string {
	switch {
	case path == "/analyze":
		return "analyze"
	case strings.HasPrefix(path, "/result/"):
		return "result"
	default:
		return "other"
	}
}

// instrument wraps the service mux. With neither metrics nor a flight
// recorder configured it returns the handler untouched — zero overhead, and
// byte-identical behaviour for deployments that never asked for tracing.
func (s *Server) instrument(next http.Handler) http.Handler {
	fl := s.opts.Flight
	reg := s.opts.Metrics
	if fl == nil && reg == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r.URL.Path)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var at *obs.ActiveTrace
		if fl != nil && route == "analyze" {
			// Honour an inbound traceparent's trace ID (joining a caller's
			// existing trace); mint a fresh one otherwise.
			inbound := ""
			if tid, _, ok := obs.ParseTraceparent(r.Header.Get("Traceparent")); ok {
				inbound = tid
			}
			at = obs.NewActiveTrace(inbound)
			r = r.WithContext(obs.ContextWithTrace(r.Context(), obs.TraceRef{
				T: at, Parent: "req", Level: obs.LevelRequest,
			}))
			sw.Header().Set(traceIDHeader, at.TraceID)
		}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)
		if reg != nil {
			reg.Counter("service/http/requests/" + route).Inc()
			if sw.status >= 400 {
				reg.Counter(fmt.Sprintf("service/http/errors/%s/%d", route, sw.status)).Inc()
			}
			h := reg.Histogram("service/http/time/latency/"+route, latencyBounds)
			if at != nil {
				// The exemplar links the slow bucket to a retained trace.
				h.ObserveExemplar(dur.Seconds(), at.TraceID)
			} else {
				h.Observe(dur.Seconds())
			}
		}
		if at != nil {
			at.Add(obs.ReqSpan{
				ID: "req", Name: r.Method + " /" + route,
				Level: obs.LevelRequest, Item: 0,
				Start: start, Dur: dur,
				Attrs: obs.Attrs{obs.Str("route", route), obs.Int("status", sw.status)},
			})
			fl.Record(at.Finish(route, sw.status, dur))
		}
	})
}
