package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// FlightRecorder is the always-on forensic store of completed request
// traces: a ring of the most recent requests, plus two retention classes
// that survive ring churn — the slowest N and the last N errored requests.
// One mutex guards all three; Record inserts synchronously, so a trace is
// retained (and nothing is ever dropped) by the time Record returns.
//
// Mount the HTTP surface via obs.Server.Flight: /debug/requests lists
// retained traces (HTML, or JSON with ?format=json), /trace/request/{id}
// exports one as Chrome trace-event JSON and /trace exports the newest
// (?deterministic=1 for the byte-stable rendering).
type FlightRecorder struct {
	mu     sync.Mutex
	closed bool
	recent [flightRecentN]*RequestTrace // ring; next is the oldest slot
	next   int
	slow   []*RequestTrace // sorted by Dur descending, at most flightSlowN
	errs   []*RequestTrace // most recent errored, oldest first, at most flightErrN
}

const (
	flightRecentN = 128
	flightSlowN   = 16
	flightErrN    = 16
)

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder { return &FlightRecorder{} }

// Record retains one completed trace: in the recent ring, among the slowest
// while it is slower than the fastest of them, and among the errored when
// its status is an error. After Close it does nothing.
func (f *FlightRecorder) Record(t *RequestTrace) {
	if f == nil || t == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.recent[f.next] = t
	f.next = (f.next + 1) % flightRecentN

	// Insert ahead of every trace no slower, so among ties the newest stay.
	i := sort.Search(len(f.slow), func(i int) bool { return f.slow[i].Dur <= t.Dur })
	if i < flightSlowN {
		if len(f.slow) < flightSlowN {
			f.slow = append(f.slow, nil)
		}
		copy(f.slow[i+1:], f.slow[i:])
		f.slow[i] = t
	}

	if t.Err() {
		if len(f.errs) == flightErrN {
			copy(f.errs, f.errs[1:])
			f.errs = f.errs[:flightErrN-1]
		}
		f.errs = append(f.errs, t)
	}
}

// Close stops recording; the traces already retained stay readable.
// Idempotent.
func (f *FlightRecorder) Close() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}

// each calls fn for every retained trace with its class: the recent ring,
// then the slowest, then the errored. Caller holds f.mu.
func (f *FlightRecorder) each(fn func(t *RequestTrace, class string)) {
	for _, t := range f.recent {
		if t != nil {
			fn(t, "recent")
		}
	}
	for _, t := range f.slow {
		fn(t, "slow")
	}
	for _, t := range f.errs {
		fn(t, "error")
	}
}

// Get returns the retained trace with the given ID, searching the recent
// ring and both retention classes.
func (f *FlightRecorder) Get(traceID string) *RequestTrace {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var found *RequestTrace
	f.each(func(t *RequestTrace, _ string) {
		if found == nil && t.TraceID == traceID {
			found = t
		}
	})
	return found
}

// TraceSummary is one row of the /debug/requests listing.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Route   string    `json:"route"`
	Status  int       `json:"status"`
	Start   time.Time `json:"start"`
	DurMS   float64   `json:"dur_ms"`
	Spans   int       `json:"spans"`
	Classes string    `json:"classes"` // retention classes: "recent", "slow", "error"
}

// List returns every retained trace, newest first, deduplicated across
// retention classes.
func (f *FlightRecorder) List() []TraceSummary {
	if f == nil {
		return nil
	}
	type entry struct {
		t       *RequestTrace
		classes []string
	}
	byID := map[string]*entry{}
	f.mu.Lock()
	f.each(func(t *RequestTrace, class string) {
		e, ok := byID[t.TraceID]
		if !ok {
			e = &entry{t: t}
			byID[t.TraceID] = e
		}
		e.classes = append(e.classes, class)
	})
	f.mu.Unlock()

	out := make([]TraceSummary, 0, len(byID))
	for _, e := range byID {
		out = append(out, TraceSummary{
			TraceID: e.t.TraceID, Route: e.t.Route, Status: e.t.Status,
			Start: e.t.Start, DurMS: e.t.Dur.Seconds() * 1e3,
			Spans: e.t.NumSpans(), Classes: strings.Join(e.classes, ","),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.After(out[j].Start)
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

// handleRequests serves the /debug/requests listing.
func (f *FlightRecorder) handleRequests(w http.ResponseWriter, r *http.Request) {
	list := f.List()
	if r.URL.Query().Get("format") == "json" || strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"requests": list})
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!doctype html><title>flight recorder</title><h1>Recorded requests</h1>\n")
	fmt.Fprintf(w, "<p>%d retained. <a href=\"?format=json\">JSON</a></p>\n", len(list))
	fmt.Fprint(w, "<table border=1 cellpadding=4><tr><th>trace</th><th>route</th><th>status</th><th>start</th><th>dur (ms)</th><th>spans</th><th>retained as</th></tr>\n")
	for _, s := range list {
		fmt.Fprintf(w, "<tr><td><a href=\"/trace/request/%s\">%s</a></td><td>%s</td><td>%d</td><td>%s</td><td>%.3f</td><td>%d</td><td>%s</td></tr>\n",
			html.EscapeString(s.TraceID), html.EscapeString(s.TraceID),
			html.EscapeString(s.Route), s.Status,
			s.Start.Format(time.RFC3339Nano), s.DurMS, s.Spans,
			html.EscapeString(s.Classes))
	}
	fmt.Fprint(w, "</table>\n")
}

// handleRequestTrace serves /trace/request/{id}: one retained trace as
// Chrome trace-event JSON.
func (f *FlightRecorder) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/trace/request/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "flight: expected /trace/request/{trace-id}", http.StatusBadRequest)
		return
	}
	f.serveTrace(w, r, id)
}

// handleLatestTrace serves /trace: the newest retained trace, through the
// same export path as /trace/request/{id}.
func (f *FlightRecorder) handleLatestTrace(w http.ResponseWriter, r *http.Request) {
	list := f.List()
	if len(list) == 0 {
		http.Error(w, "flight: no trace recorded yet", http.StatusNotFound)
		return
	}
	f.serveTrace(w, r, list[0].TraceID)
}

// serveTrace writes one retained trace as Chrome trace-event JSON;
// ?deterministic=1 (or =true) selects the byte-stable rendering.
func (f *FlightRecorder) serveTrace(w http.ResponseWriter, r *http.Request, id string) {
	t := f.Get(id)
	if t == nil {
		http.Error(w, "flight: no retained trace with that id", http.StatusNotFound)
		return
	}
	det := r.URL.Query().Get("deterministic")
	b, err := t.ChromeJSON(det == "1" || det == "true")
	if err != nil {
		http.Error(w, "flight: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("inline; filename=%q", "request-"+id+".trace.json"))
	w.Write(b)
}
