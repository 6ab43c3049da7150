package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"html"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is the always-on forensic store of completed request
// traces: a bounded lock-sharded ring of the most recent requests, plus two
// retention classes that survive ring churn — the slowest N and the last N
// errored requests. Recording is a non-blocking channel send (a full queue
// drops and counts, never stalls the serving path); a single flusher
// goroutine owns all insertion, so the rings need locks only against
// readers. Flush() is an ack barrier and Close() joins the flusher — the
// same lifecycle idiom as the remote-cache write-behind queue.
//
// Mount the HTTP surface via obs.Server.Flight: /debug/requests lists
// retained traces (HTML, or JSON with ?format=json), /trace/request/{id}
// exports one as Chrome trace-event JSON and /trace exports the newest
// (?deterministic=1 for the byte-stable rendering).
type FlightRecorder struct {
	shards  [flightShards]flightShard
	slowMu  sync.Mutex
	slow    []*RequestTrace // sorted by Dur descending, capped at slowN
	errMu   sync.Mutex
	errs    []*RequestTrace // most recent errored, capped at errN
	queue   chan flightMsg
	done    chan struct{}
	joined  chan struct{}
	closed  atomic.Bool
	dropped atomic.Int64

	ringPerShard, slowN, errN int
}

const (
	flightShards       = 8
	flightRingPerShard = 16 // 128 recent traces total
	flightSlowN        = 16
	flightErrN         = 16
	flightQueueLen     = 256
)

type flightShard struct {
	mu   sync.Mutex
	ring []*RequestTrace
	next int
}

type flightMsg struct {
	t   *RequestTrace
	ack chan struct{}
}

// NewFlightRecorder starts an empty recorder (and its flusher goroutine).
func NewFlightRecorder() *FlightRecorder {
	f := &FlightRecorder{
		queue:        make(chan flightMsg, flightQueueLen),
		done:         make(chan struct{}),
		joined:       make(chan struct{}),
		ringPerShard: flightRingPerShard,
		slowN:        flightSlowN,
		errN:         flightErrN,
	}
	go f.run()
	return f
}

// Record enqueues one completed trace. Non-blocking: a full queue drops the
// trace and counts it — forensics must never add latency to serving.
func (f *FlightRecorder) Record(t *RequestTrace) {
	if f == nil || t == nil || f.closed.Load() {
		return
	}
	select {
	case f.queue <- flightMsg{t: t}:
	default:
		f.dropped.Add(1)
	}
}

// Dropped reports how many traces were discarded on a full queue.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	return f.dropped.Load()
}

// Flush blocks until every trace recorded before the call is inserted.
func (f *FlightRecorder) Flush() {
	if f == nil || f.closed.Load() {
		return
	}
	ack := make(chan struct{})
	select {
	case f.queue <- flightMsg{ack: ack}:
		select {
		case <-ack:
		case <-f.joined:
		}
	case <-f.done:
	}
}

// Close drains the queue and joins the flusher goroutine. Idempotent.
func (f *FlightRecorder) Close() {
	if f == nil || !f.closed.CompareAndSwap(false, true) {
		if f != nil {
			<-f.joined
		}
		return
	}
	close(f.done)
	<-f.joined
}

func (f *FlightRecorder) run() {
	defer close(f.joined)
	for {
		select {
		case m := <-f.queue:
			f.handle(m)
		case <-f.done:
			for {
				select {
				case m := <-f.queue:
					f.handle(m)
				default:
					return
				}
			}
		}
	}
}

func (f *FlightRecorder) handle(m flightMsg) {
	if m.ack != nil {
		close(m.ack)
		return
	}
	f.insert(m.t)
}

func (f *FlightRecorder) insert(t *RequestTrace) {
	sh := &f.shards[f.shardOf(t.TraceID)]
	sh.mu.Lock()
	if len(sh.ring) < f.ringPerShard {
		sh.ring = append(sh.ring, t)
	} else {
		sh.ring[sh.next] = t
		sh.next = (sh.next + 1) % f.ringPerShard
	}
	sh.mu.Unlock()

	f.slowMu.Lock()
	f.slow = append(f.slow, t)
	sort.Slice(f.slow, func(i, j int) bool { return f.slow[i].Dur > f.slow[j].Dur })
	if len(f.slow) > f.slowN {
		f.slow = f.slow[:f.slowN]
	}
	f.slowMu.Unlock()

	if t.Err() {
		f.errMu.Lock()
		f.errs = append(f.errs, t)
		if len(f.errs) > f.errN {
			f.errs = append(f.errs[:0], f.errs[len(f.errs)-f.errN:]...)
		}
		f.errMu.Unlock()
	}
}

func (f *FlightRecorder) shardOf(traceID string) int {
	h := fnv.New32a()
	h.Write([]byte(traceID))
	return int(h.Sum32() % flightShards)
}

// Get returns the retained trace with the given ID, searching the recent
// ring and both retention classes.
func (f *FlightRecorder) Get(traceID string) *RequestTrace {
	if f == nil {
		return nil
	}
	sh := &f.shards[f.shardOf(traceID)]
	sh.mu.Lock()
	for _, t := range sh.ring {
		if t.TraceID == traceID {
			sh.mu.Unlock()
			return t
		}
	}
	sh.mu.Unlock()
	f.slowMu.Lock()
	for _, t := range f.slow {
		if t.TraceID == traceID {
			f.slowMu.Unlock()
			return t
		}
	}
	f.slowMu.Unlock()
	f.errMu.Lock()
	defer f.errMu.Unlock()
	for _, t := range f.errs {
		if t.TraceID == traceID {
			return t
		}
	}
	return nil
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
	collect := func(t *RequestTrace, class string) {
		e, ok := byID[t.TraceID]
		if !ok {
			e = &entry{t: t}
			byID[t.TraceID] = e
		}
		e.classes = append(e.classes, class)
	}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, t := range sh.ring {
			collect(t, "recent")
		}
		sh.mu.Unlock()
	}
	f.slowMu.Lock()
	for _, t := range f.slow {
		collect(t, "slow")
	}
	f.slowMu.Unlock()
	f.errMu.Lock()
	for _, t := range f.errs {
		collect(t, "error")
	}
	f.errMu.Unlock()

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
		json.NewEncoder(w).Encode(map[string]any{
			"requests": list,
			"dropped":  f.Dropped(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!doctype html><title>flight recorder</title><h1>Recorded requests</h1>\n")
	fmt.Fprintf(w, "<p>%d retained, %d dropped on a full queue. <a href=\"?format=json\">JSON</a></p>\n", len(list), f.Dropped())
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
