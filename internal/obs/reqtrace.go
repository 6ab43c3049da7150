package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the request-scoped distributed-tracing layer: a trace context
// minted at the service front door (POST /analyze), carried through the
// admission queue, the worker pool, the engine (which writes its own
// analyze, level, eval and tier-probe spans; internal/sta/trace.go) and the
// remote-cache client — which forwards it over the wire so a peer replica's
// cache plane can contribute a child span to the same trace.
//
// Span identity is SEMANTIC, not random: every span's ID is a "."-separated
// path describing its causal position ("req", "req.j0", "req.j0.analyze",
// "req.j0.analyze.L2.e5", ...). Two runs of the same request therefore mint
// identical span IDs regardless of scheduling, which is what makes the
// Deterministic() export byte-identical at any Workers setting and across
// replicas — no ID remapping pass is needed. The wire form (traceparent)
// hashes the semantic ID to the 16-hex span-id field W3C requires.

// Pseudo-levels order the request-plumbing spans ahead of the engine's
// dependency levels (which are >= 0) in the deterministic (Level, Item, ID)
// sort. The gaps are deliberate headroom for future hops.
const (
	LevelRequest = -100 // the root request span
	LevelAdmit   = -99  // queue admission
	LevelWorker  = -98  // worker-pool execution
	LevelAnalyze = -97  // one engine Analyze
)

// ReqSpan is one completed span of a request trace. Spans are recorded at
// completion (like the Observer's StageEval events), so there is no
// open-span bookkeeping to race on.
type ReqSpan struct {
	// ID is the semantic path identity; Parent the enclosing span's ID
	// ("" for the root). A parent's ID is always a prefix of its children's,
	// so within one (Level, Item) tie the deterministic sort emits parents
	// first.
	ID     string
	Parent string
	// Name is the human-facing label.
	Name string
	// Process names the replica that recorded the span; "" is the local
	// process. The Chrome export maps processes to pids deterministically
	// (local first, then remote names sorted).
	Process string
	// Level and Item are the deterministic sort identity, mirroring the
	// Observer contract: engine spans carry their dependency level and item
	// index, request-plumbing spans carry the pseudo-levels above.
	Level int
	Item  int
	// Start and Dur are wall-clock; the deterministic export strips both.
	Start time.Time
	Dur   time.Duration
	// Thread is the span's lane within its process in the wall-clock
	// export: 0 for plumbing, analyze and level spans, worker slot + 1 for
	// eval spans, so a parallel run renders one Perfetto track per worker.
	// Schedule-dependent; the deterministic export puts every span on 0.
	Thread int
	// Attrs carries ONLY schedule-independent attributes (cache outcomes,
	// tier names, counts). Durations, worker ids and queue depths must never
	// appear here — the deterministic export serializes Attrs verbatim.
	Attrs Attrs
}

// ActiveTrace accumulates the spans of one in-flight request. Spans arrive
// concurrently from worker goroutines; Add serializes them with a mutex and
// appends each to the trace's one span record (record.go).
type ActiveTrace struct {
	TraceID string
	Start   time.Time

	mu  sync.Mutex
	enc spanEncoder
}

// activeTraceBuf is the initial capacity of a trace's span record: room for
// a small decoder request's spans before the first growth.
const activeTraceBuf = 2048

// NewActiveTrace starts a trace. An empty traceID mints a fresh random one
// (the caller passes an inbound traceparent's ID to join an existing trace).
func NewActiveTrace(traceID string) *ActiveTrace {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &ActiveTrace{TraceID: traceID, Start: time.Now(),
		enc: spanEncoder{buf: make([]byte, 0, activeTraceBuf)}}
}

// Add records one completed span. The span is encoded on the spot: nothing
// it references is kept, so callers may build it from stack temporaries.
func (t *ActiveTrace) Add(s ReqSpan) {
	t.mu.Lock()
	t.enc.add(&s, t.Start)
	t.mu.Unlock()
}

// Finish freezes the trace into its completed, exportable form: the span
// record copied to its exact size. Spans added after Finish (an async batch
// still draining) affect only later Finish calls, never the returned value.
func (t *ActiveTrace) Finish(route string, status int, dur time.Duration) *RequestTrace {
	t.mu.Lock()
	rec := make([]byte, len(t.enc.buf))
	copy(rec, t.enc.buf)
	n := t.enc.n
	t.mu.Unlock()
	return &RequestTrace{
		TraceID: t.TraceID, Route: route, Status: status,
		Start: t.Start, Dur: dur, rec: rec, n: n,
	}
}

// TraceRef is the context-carried handle: the trace plus the span ID new
// child spans should parent under, and the (Level, Item) sort identity
// children inherit when they have no better one of their own.
type TraceRef struct {
	T      *ActiveTrace
	Parent string
	Level  int
	Item   int
}

type traceCtxKey struct{}

// ContextWithTrace attaches a trace reference to a context.
func ContextWithTrace(ctx context.Context, ref TraceRef) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, ref)
}

// TraceFrom extracts the trace reference, if any. One Value lookup — the
// only cost tracing imposes on an untraced request.
func TraceFrom(ctx context.Context) (TraceRef, bool) {
	if ctx == nil {
		return TraceRef{}, false
	}
	ref, ok := ctx.Value(traceCtxKey{}).(TraceRef)
	return ref, ok && ref.T != nil
}

// TraceIDFrom returns the context's trace ID, or "".
func TraceIDFrom(ctx context.Context) string {
	if ref, ok := TraceFrom(ctx); ok {
		return ref.T.TraceID
	}
	return ""
}

// NewTraceID mints a random 32-hex trace ID (the W3C trace-id width).
func NewTraceID() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to a
		// fixed ID rather than panic in the serving path.
		return "00000000000000000000000000000001"
	}
	return hex.EncodeToString(b[:])
}

// WireSpanID derives the 16-hex W3C parent-id field from a semantic span ID
// (FNV-64a — stable across processes and runs).
func WireSpanID(semantic string) string {
	h := fnv.New64a()
	h.Write([]byte(semantic))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], h.Sum64())
	return hex.EncodeToString(b[:])
}

// FormatTraceparent renders the W3C traceparent header for a semantic span:
// version 00, the trace ID, the hashed span ID, flags 01 (sampled).
func FormatTraceparent(traceID, semanticSpanID string) string {
	return "00-" + traceID + "-" + WireSpanID(semanticSpanID) + "-01"
}

// ParseTraceparent splits and validates a traceparent header, returning the
// trace ID and (hashed) parent span ID.
func ParseTraceparent(s string) (traceID, spanID string, ok bool) {
	if len(s) != 55 || s[:3] != "00-" || s[35] != '-' || s[52] != '-' {
		return "", "", false
	}
	traceID, spanID = s[3:35], s[36:52]
	if !isHex(traceID) || !isHex(spanID) || !isHex(s[53:]) {
		return "", "", false
	}
	if traceID == "00000000000000000000000000000000" {
		return "", "", false
	}
	return traceID, spanID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// PeerSpan is the wire form of one remote-recorded span, returned by a
// peer's cache plane in the Qwm-Span response header and re-parented into
// the caller's trace under the remote get span that made the request.
type PeerSpan struct {
	Name    string            `json:"name"`
	Process string            `json:"process"`
	DurUS   float64           `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// EncodePeerSpan renders the header value (base64url JSON — header-safe).
func EncodePeerSpan(ps PeerSpan) string {
	b, err := json.Marshal(ps)
	if err != nil {
		return ""
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// Caps on a Qwm-Span header value. A peer controls the header and its span
// is merged into our own trace, so input past any cap is rejected whole,
// never truncated. A genuine cache-plane span is well under all three.
const (
	MaxPeerSpanBytes  = 2048 // encoded header value
	MaxPeerSpanAttrs  = 8    // entries in Attrs
	MaxPeerSpanString = 256  // Name, Process, and each attr key and value
)

// DecodePeerSpan parses a Qwm-Span header value. It fails closed: anything
// malformed, over a MaxPeerSpan* cap, nameless or with a negative duration
// is rejected.
func DecodePeerSpan(s string) (PeerSpan, bool) {
	if len(s) > MaxPeerSpanBytes {
		return PeerSpan{}, false
	}
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return PeerSpan{}, false
	}
	var ps PeerSpan
	if err := json.Unmarshal(b, &ps); err != nil || ps.Name == "" || ps.DurUS < 0 ||
		len(ps.Name) > MaxPeerSpanString || len(ps.Process) > MaxPeerSpanString ||
		len(ps.Attrs) > MaxPeerSpanAttrs {
		return PeerSpan{}, false
	}
	for k, v := range ps.Attrs {
		if len(k) > MaxPeerSpanString || len(v) > MaxPeerSpanString {
			return PeerSpan{}, false
		}
	}
	return ps, true
}

// KeyHash is a short deterministic content hash, 8 hex digits, used to
// disambiguate sibling span groups keyed by cache key (one eval may look up
// two keys under slew-bucket interpolation).
func KeyHash(key []byte) string {
	h := fnv.New32a()
	h.Write(key)
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], h.Sum32())
	return hex.EncodeToString(b[:])
}

// RequestTrace is one completed request's span tree, the unit the flight
// recorder retains and the /trace/request/{id} endpoint exports. Past its
// header it holds only the exact-size span record (record.go), which
// Spans decodes on demand.
type RequestTrace struct {
	TraceID string
	Route   string
	Status  int
	Start   time.Time
	Dur     time.Duration

	rec []byte
	n   int
}

// Spans decodes the trace's spans, in the order they were recorded.
func (rt *RequestTrace) Spans() []ReqSpan {
	// The record is written only by ActiveTrace, so it always decodes.
	spans, _ := decodeSpans(rt.rec, rt.Start, rt.n)
	return spans
}

// NumSpans reports how many spans the trace holds, without decoding them.
func (rt *RequestTrace) NumSpans() int { return rt.n }

// Err reports whether the request classifies as errored for retention.
func (rt *RequestTrace) Err() bool { return rt.Status >= 400 }

// sortSpansDeterministic orders spans by the deterministic identity
// (Level, Item, ID). Semantic IDs make the ID tie-break stable: a parent's
// ID is a strict prefix of its children's, so parents sort first.
func sortSpansDeterministic(spans []ReqSpan) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Level != spans[j].Level {
			return spans[i].Level < spans[j].Level
		}
		if spans[i].Item != spans[j].Item {
			return spans[i].Item < spans[j].Item
		}
		return spans[i].ID < spans[j].ID
	})
}

// processPids maps span processes to Chrome pids deterministically: the
// local process ("") is pid 1, remote replica names follow sorted from 2.
func processPids(spans []ReqSpan) (map[string]int, []string) {
	var remotes []string
	seen := map[string]bool{}
	for _, s := range spans {
		if s.Process != "" && !seen[s.Process] {
			seen[s.Process] = true
			remotes = append(remotes, s.Process)
		}
	}
	sort.Strings(remotes)
	pids := map[string]int{"": 1}
	for i, name := range remotes {
		pids[name] = 2 + i
	}
	return pids, remotes
}

// ChromeJSON serializes the trace in the Chrome trace-event object format
// (Perfetto loads it directly). Wall-clock mode keeps real timestamps and
// one lane per worker slot. Deterministic mode orders spans by (Level, Item,
// ID), replaces wall-clock timestamps with rank ticks and unit durations,
// puts every span on lane 0 and redacts the random trace ID, so two
// identically-seeded runs at any Workers setting serialize to byte-identical
// JSON.
func (rt *RequestTrace) ChromeJSON(deterministic bool) ([]byte, error) {
	md := map[string]any{
		"recorder": "qwm/internal/obs.RequestTrace",
		"route":    rt.Route,
		"status":   rt.Status,
	}
	if deterministic {
		md["deterministic"] = true
	} else {
		md["trace_id"] = rt.TraceID
	}
	return ChromeTraceJSON(rt.events(deterministic), md)
}

func (rt *RequestTrace) events(deterministic bool) []TraceEvent {
	spans := rt.Spans()
	if deterministic {
		sortSpansDeterministic(spans)
	} else {
		sort.Slice(spans, func(i, j int) bool {
			if !spans[i].Start.Equal(spans[j].Start) {
				return spans[i].Start.Before(spans[j].Start)
			}
			return spans[i].ID < spans[j].ID
		})
	}
	pids, remotes := processPids(spans)
	var events []TraceEvent
	name := func(pid int, label string) TraceEvent {
		return TraceEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": label}}
	}
	events = append(events, name(1, "local"))
	for _, r := range remotes {
		events = append(events, name(pids[r], "replica "+r))
	}
	if !deterministic {
		events = append(events, workerLanes(spans, pids)...)
	}
	for rank, s := range spans {
		args := make(map[string]any, len(s.Attrs)+2)
		args["id"] = s.ID
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value()
		}
		ev := TraceEvent{
			Name: s.Name, Cat: "request", Ph: "X",
			Pid: pids[s.Process], Args: args,
		}
		if deterministic {
			ev.TS = float64(rank)
			ev.Dur = durp(1)
		} else {
			ev.Tid = s.Thread
			ev.TS = s.Start.Sub(rt.Start).Seconds() * 1e6
			ev.Dur = durp(s.Dur.Seconds() * 1e6)
		}
		events = append(events, ev)
	}
	return events
}

// workerLanes names the wall-clock export's worker lanes: one thread_name
// event per (process, Thread > 0) pair, in (pid, tid) order.
func workerLanes(spans []ReqSpan, pids map[string]int) []TraceEvent {
	type lane struct{ pid, tid int }
	seen := map[lane]bool{}
	var lanes []lane
	for _, s := range spans {
		l := lane{pids[s.Process], s.Thread}
		if l.tid > 0 && !seen[l] {
			seen[l] = true
			lanes = append(lanes, l)
		}
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})
	out := make([]TraceEvent, len(lanes))
	for i, l := range lanes {
		out[i] = TraceEvent{Name: "thread_name", Ph: "M", Pid: l.pid, Tid: l.tid,
			Args: map[string]any{"name": "worker " + strconv.Itoa(l.tid-1)}}
	}
	return out
}
