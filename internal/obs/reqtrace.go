package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// This file is the request-scoped distributed-tracing layer: a trace context
// minted at the service front door (POST /analyze), carried through the
// admission queue, the worker pool, the engine (bridged from the existing
// Observer span stream), the cache-tier probes and the remote-cache client —
// which forwards it over the wire so a peer replica's cache plane can
// contribute a child span to the same trace.
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
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// Name is the human-facing label.
	Name string `json:"name"`
	// Process names the replica that recorded the span; "" is the local
	// process. The Chrome export maps processes to pids deterministically
	// (local first, then remote names sorted).
	Process string `json:"process,omitempty"`
	// Level and Item are the deterministic sort identity, mirroring the
	// Observer contract: engine spans carry their dependency level and item
	// index, request-plumbing spans carry the pseudo-levels above.
	Level int `json:"level"`
	Item  int `json:"item"`
	// Start and Dur are wall-clock; the deterministic export strips both.
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur"`
	// Thread is the span's lane within its process in the wall-clock
	// export: 0 for plumbing, analyze and level spans, worker slot + 1 for
	// eval spans, so a parallel run renders one Perfetto track per worker.
	// Schedule-dependent; the deterministic export puts every span on 0.
	Thread int `json:"thread,omitempty"`
	// Attrs carries ONLY schedule-independent attributes (cache outcomes,
	// tier names, counts). Durations, worker ids and queue depths must never
	// appear here — the deterministic export serializes Attrs verbatim.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// ActiveTrace accumulates the spans of one in-flight request. Spans arrive
// concurrently from worker goroutines; Add serializes them with a mutex.
type ActiveTrace struct {
	TraceID string
	Start   time.Time

	mu    sync.Mutex
	spans []ReqSpan
}

// NewActiveTrace starts a trace. An empty traceID mints a fresh random one
// (the caller passes an inbound traceparent's ID to join an existing trace).
func NewActiveTrace(traceID string) *ActiveTrace {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &ActiveTrace{TraceID: traceID, Start: time.Now()}
}

// Add records one completed span.
func (t *ActiveTrace) Add(s ReqSpan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Finish freezes the trace into its completed, exportable form. Spans added
// after Finish (an async batch still draining) affect only later Finish
// calls, never the returned value.
func (t *ActiveTrace) Finish(route string, status int, dur time.Duration) *RequestTrace {
	t.mu.Lock()
	spans := append([]ReqSpan(nil), t.spans...)
	t.mu.Unlock()
	return &RequestTrace{
		TraceID: t.TraceID, Route: route, Status: status,
		Start: t.Start, Dur: dur, Spans: spans,
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
	return fmt.Sprintf("%016x", h.Sum64())
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
// the caller's trace under the attempt span that made the request.
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

// KeyHash32 is a short deterministic content hash used to disambiguate
// sibling span groups keyed by cache key (one eval may look up two keys
// under slew-bucket interpolation).
func KeyHash32(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}

// TraceBridge adapts the engine's Observer span stream into request-trace
// spans: one analyze span, one span per dependency level, one per StageEval.
// It is the only path from the engine into a trace — the service front door
// and cmd/sta -trace both reach it by putting a TraceRef on the Analyze
// context. It is constructed per-Analyze from that TraceRef and composed
// with any user observer via Multi. StageEval events may arrive concurrently
// (Workers > 1); level bookkeeping is mutex-guarded and StageEval touches
// only the ActiveTrace, which serializes internally.
//
// The engine has no LevelEnd event (level completion is metrics-only), so a
// level's span is emitted when the NEXT LevelStart — or AnalyzeEnd — arrives.
type TraceBridge struct {
	ref       TraceRef
	analyzeID string

	mu        sync.Mutex
	start     time.Time
	info      AnalyzeStartInfo
	haveLevel bool
	curLevel  LevelStartInfo
	curStart  time.Time
}

// NewTraceBridge builds the bridge for one Analyze parented under
// ref.Parent (the worker span).
func NewTraceBridge(ref TraceRef) *TraceBridge {
	return &TraceBridge{ref: ref, analyzeID: ref.Parent + ".analyze"}
}

// AnalyzeID returns the analyze span's ID — the parent for tier-probe spans.
func (b *TraceBridge) AnalyzeID() string { return b.analyzeID }

func (b *TraceBridge) AnalyzeStart(info AnalyzeStartInfo) {
	b.mu.Lock()
	b.start = time.Now()
	b.info = info
	b.mu.Unlock()
}

func (b *TraceBridge) LevelStart(info LevelStartInfo) {
	now := time.Now()
	b.mu.Lock()
	if b.haveLevel {
		b.emitLevelLocked(now)
	}
	b.haveLevel = true
	b.curLevel = info
	b.curStart = now
	b.mu.Unlock()
}

// emitLevelLocked closes the open level span. Caller holds b.mu.
func (b *TraceBridge) emitLevelLocked(end time.Time) {
	l := b.curLevel
	b.ref.T.Add(ReqSpan{
		ID:     fmt.Sprintf("%s.L%d", b.analyzeID, l.Level),
		Parent: b.analyzeID,
		Name:   fmt.Sprintf("level %d", l.Level),
		Level:  l.Level, Item: -1,
		Start: b.curStart, Dur: end.Sub(b.curStart),
		Attrs: map[string]any{"level": l.Level, "stages": l.Stages, "items": l.Items},
	})
}

func (b *TraceBridge) StageEval(info StageEvalInfo) {
	end := time.Now()
	cache := "miss"
	if info.CacheHit {
		cache = "hit"
	}
	// The solver statistics belong to the cache entry (a hit carries the
	// stats of the evaluation that produced it, persisted in tier records),
	// so they are schedule-independent like the cache outcome and tier.
	attrs := map[string]any{
		"output": info.Output, "dir": info.Direction, "cache": cache,
		"nr_iters":        info.QWM.NRIters,
		"regions":         info.QWM.Regions,
		"dense_fallbacks": info.QWM.DenseFallbacks,
		"cap_resolves":    info.QWM.CapResolves,
	}
	if info.Tier != "" {
		attrs["tier"] = info.Tier
	}
	if info.Err != "" {
		attrs["err"] = info.Err
	}
	levelID := fmt.Sprintf("%s.L%d", b.analyzeID, info.Level)
	b.ref.T.Add(ReqSpan{
		ID:     fmt.Sprintf("%s.e%d", levelID, info.Item),
		Parent: levelID,
		Name:   info.Output + "~" + info.Direction,
		Level:  info.Level, Item: info.Item,
		Start: end.Add(-info.Duration), Dur: info.Duration,
		Thread: info.Worker + 1,
		Attrs:  attrs,
	})
}

func (b *TraceBridge) AnalyzeEnd(info AnalyzeEndInfo) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.haveLevel {
		b.emitLevelLocked(now)
		b.haveLevel = false
	}
	attrs := map[string]any{
		"stages":  b.info.Stages,
		"levels":  b.info.Levels,
		"items":   b.info.Items,
		"outputs": b.info.Outputs,
		// Deterministic per the single-flight cache contract (the existing
		// trace gate pins this); the Workers setting and durations are not.
		"cache_hits":       info.CacheHits,
		"cache_misses":     info.CacheMisses,
		"stages_evaluated": info.StagesEvaluated,
		"eval_errors":      info.EvalErrors,
		"slew_fallbacks":   info.SlewFallbacks,
	}
	if info.Cancelled {
		attrs["cancelled"] = true
	}
	if info.Err != nil {
		attrs["err"] = info.Err.Error()
	}
	b.ref.T.Add(ReqSpan{
		ID:     b.analyzeID,
		Parent: b.ref.Parent,
		Name:   "analyze",
		Level:  LevelAnalyze, Item: b.ref.Item,
		Start: b.start, Dur: now.Sub(b.start),
		Attrs: attrs,
	})
}

// RequestTrace is one completed request's span tree, the unit the flight
// recorder retains and the /trace/request/{id} endpoint exports.
type RequestTrace struct {
	TraceID string        `json:"trace_id"`
	Route   string        `json:"route"`
	Status  int           `json:"status"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur"`
	Spans   []ReqSpan     `json:"spans"`
}

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
	spans := append([]ReqSpan(nil), rt.Spans...)
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
		args := map[string]any{"id": s.ID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
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
			Args: map[string]any{"name": fmt.Sprintf("worker %d", l.tid-1)}}
	}
	return out
}
