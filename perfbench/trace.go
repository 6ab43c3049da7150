package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// keepTraced bounds how many ops keep their spans for the Chrome trace; the
// per-layer aggregates cover every op. Without the bound, a 10 s run would
// retain ~10^5 spans and the heap-growth reading would measure the tracer.
const keepTraced = 64

// span is one timed call into a layer, recorded from the benchmark's side of
// the call.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int    // index of the parent span, -1 for a root
	Req        string // request id shared by every span of one op
}

// tracer keeps spans in memory and accumulates per-layer self time over all
// ops. A nil *tracer records nothing, so untraced phases pay one branch.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	self  map[string]time.Duration // layer → summed self time over all ops
	ops   int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]time.Duration{}}
}

// keep reports whether op i retains its spans for the Chrome trace.
func (t *tracer) keep(i int64) bool { return t != nil && i < keepTraced }

// add records one span and returns its index (parent for later spans).
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// addSelf charges one op's self time per layer. The layers of one op tile
// its measured latency, so their sum over a phase is its summed latency.
func (t *tracer) addSelf(layers map[string]time.Duration) { t.addTotals(layers, 1) }

// addTotals charges self time summed over ops ops.
func (t *tracer) addTotals(layers map[string]time.Duration, ops int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops += ops
	for k, v := range layers {
		t.self[k] += v
	}
}

// selfMeans returns the mean self time per op of each layer, in ms.
func (t *tracer) selfMeans() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for k, v := range t.self {
		out[k] = float64(v) / float64(time.Millisecond) / float64(max(t.ops, 1))
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the retained spans as Chrome-trace JSON (load it in
// chrome://tracing or Perfetto). Spans of one request share a tid.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		tid, ok := tids[s.Req]
		if !ok {
			tid = len(tids) + 1
			tids[s.Req] = tid
		}
		args := map[string]any{"req": s.Req, "id": i}
		if s.Parent >= 0 {
			args["parent"] = s.Parent
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// interval is a closed time range in nanoseconds since an arbitrary origin.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs (overlaps counted once).
// ivs is sorted in place.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		if !open || iv.lo > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv.lo, iv.hi, true
			continue
		}
		curHi = max(curHi, iv.hi)
	}
	if open {
		total += curHi - curLo
	}
	return total
}
