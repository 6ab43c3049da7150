package obs

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	traceID := NewTraceID()
	tp := FormatTraceparent(traceID, "req.j0.analyze")
	gotTrace, gotSpan, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected its own format", tp)
	}
	if gotTrace != traceID {
		t.Errorf("trace id %q, want %q", gotTrace, traceID)
	}
	if gotSpan != WireSpanID("req.j0.analyze") {
		t.Errorf("span id %q, want %q", gotSpan, WireSpanID("req.j0.analyze"))
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := FormatTraceparent(NewTraceID(), "req")
	bad := []string{
		"",
		"junk",
		valid[:54],             // truncated
		valid + "0",            // too long
		"01" + valid[2:],       // wrong version
		strings.ToUpper(valid), // uppercase hex is invalid per W3C
		"00-" + strings.Repeat("0", 32) + valid[35:], // all-zero trace id
		strings.Replace(valid, "-", "_", 1),
	}
	for _, s := range bad {
		if _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted invalid input", s)
		}
	}
}

func TestPeerSpanCodec(t *testing.T) {
	ps := PeerSpan{
		Name: "cache-plane get", Process: "replica-b", DurUS: 123.5,
		Attrs: map[string]string{"op": "get", "outcome": "hit"},
	}
	enc := EncodePeerSpan(ps)
	if enc == "" {
		t.Fatal("EncodePeerSpan returned empty")
	}
	got, ok := DecodePeerSpan(enc)
	if !ok {
		t.Fatal("DecodePeerSpan rejected its own encoding")
	}
	if got.Name != ps.Name || got.Process != ps.Process || got.DurUS != ps.DurUS ||
		got.Attrs["outcome"] != "hit" {
		t.Errorf("round trip got %+v, want %+v", got, ps)
	}
	for _, junk := range []string{"", "!!!not-base64!!!", "bm90IGpzb24", EncodePeerSpan(PeerSpan{})} {
		if _, ok := DecodePeerSpan(junk); ok {
			t.Errorf("DecodePeerSpan(%q) accepted junk", junk)
		}
	}
}

// TestDecodePeerSpanCaps pins the fail-closed caps on the peer-controlled
// Qwm-Span header: input at each cap decodes, one past it is rejected.
func TestDecodePeerSpanCaps(t *testing.T) {
	long := strings.Repeat("x", MaxPeerSpanString)
	attrs := func(n int) map[string]string {
		m := map[string]string{}
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("k%d", i)] = "v"
		}
		return m
	}
	// padded is a valid span whose encoding is exactly n JSON bytes long,
	// grown through a field the decoder ignores.
	padded := func(n int) string {
		const head, tail = `{"name":"get","pad":"`, `"}`
		js := head + strings.Repeat("x", n-len(head)-len(tail)) + tail
		return base64.RawURLEncoding.EncodeToString([]byte(js))
	}
	enc := func(ps PeerSpan) string { return EncodePeerSpan(ps) }
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"encoding at byte cap", padded(MaxPeerSpanBytes / 4 * 3), true},
		{"encoding over byte cap", padded(MaxPeerSpanBytes/4*3 + 1), false},
		{"attrs at count cap", enc(PeerSpan{Name: "get", Attrs: attrs(MaxPeerSpanAttrs)}), true},
		{"attrs over count cap", enc(PeerSpan{Name: "get", Attrs: attrs(MaxPeerSpanAttrs + 1)}), false},
		{"attr value at length cap", enc(PeerSpan{Name: "get", Attrs: map[string]string{"op": long}}), true},
		{"attr value over length cap", enc(PeerSpan{Name: "get", Attrs: map[string]string{"op": long + "x"}}), false},
		{"attr key over length cap", enc(PeerSpan{Name: "get", Attrs: map[string]string{long + "x": "get"}}), false},
		{"name over length cap", enc(PeerSpan{Name: long + "x"}), false},
		{"process over length cap", enc(PeerSpan{Name: "get", Process: long + "x"}), false},
		{"negative duration", enc(PeerSpan{Name: "get", DurUS: -1}), false},
	}
	for _, c := range cases {
		if _, ok := DecodePeerSpan(c.in); ok != c.ok {
			t.Errorf("%s: DecodePeerSpan ok=%v, want %v (len %d)", c.name, ok, c.ok, len(c.in))
		}
	}
}

// traceFixtureSpans builds a realistic span set spanning pseudo-levels,
// engine levels and a remote peer, in a deliberately scrambled order.
func traceFixtureSpans() []ReqSpan {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	spans := []ReqSpan{
		{ID: "req", Name: "POST /analyze", Level: LevelRequest, Item: 0, Start: base, Dur: 9 * time.Millisecond, Attrs: Attrs{Str("route", "analyze"), Int("status", 200)}},
		{ID: "req.enqueue", Parent: "req", Name: "enqueue", Level: LevelAdmit, Item: 0, Start: base, Dur: time.Microsecond, Attrs: Attrs{Int("requests", 1), Bool("admitted", true)}},
		{ID: "req.j0", Parent: "req", Name: "worker", Level: LevelWorker, Item: 0, Start: base, Dur: 8 * time.Millisecond, Attrs: Attrs{Str("status", "ok")}},
		{ID: "req.j0.analyze", Parent: "req.j0", Name: "analyze", Level: LevelAnalyze, Item: 0, Start: base, Dur: 7 * time.Millisecond, Attrs: Attrs{Int("stages", 2)}},
		{ID: "req.j0.analyze.L0", Parent: "req.j0.analyze", Name: "level 0", Level: 0, Item: -1, Start: base, Dur: time.Millisecond},
		{ID: "req.j0.analyze.L0.e0", Parent: "req.j0.analyze.L0", Name: "y0~rise", Level: 0, Item: 0, Start: base, Dur: time.Millisecond, Attrs: Attrs{Str("cache", "miss")}},
		{ID: "req.j0.analyze.L0.e0.k00000001.t0-remote", Parent: "req.j0.analyze.L0.e0", Name: "tier remote", Level: 0, Item: 0, Start: base, Dur: time.Millisecond, Attrs: Attrs{Str("tier", "remote"), Bool("hit", true)}},
		{ID: "req.j0.analyze.L0.e0.k00000001.t0-remote.a0", Parent: "req.j0.analyze.L0.e0.k00000001.t0-remote", Name: "remote get", Level: 0, Item: 0, Start: base, Dur: time.Millisecond, Attrs: Attrs{Str("outcome", "hit")}},
		{ID: "req.j0.analyze.L0.e0.k00000001.t0-remote.a0.peer", Parent: "req.j0.analyze.L0.e0.k00000001.t0-remote.a0", Name: "cache-plane get", Process: "replica-b", Level: 0, Item: 0, Start: base, Dur: time.Millisecond, Attrs: Attrs{Str("op", "get"), Str("outcome", "hit")}},
		{ID: "req.j0.analyze.L1", Parent: "req.j0.analyze", Name: "level 1", Level: 1, Item: -1, Start: base, Dur: time.Millisecond},
		{ID: "req.j0.analyze.L1.e3", Parent: "req.j0.analyze.L1", Name: "y1~fall", Level: 1, Item: 3, Start: base, Dur: time.Millisecond, Attrs: Attrs{Str("cache", "hit")}},
	}
	return spans
}

// TestDeterministicExportByteIdentical is the core determinism contract: the
// same spans added in ANY order, under DIFFERENT trace IDs and different
// wall-clock times, export byte-identical deterministic JSON.
func TestDeterministicExportByteIdentical(t *testing.T) {
	export := func(seed int64, shift time.Duration) []byte {
		at := NewActiveTrace("")
		spans := traceFixtureSpans()
		rand.New(rand.NewSource(seed)).Shuffle(len(spans), func(i, j int) {
			spans[i], spans[j] = spans[j], spans[i]
		})
		for _, s := range spans {
			s.Start = s.Start.Add(shift) // different wall clock per run
			at.Add(s)
		}
		rt := at.Finish("analyze", 200, 9*time.Millisecond+shift)
		b, err := rt.ChromeJSON(true)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := export(1, 0)
	b := export(99, 3*time.Hour)
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic exports differ:\n%s\nvs\n%s", a, b)
	}
	if bytes.Contains(a, []byte("trace_id")) {
		t.Error("deterministic export leaks the trace id")
	}
	if !bytes.Contains(a, []byte(`"deterministic":true`)) && !bytes.Contains(a, []byte(`"deterministic": true`)) {
		t.Error("deterministic export not marked deterministic")
	}
	// The wall-clock export, by contrast, must carry the trace id.
	at := NewActiveTrace("")
	for _, s := range traceFixtureSpans() {
		at.Add(s)
	}
	wall, err := at.Finish("analyze", 200, time.Millisecond).ChromeJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(wall, []byte(at.TraceID)) {
		t.Error("wall-clock export missing the trace id")
	}
}

// TestDeterministicExportProcesses pins the process→pid mapping: local is
// pid 1, remote replicas sorted from 2, with process_name metadata events.
func TestDeterministicExportProcesses(t *testing.T) {
	at := NewActiveTrace("")
	for _, s := range traceFixtureSpans() {
		at.Add(s)
	}
	b, err := at.Finish("analyze", 200, time.Millisecond).ChromeJSON(true)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	sawLocal, sawRemote, sawPeerSpan := false, false, false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" && ev.Ph == "M" {
			switch ev.Args["name"] {
			case "local":
				sawLocal = ev.Pid == 1
			case "replica replica-b":
				sawRemote = ev.Pid == 2
			}
		}
		if ev.Name == "cache-plane get" && ev.Pid == 2 {
			sawPeerSpan = true
		}
	}
	if !sawLocal || !sawRemote {
		t.Errorf("process metadata wrong: local-pid1 %v, replica-pid2 %v", sawLocal, sawRemote)
	}
	if !sawPeerSpan {
		t.Error("peer span not attributed to the remote pid")
	}
}

func TestTraceFromContext(t *testing.T) {
	if _, ok := TraceFrom(nil); ok {
		t.Error("TraceFrom(nil) claimed a trace")
	}
	at := NewActiveTrace("deadbeefdeadbeefdeadbeefdeadbeef")
	if at.TraceID != "deadbeefdeadbeefdeadbeefdeadbeef" {
		t.Errorf("NewActiveTrace ignored the inbound trace id: %q", at.TraceID)
	}
	ctx := ContextWithTrace(context.Background(), TraceRef{T: at, Parent: "req", Level: LevelRequest})
	ref, ok := TraceFrom(ctx)
	if !ok || ref.T != at || ref.Parent != "req" {
		t.Errorf("TraceFrom round trip: %+v ok=%v", ref, ok)
	}
	if id := TraceIDFrom(ctx); id != at.TraceID {
		t.Errorf("TraceIDFrom %q", id)
	}
	if id := TraceIDFrom(context.Background()); id != "" {
		t.Errorf("TraceIDFrom(untraced) %q, want empty", id)
	}
}
