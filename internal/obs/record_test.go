package obs

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

// recordOf encodes spans through an ActiveTrace started at base and returns
// the frozen trace.
func recordOf(base time.Time, spans []ReqSpan) *RequestTrace {
	at := &ActiveTrace{TraceID: "t", Start: base}
	for _, s := range spans {
		at.Add(s)
	}
	return at.Finish("test", 200, time.Millisecond)
}

// sameSpans reports whether two span lists are equal field by field, with
// starts compared as offsets from base and empty attribute lists equal.
func sameSpans(t *testing.T, base time.Time, got, want []ReqSpan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Start.Sub(base) != w.Start.Sub(base) {
			t.Fatalf("span %d start offset %v, want %v", i, g.Start.Sub(base), w.Start.Sub(base))
		}
		g.Start, w.Start = time.Time{}, time.Time{}
		if len(g.Attrs) == 0 && len(w.Attrs) == 0 {
			g.Attrs, w.Attrs = nil, nil
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("span %d decoded as\n%+v\nwant\n%+v", i, g, w)
		}
	}
}

// TestTraceRecordRoundTrip: every attribute kind (table and inline keys,
// negative and extreme ints, empty strings, both bools), a peer span with a
// process, spans without attributes, negative levels and items, parentless
// and non-prefix IDs, repeated parents and negative start offsets all decode
// to what was added.
func TestTraceRecordRoundTrip(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	spans := append(traceFixtureSpans(), []ReqSpan{
		{ID: "req.j0.analyze.L0.e1", Parent: "req.j0.analyze.L0", Name: "y0~fall", Level: 0, Item: 1,
			Start: base.Add(-3 * time.Millisecond), Dur: 0, Thread: 7,
			Attrs: Attrs{Int("nr_iters", math.MaxInt64), Int64("cache_hits", math.MinInt64), Int("x-custom", -5),
				Str("err", ""), Str("", "empty key"), Bool("cancelled", false), Bool("hit", true)}},
		{ID: "req.j0.analyze.L0.e2", Parent: "req.j0.analyze.L0", Name: "", Level: -1, Item: -1, Start: base.Add(time.Hour), Attrs: Attrs{}},
		{ID: "other", Parent: "req.j0", Name: "not under its parent", Level: LevelAnalyze, Item: 2, Start: base, Dur: -time.Nanosecond},
		{ID: "p", Parent: "p", Name: "id equals parent", Process: "peer", Level: 3, Item: 4, Start: base},
		{Name: "no ids"},
	}...)
	rt := recordOf(base, spans)
	if rt.NumSpans() != len(spans) {
		t.Errorf("NumSpans %d, want %d", rt.NumSpans(), len(spans))
	}
	sameSpans(t, base, rt.Spans(), spans)

	// A second Finish sees later spans; the first stays as it was.
	at := &ActiveTrace{TraceID: "t", Start: base}
	at.Add(spans[0])
	first := at.Finish("test", 200, 0)
	at.Add(spans[1])
	if first.NumSpans() != 1 || len(first.Spans()) != 1 || at.Finish("test", 200, 0).NumSpans() != 2 {
		t.Error("a span added after Finish changed the frozen trace")
	}
	if cap(first.rec) != len(first.rec) {
		t.Errorf("retained record has capacity %d for %d bytes; it must be exact-size", cap(first.rec), len(first.rec))
	}
}

// TestTraceRecordWallClockExact: the wall-clock export's timestamps,
// durations and lanes are exactly what the spans' own times give, relative
// to the trace start.
func TestTraceRecordWallClockExact(t *testing.T) {
	at := NewActiveTrace("")
	spans := traceFixtureSpans()
	for i := range spans {
		spans[i].Start = at.Start.Add(time.Duration(i*1237+1) * time.Nanosecond)
		spans[i].Dur = time.Duration(i*991+3) * time.Nanosecond
		spans[i].Thread = i % 3
		at.Add(spans[i])
	}
	b, err := at.Finish("analyze", 200, time.Millisecond).ChromeJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]ReqSpan{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	seen := 0
	for _, ev := range parseChrome(t, b) {
		if ev.Ph != "X" {
			continue
		}
		s := byID[ev.Args["id"].(string)]
		if ev.TS != s.Start.Sub(at.Start).Seconds()*1e6 || *ev.Dur != s.Dur.Seconds()*1e6 || ev.Tid != s.Thread {
			t.Errorf("span %s exported at ts %v dur %v tid %d", s.ID, ev.TS, *ev.Dur, ev.Tid)
		}
		seen++
	}
	if seen != len(spans) {
		t.Errorf("exported %d spans, want %d", seen, len(spans))
	}
}

// TestTraceRecordRejects: truncations of a valid record, unknown flags, an
// out-of-table key, a table key stored inline and a same-parent reference
// with no parent before it are all rejected.
func TestTraceRecordRejects(t *testing.T) {
	base := time.Unix(0, 0)
	rec := recordOf(base, traceFixtureSpans()).rec
	if _, err := decodeSpans(rec, base, 0); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	for n := 1; n < len(rec); n++ {
		if spans, err := decodeSpans(rec[:n], base, 0); err == nil {
			// A cut on a span boundary is a shorter valid record.
			if n != len(recordOf(base, traceFixtureSpans()[:len(spans)]).rec) {
				t.Fatalf("record cut at %d of %d bytes decoded", n, len(rec))
			}
		}
	}
	span := func(flags byte, tail ...byte) []byte {
		return append([]byte{flags, 0, 0, 0, 0, 0}, tail...)
	}
	bad := map[string][]byte{
		"unknown flag":           span(1<<4, 0, 0, 0),
		"parent mode 3":          span(3, 0, 0, 0),
		"same parent, none yet":  span(parentSame, 0, 0, 0),
		"relative id, no parent": span(flagRelID, 1, 'x', 0, 0),
		"empty inline parent":    span(parentInline, 0, 0, 0, 0),
		"empty relative id":      span(parentInline|flagRelID, 1, 'p', 0, 0, 0),
		"empty process":          span(flagProcess, 0, 0, 0, 0),
		"key past the table":     span(0, 0, 0, 1, byte(len(recordKeys)+1)<<2, 0),
		"table key inline":       span(0, 0, 0, 1, 0, 5, 'l', 'e', 'v', 'e', 'l', 0),
		"attr count overruns":    span(0, 0, 0, 5, 4, 0),
		"string overruns":        span(0, 9, 'x'),
		"varint overflows":       {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, b := range bad {
		if spans, err := decodeSpans(b, base, 0); err == nil {
			t.Errorf("%s: decoded %+v", name, spans)
		}
	}
}

// FuzzTraceRecord: a span built from arbitrary fields survives the record
// exactly, and arbitrary bytes either fail to decode or decode to spans that
// survive a re-encode — never a panic.
func FuzzTraceRecord(f *testing.F) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	f.Add(recordOf(base, traceFixtureSpans()).rec, "req.j0.e1", "req.j0", "y~rise", "", "outcome", "hit", -1, 2, 3, int64(-5), int64(7), int64(-1), true)
	f.Add([]byte{}, "", "", "", "replica-b", "", "", 0, 0, 0, int64(0), int64(0), int64(0), false)
	f.Add([]byte{parentInline | flagRelID, 0, 0, 0, 0, 0, 1, 'p', 1, 'x', 0, 0}, "x", "", "n", "", "custom", "", 5, -7, 0, int64(1)<<40, int64(-1)<<40, int64(1), false)
	f.Fuzz(func(t *testing.T, rec []byte, id, parent, name, process, key, sval string,
		level, item, thread int, start, dur, ival int64, bval bool) {
		spans := []ReqSpan{
			{ID: id, Parent: parent, Name: name, Process: process, Level: level, Item: item, Thread: thread,
				Start: base.Add(time.Duration(start)), Dur: time.Duration(dur),
				Attrs: Attrs{Str(key, sval), Int64("nr_iters", ival), Bool("hit", bval), Int(key+"#", int(ival))}},
			{ID: parent + id, Parent: parent, Name: name, Level: item, Item: level, Start: base, Attrs: Attrs{Str("outcome", sval)}},
			{ID: id, Name: sval},
		}
		sameSpans(t, base, recordOf(base, spans).Spans(), spans)

		decoded, err := decodeSpans(rec, base, 0)
		if err != nil {
			return
		}
		again := recordOf(base, decoded)
		sameSpans(t, base, again.Spans(), decoded)
		if !bytes.Equal(recordOf(base, again.Spans()).rec, again.rec) {
			t.Fatal("re-encoding a decoded record is not stable")
		}
	})
}
