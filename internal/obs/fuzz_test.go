package obs

import (
	"reflect"
	"testing"
)

// The trace wire formats are the two inputs this package takes from outside
// the process: the inbound W3C traceparent header and a peer replica's
// Qwm-Span response header. Both must reject bad input, never panic, and
// round-trip what they accept. The seed corpora live in
// testdata/fuzz/<FuzzName>/ and run as ordinary tests under `go test`.

// FuzzDecodePeerSpan: whatever DecodePeerSpan accepts respects every cap and
// decodes back to itself after re-encoding.
func FuzzDecodePeerSpan(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		ps, ok := DecodePeerSpan(s)
		if !ok {
			return
		}
		if ps.Name == "" || ps.DurUS < 0 || len(ps.Name) > MaxPeerSpanString ||
			len(ps.Process) > MaxPeerSpanString || len(ps.Attrs) > MaxPeerSpanAttrs {
			t.Fatalf("accepted a span past its caps: %+v", ps)
		}
		for k, v := range ps.Attrs {
			if len(k) > MaxPeerSpanString || len(v) > MaxPeerSpanString {
				t.Fatalf("accepted an attr past the length cap: %q=%q", k, v)
			}
		}
		// Re-encoding may grow the value (JSON escapes), so the byte cap can
		// legitimately reject it; anything re-emitted within the cap must
		// decode to the same span.
		enc := EncodePeerSpan(ps)
		if len(enc) > MaxPeerSpanBytes {
			return
		}
		back, ok := DecodePeerSpan(enc)
		if !ok || !reflect.DeepEqual(back, ps) {
			t.Fatalf("round trip of %+v gave %+v (ok=%v)", ps, back, ok)
		}
	})
}

// FuzzParseTraceparent: whatever ParseTraceparent accepts is a version-00
// header with lowercase-hex IDs of the W3C widths, rebuilt exactly from the
// parts it returns.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		traceID, spanID, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if len(traceID) != 32 || len(spanID) != 16 || !isHex(traceID) || !isHex(spanID) {
			t.Fatalf("accepted malformed ids %q / %q from %q", traceID, spanID, s)
		}
		if rebuilt := "00-" + traceID + "-" + spanID + "-" + s[53:]; rebuilt != s {
			t.Fatalf("parts of %q rebuild to %q", s, rebuilt)
		}
	})
}
