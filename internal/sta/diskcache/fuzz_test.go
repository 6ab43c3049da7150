package diskcache

import (
	"bytes"
	"errors"
	"testing"

	"qwm/internal/sta"
)

// FuzzDecodeEntry: the entry decoder is a trust boundary (disk segments and
// remote-tier responses both reach it). It must never panic, must answer
// every input it does not accept with an error and a zero entry, and must
// accept only canonical encodings: whatever decodes re-encodes to the same
// bytes and decodes again to the same entry.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := DecodeEntry(b)
		if err != nil {
			if e != (sta.TierEntry{}) {
				t.Fatalf("failed decode returned a non-zero entry %+v", e)
			}
			return
		}
		enc := EncodeEntry(e)
		if !bytes.Equal(enc, b) {
			t.Fatalf("decoded entry re-encodes differently:\nin:  %x\nout: %x", b, enc)
		}
		e2, err := DecodeEntry(enc)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !bytes.Equal(EncodeEntry(e2), enc) {
			t.Fatalf("second decode changed the entry: %+v vs %+v", e, e2)
		}
	})
}

// FuzzDecodeRecord: the CRC frame decoder must never panic, must reject
// every non-frame with ErrCorruptRecord and no key or value, and whatever it
// accepts must re-frame to the identical bytes.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		key, val, err := DecodeRecord(b)
		if err != nil {
			if !errors.Is(err, ErrCorruptRecord) || key != (sta.Key{}) || val != nil {
				t.Fatalf("failed decode: err %v, key %s, val %x", err, key, val)
			}
			return
		}
		rec := EncodeRecord(key, val)
		if !bytes.Equal(rec, b) {
			t.Fatalf("decoded record re-frames differently:\nin:  %x\nout: %x", b, rec)
		}
		k2, v2, err := DecodeRecord(rec)
		if err != nil || k2 != key || !bytes.Equal(v2, val) {
			t.Fatalf("re-framed record decodes to %s/%x (%v), want %s/%x", k2, v2, err, key, val)
		}
	})
}
