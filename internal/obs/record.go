package obs

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"
)

// This file is the flight recorder's storage format. A retained trace is
// hundreds of spans that nobody may ever read, so each completed span is
// appended to its trace's one byte buffer as a small binary record, and
// RequestTrace keeps that buffer (copied to its exact size at Finish) instead
// of a slice of structs with strings and attribute maps. A []byte holds no
// pointers, so the garbage collector never scans a retained trace's
// contents; Spans decodes the record on demand when a trace is exported.
//
// One span's record, in order (varints are encoding/binary's; "zz" marks a
// zigzag-signed varint; a string is a uvarint length and its bytes):
//
//	flags       1 byte: bits 0–1 the parent mode (0 none, 1 inline string,
//	            2 the previous inline parent again); bit 2 the ID is stored
//	            as its suffix after the parent; bit 3 a process follows.
//	level, item, thread                zz varints
//	start, dur  zz varints, ns; start is the offset from the trace start
//	parent      string, when the parent mode is 1
//	id          string (the suffix under bit 2)
//	name        string
//	process     string, under bit 3
//	nattrs      uvarint, then per attribute one byte key<<2 | kind and
//	            its value. key 0 means an inline key string follows, k > 0
//	            is recordKeys[k-1]. kind 0 int (zz varint), 1 string,
//	            2 false, 3 true.

// attrKind is an attribute's value type.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindStr
	kindBool
)

// Attr is one typed span attribute. Build it with Int, Int64, Str or Bool.
type Attr struct {
	Key  string
	str  string
	num  int64
	kind attrKind
}

// Int is an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, num: int64(v)} }

// Int64 is an integer attribute from an int64.
func Int64(key string, v int64) Attr { return Attr{Key: key, num: v} }

// Str is a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, str: v, kind: kindStr} }

// Bool is a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Value returns the attribute's value: an int64, a string or a bool.
func (a Attr) Value() any {
	switch a.kind {
	case kindStr:
		return a.str
	case kindBool:
		return a.num != 0
	}
	return a.num
}

// Attrs is a span's attribute list. Keys are unique within one span.
type Attrs []Attr

// Get returns the value of the attribute named key (see Attr.Value), or nil
// when the span has none.
func (as Attrs) Get(key string) any {
	for _, a := range as {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

// recordKeys are the attribute keys the span producers use, stored as a
// one-byte index. Any other key is stored inline. Records live only in
// memory, so the table may be reordered freely; it holds at most 63 keys.
var recordKeys = [...]string{
	"level", "stages", "items", "levels", "outputs",
	"output", "dir", "cache", "tier", "err",
	"nr_iters", "regions", "dense_fallbacks", "cap_resolves",
	"cache_hits", "cache_misses", "stages_evaluated", "eval_errors",
	"slew_fallbacks", "cancelled",
	"hit", "outcome", "op",
	"route", "status", "requests", "admitted",
}

// recordKeyIndex maps a key to its 1-based index in recordKeys. It is built
// on first use, so a process that never records a trace never allocates it.
var recordKeyIndex = sync.OnceValue(func() map[string]byte {
	m := make(map[string]byte, len(recordKeys))
	for i, k := range recordKeys {
		m[k] = byte(i + 1)
	}
	return m
})

const (
	parentNone   = 0
	parentInline = 1
	parentSame   = 2
	parentMask   = 3
	flagRelID    = 1 << 2
	flagProcess  = 1 << 3
)

// spanEncoder appends span records to one buffer. lastStart and lastLen
// locate the latest inline parent in buf, which a following span with the
// same parent refers back to instead of repeating.
type spanEncoder struct {
	buf       []byte
	n         int
	lastStart int
	lastLen   int
}

func (e *spanEncoder) add(s *ReqSpan, base time.Time) {
	b := e.buf
	flags := byte(parentNone)
	if s.Parent != "" {
		if e.lastLen == len(s.Parent) && string(b[e.lastStart:e.lastStart+e.lastLen]) == s.Parent {
			flags = parentSame
		} else {
			flags = parentInline
		}
		if len(s.ID) > len(s.Parent) && s.ID[:len(s.Parent)] == s.Parent {
			flags |= flagRelID
		}
	}
	if s.Process != "" {
		flags |= flagProcess
	}
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(s.Level))
	b = binary.AppendVarint(b, int64(s.Item))
	b = binary.AppendVarint(b, int64(s.Thread))
	b = binary.AppendVarint(b, int64(s.Start.Sub(base)))
	b = binary.AppendVarint(b, int64(s.Dur))
	if flags&parentMask == parentInline {
		b = binary.AppendUvarint(b, uint64(len(s.Parent)))
		e.lastStart, e.lastLen = len(b), len(s.Parent)
		b = append(b, s.Parent...)
	}
	if flags&flagRelID != 0 {
		b = appendString(b, s.ID[len(s.Parent):])
	} else {
		b = appendString(b, s.ID)
	}
	b = appendString(b, s.Name)
	if flags&flagProcess != 0 {
		b = appendString(b, s.Process)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Attrs)))
	keys := recordKeyIndex()
	for i := range s.Attrs {
		a := &s.Attrs[i]
		key := keys[a.Key]
		kind := byte(a.kind)
		if a.kind == kindBool && a.num != 0 {
			kind++
		}
		b = append(b, key<<2|kind)
		if key == 0 {
			b = appendString(b, a.Key)
		}
		switch a.kind {
		case kindInt:
			b = binary.AppendVarint(b, a.num)
		case kindStr:
			b = appendString(b, a.str)
		}
	}
	e.buf = b
	e.n++
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

var errBadRecord = errors.New("obs: malformed trace record")

// decodeSpans decodes a record of span records made by spanEncoder, with
// start offsets relative to base. n is a capacity hint. It fails closed:
// any truncated, overlong or unknown field rejects the whole record.
func decodeSpans(rec []byte, base time.Time, n int) ([]ReqSpan, error) {
	d := recordDecoder{b: rec, s: string(rec)}
	if n > len(rec) {
		n = len(rec)
	}
	spans := make([]ReqSpan, 0, n)
	lastParent := ""
	for d.off < len(d.b) {
		flags := d.b[d.off]
		d.off++
		if flags&^(parentMask|flagRelID|flagProcess) != 0 || flags&parentMask == 3 {
			return nil, errBadRecord
		}
		var s ReqSpan
		s.Level = int(d.varint())
		s.Item = int(d.varint())
		s.Thread = int(d.varint())
		s.Start = base.Add(time.Duration(d.varint()))
		s.Dur = time.Duration(d.varint())
		switch flags & parentMask {
		case parentInline:
			lastParent = d.str()
			s.Parent = lastParent
		case parentSame:
			s.Parent = lastParent
		}
		if s.Parent == "" && flags&(parentMask|flagRelID) != 0 {
			return nil, errBadRecord
		}
		s.ID = d.str()
		if flags&flagRelID != 0 {
			if s.ID == "" {
				return nil, errBadRecord
			}
			s.ID = s.Parent + s.ID
		}
		s.Name = d.str()
		if flags&flagProcess != 0 {
			if s.Process = d.str(); s.Process == "" {
				return nil, errBadRecord
			}
		}
		na := d.uvarint()
		if na > uint64(len(d.b)-d.off) { // every attribute takes at least a byte
			return nil, errBadRecord
		}
		if na > 0 {
			s.Attrs = make(Attrs, na)
		}
		for i := range s.Attrs {
			a := &s.Attrs[i]
			if d.off >= len(d.b) {
				return nil, errBadRecord
			}
			h := d.b[d.off]
			d.off++
			switch key := int(h >> 2); {
			case key == 0:
				if a.Key = d.str(); recordKeyIndex()[a.Key] != 0 {
					return nil, errBadRecord // the encoder indexes every table key
				}
			case key <= len(recordKeys):
				a.Key = recordKeys[key-1]
			default:
				return nil, errBadRecord
			}
			switch h & 3 {
			case 0:
				a.num = d.varint()
			case 1:
				a.kind, a.str = kindStr, d.str()
			case 2, 3:
				a.kind, a.num = kindBool, int64(h&1)
			}
		}
		if d.bad {
			return nil, errBadRecord
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// recordDecoder reads varints and strings from a record: varints from b,
// strings as slices of s, one string copy of b. The first failed read sets
// bad and every later read returns zero.
type recordDecoder struct {
	b   []byte
	s   string
	off int
	bad bool
}

func (d *recordDecoder) fail() {
	d.bad = true
	d.off = len(d.b)
}

func (d *recordDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *recordDecoder) varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *recordDecoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}
