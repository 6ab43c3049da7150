// Package netlist parses a minimal SPICE-style deck into a circuit.Netlist
// plus analysis directives, so the command-line tools can consume the same
// input format a circuit designer would write:
//
//   - 2-input NAND pull-down
//     Vdd vdd 0 DC 3.3
//     Vin in 0 PWL(0 0 1p 3.3)
//     M1 x1 in 0 0 NMOS W=1u L=0.35u
//     M2 out vdd x1 0 NMOS W=1u L=0.35u
//     C1 out 0 15f
//     .ic V(out)=3.3 V(x1)=3.3
//     .tran 1p 2n
//     .end
//
// Supported cards: M (MOSFET), R, C, V (DC / PWL), .tran, .ic, .end, and
// '*' comments. Units accept the usual SPICE suffixes (f p n u m k meg g).
//
// One physical line may hold at most 64 KiB - 1 bytes, a trailing '\r'
// included and the '\n' not: a longer line fails the whole parse with
// bufio.ErrTooLong ("bufio.Scanner: token too long"), the limit of the
// bufio.Scanner the parser once read lines with.
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"qwm/internal/circuit"
	"qwm/internal/wave"
)

// Deck is a parsed netlist plus its analysis directives.
type Deck struct {
	Title   string
	Netlist *circuit.Netlist
	// TranStep and TranStop come from .tran; zero when absent.
	TranStep, TranStop float64
	// IC maps node names to initial voltages from .ic.
	IC map[string]float64
}

// maxLineBytes bounds one physical line of a deck (see the package doc).
const maxLineBytes = bufio.MaxScanTokenSize

// Parse reads all of r and parses it as ParseString does.
func Parse(r io.Reader) (*Deck, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(b))
}

// ParseString parses a deck held in a string. It walks the string line by
// line without copying: every name in the result (devices, nodes, the title)
// is a substring of s, except those of a card continued with '+' lines,
// which are substrings of the joined card. Anything kept longer than the deck
// itself should therefore hold a copy (strings.Clone), not a name from here.
func ParseString(s string) (*Deck, error) {
	p := parser{d: &Deck{Netlist: &circuit.Netlist{}, IC: map[string]float64{}}}
	p.mos.left, p.caps.left = countCards(s)
	lineNo := 0
	first := true
	var prev string
	for rest := s; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if len(line) >= maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		lineNo++
		trimmed := strings.TrimSpace(line)
		if first {
			// SPICE convention: the first line is always the title.
			p.d.Title = trimmed
			first = false
			continue
		}
		if trimmed == "" || trimmed[0] == '*' {
			continue
		}
		// '+' continuation lines extend the previous card.
		if trimmed[0] == '+' {
			prev += " " + strings.TrimSpace(trimmed[1:])
			continue
		}
		if err := p.card(prev, lineNo-1); err != nil {
			return nil, err
		}
		prev = trimmed
	}
	if err := p.card(prev, lineNo); err != nil {
		return nil, err
	}
	if err := p.d.Netlist.Validate(); err != nil {
		return nil, err
	}
	return p.d, nil
}

// parser is one ParseString call's state: the deck being built, one token
// buffer reused by every card, and the slabs transistors and capacitors are
// carved from.
type parser struct {
	d    *Deck
	toks []string
	mos  slab[circuit.Transistor]
	caps slab[circuit.Capacitor]
}

// slab hands out elements of shared chunks instead of one allocation each.
// left estimates how many elements are still to come; a chunk holds that many,
// at least slabMin and at most slabMax, so a deck that promises many cards
// and fails early cannot make the parser allocate for all of them.
type slab[T any] struct {
	buf  []T
	left int
}

const slabMin, slabMax = 16, 1024

func (b *slab[T]) next() *T {
	if len(b.buf) == cap(b.buf) {
		b.buf = make([]T, 0, min(max(b.left, slabMin), slabMax))
	}
	b.left--
	b.buf = b.buf[:len(b.buf)+1]
	return &b.buf[len(b.buf)-1]
}

// countCards counts the lines that begin (after ASCII blanks) with an M or a
// C: the slabs' size estimates. The title line may count too; the estimate
// only sizes chunks.
func countCards(s string) (mos, caps int) {
	for s != "" {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		if line = strings.TrimLeft(line, " \t"); line == "" {
			continue
		}
		switch lowerByte(line[0]) {
		case 'm':
			mos++
		case 'c':
			caps++
		}
	}
	return mos, caps
}

func (p *parser) card(line string, no int) error {
	if line == "" {
		return nil
	}
	p.toks = splitCard(p.toks[:0], line)
	fields := p.toks
	if len(fields) == 0 {
		return nil
	}
	d := p.d
	name := fields[0]
	var err error
	switch lowerByte(name[0]) {
	case 'm':
		err = p.mosCard(name, fields[1:])
	case 'r':
		err = d.resCard(name, fields[1:])
	case 'c':
		err = p.capCard(name, fields[1:])
	case 'v':
		err = d.vCard(name, fields[1:])
	case '.':
		err = d.dotCard(strings.ToLower(name), fields[1:])
	default:
		err = fmt.Errorf("unsupported card %q", name)
	}
	if err != nil {
		return fmt.Errorf("netlist: line %d: %w", no, err)
	}
	return nil
}

// splitCard appends the tokens of a card to dst, keeping parenthesized
// groups (PWL lists) together as single tokens, with the spaces inside them
// kept verbatim. Any Unicode space separates tokens — the same set CanonName
// trims — so no token can canonicalize to an empty node name. Tokens are
// substrings of line: ASCII bytes are classified directly and other valid
// UTF-8 is decoded rune by rune. A line with invalid UTF-8 goes through
// splitCardRunes, which re-encodes each invalid byte as U+FFFD.
func splitCard(dst []string, line string) []string {
	n0 := len(dst)
	depth, start := 0, -1
	for i := 0; i < len(line); {
		cls, size := byteClass[line[i]], 1
		switch cls {
		case clsPlain:
			// The common case: a run of plain ASCII bytes inside a token.
			if start < 0 {
				start = i
			}
			for i++; i < len(line) && byteClass[line[i]] == clsPlain; i++ {
			}
			continue
		case clsMulti:
			var r rune
			r, size = utf8.DecodeRuneInString(line[i:])
			if r == utf8.RuneError && size == 1 {
				return splitCardRunes(dst[:n0], line)
			}
			cls = clsPlain
			if unicode.IsSpace(r) {
				cls = clsSep
			}
		}
		sep := false
		switch cls {
		case clsOpen:
			depth++
		case clsClose:
			depth--
		case clsSep:
			sep = depth == 0
		}
		if sep {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// Byte classes for splitCard: a separator is ',' or an ASCII space (the
// ASCII members of unicode.IsSpace); clsMulti starts a multi-byte rune.
const (
	clsPlain = iota
	clsSep
	clsOpen
	clsClose
	clsMulti
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r ," {
		t[c] = clsSep
	}
	t['('], t[')'] = clsOpen, clsClose
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = clsMulti
	}
	return t
}()

// splitCardRunes is splitCard for a line with invalid UTF-8: it rebuilds
// every token rune by rune, so each invalid byte becomes U+FFFD.
func splitCardRunes(dst []string, line string) []string {
	depth := 0
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			dst = append(dst, cur.String())
			cur.Reset()
		}
	}
	for _, r := range line {
		switch {
		case r == '(':
			depth++
			cur.WriteRune(r)
		case r == ')':
			depth--
			cur.WriteRune(r)
		case (unicode.IsSpace(r) || r == ',') && depth == 0:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return dst
}

// lowerByte folds an ASCII upper-case letter to lower case.
func lowerByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// lowerIs reports whether strings.ToLower(s) == lower for an ASCII
// lower-case literal, without building the lowered copy. Only ASCII letters
// need folding: the two non-ASCII runes that lower-case to ASCII are U+0130
// (to 'i') and the Kelvin sign U+212A (to 'k'), and no literal matched
// this way contains an 'i' or a 'k'.
func lowerIs(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if lowerByte(s[i]) != lower[i] {
			return false
		}
	}
	return true
}

// hasPrefixFold is strings.HasPrefix(strings.ToLower(s), lower) for an ASCII
// lower-case literal without an 'i' or a 'k', as for lowerIs.
func hasPrefixFold(s, lower string) bool {
	return len(s) >= len(lower) && lowerIs(s[:len(lower)], lower)
}

// isASCII reports whether s is pure ASCII.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func (p *parser) mosCard(name string, f []string) error {
	if len(f) < 5 {
		return fmt.Errorf("%s: MOSFET needs d g s b type", name)
	}
	var kind circuit.DeviceKind
	switch typ := f[4]; {
	case lowerIs(typ, "nmos"), lowerIs(typ, "n"):
		kind = circuit.KindNMOS
	case lowerIs(typ, "pmos"), lowerIs(typ, "p"):
		kind = circuit.KindPMOS
	default:
		return fmt.Errorf("%s: unknown device type %q", name, f[4])
	}
	n := p.d.Netlist
	if n.Transistors == nil {
		n.Transistors = make([]*circuit.Transistor, 0, min(max(p.mos.left, 1), slabMax))
	}
	t := p.mos.next()
	*t = circuit.Transistor{
		Name: name, Kind: kind,
		Drain: f[0], Gate: f[1], Source: f[2], Body: f[3],
	}
	for _, kv := range f[5:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("%s: expected key=value, got %q", name, kv)
		}
		x, err := ParseValue(val)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		switch {
		case lowerIs(key, "w"):
			t.W = x
		case lowerIs(key, "l"):
			t.L = x
		case lowerIs(key, "ad"):
			t.DrainJunc.Area = x
		case lowerIs(key, "pd"):
			t.DrainJunc.Perim = x
		case lowerIs(key, "as"):
			t.SourceJunc.Area = x
		case lowerIs(key, "ps"):
			t.SourceJunc.Perim = x
		default:
			return fmt.Errorf("%s: unknown parameter %q", name, key)
		}
	}
	if t.W == 0 || t.L == 0 {
		return fmt.Errorf("%s: W and L are required", name)
	}
	n.AddTransistor(t)
	return nil
}

func (d *Deck) resCard(name string, f []string) error {
	if len(f) != 3 {
		return fmt.Errorf("%s: resistor needs two nodes and a value", name)
	}
	v, err := ParseValue(f[2])
	if err != nil {
		return err
	}
	d.Netlist.AddResistor(name, f[0], f[1], v)
	return nil
}

func (p *parser) capCard(name string, f []string) error {
	if len(f) != 3 {
		return fmt.Errorf("%s: capacitor needs two nodes and a value", name)
	}
	v, err := ParseValue(f[2])
	if err != nil {
		return err
	}
	n := p.d.Netlist
	if n.Capacitors == nil {
		n.Capacitors = make([]*circuit.Capacitor, 0, min(max(p.caps.left, 1), slabMax))
	}
	c := p.caps.next()
	*c = circuit.Capacitor{Name: name, A: circuit.CanonName(f[0]), B: circuit.CanonName(f[1]), C: v}
	n.Capacitors = append(n.Capacitors, c)
	return nil
}

func (d *Deck) vCard(name string, f []string) error {
	if len(f) < 3 {
		return fmt.Errorf("%s: source needs two nodes and a value", name)
	}
	spec := strings.Join(f[2:], " ")
	w, err := parseSourceSpec(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	d.Netlist.AddVSource(name, f[0], f[1], w)
	return nil
}

func parseSourceSpec(spec string) (wave.Waveform, error) {
	s := strings.TrimSpace(spec)
	switch {
	case hasPrefixFold(s, "dc"):
		v, err := ParseValue(strings.TrimSpace(s[2:]))
		if err != nil {
			return nil, err
		}
		return wave.DC(v), nil
	case hasPrefixFold(s, "pwl"):
		inner := strings.TrimSpace(s[3:])
		inner = strings.TrimPrefix(inner, "(")
		inner = strings.TrimSuffix(inner, ")")
		parts := strings.Fields(inner)
		if len(parts) == 0 || len(parts)%2 != 0 {
			return nil, fmt.Errorf("PWL needs an even number of values")
		}
		var ts, vs []float64
		for i := 0; i < len(parts); i += 2 {
			t, err := ParseValue(parts[i])
			if err != nil {
				return nil, err
			}
			v, err := ParseValue(parts[i+1])
			if err != nil {
				return nil, err
			}
			ts = append(ts, t)
			vs = append(vs, v)
		}
		return wave.NewPWL(ts, vs)
	default:
		// A bare number is a DC value.
		v, err := ParseValue(s)
		if err != nil {
			return nil, fmt.Errorf("unsupported source spec %q", spec)
		}
		return wave.DC(v), nil
	}
}

func (d *Deck) dotCard(name string, f []string) error {
	switch name {
	case ".tran":
		if len(f) < 2 {
			return fmt.Errorf(".tran needs step and stop")
		}
		step, err := ParseValue(f[0])
		if err != nil {
			return err
		}
		stop, err := ParseValue(f[1])
		if err != nil {
			return err
		}
		d.TranStep, d.TranStop = step, stop
		return nil
	case ".ic":
		for _, kv := range f {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf(".ic expects V(node)=value, got %q", kv)
			}
			key = strings.ToLower(strings.TrimSpace(key))
			if !strings.HasPrefix(key, "v(") || !strings.HasSuffix(key, ")") {
				return fmt.Errorf(".ic expects V(node)=value, got %q", kv)
			}
			node := circuit.CanonName(key[2 : len(key)-1])
			v, err := ParseValue(val)
			if err != nil {
				return err
			}
			d.IC[node] = v
		}
		return nil
	case ".end":
		return nil
	case ".option", ".options", ".model":
		// Accepted and ignored: the technology is built in.
		return nil
	default:
		return fmt.Errorf("unsupported directive %q", name)
	}
}

// ParseValue parses a SPICE number with an optional scale suffix. Suffixes
// match in any case; strconv.ParseFloat is case-insensitive too, so ASCII
// input is never lower-cased.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if !isASCII(s) {
		// A non-ASCII rune can lower-case to a suffix letter (the Kelvin
		// sign to 'k', U+0130 to the 'i' of "mil").
		s = strings.ToLower(s)
	}
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	scale := 1.0
	n := len(s)
	switch {
	case n >= 3 && lowerIs(s[n-3:], "meg"):
		scale, s = 1e6, s[:n-3]
	case n >= 3 && lowerIs(s[n-3:], "mil"):
		scale, s = 25.4e-6, s[:n-3]
	case n > 1:
		switch lowerByte(s[n-1]) {
		case 'f':
			scale, s = 1e-15, s[:n-1]
		case 'p':
			scale, s = 1e-12, s[:n-1]
		case 'n':
			scale, s = 1e-9, s[:n-1]
		case 'u':
			scale, s = 1e-6, s[:n-1]
		case 'm':
			scale, s = 1e-3, s[:n-1]
		case 'k':
			scale, s = 1e3, s[:n-1]
		case 'g':
			scale, s = 1e9, s[:n-1]
		case 't':
			scale, s = 1e12, s[:n-1]
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		if isASCII(s) {
			s = strings.ToLower(s)
		}
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v * scale, nil
}
