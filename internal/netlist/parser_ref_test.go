package netlist

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"qwm/internal/circuit"
)

// parseRef is the bufio.Scanner parser ParseString replaced, kept as the
// oracle: one line copy per Scan, a fresh token slice per card and one
// allocation per device. Source, resistor and directive cards share the
// production code; the transistor and capacitor cards, which ParseString
// carves from slabs, keep their allocating form below.
func parseRef(r io.Reader) (*Deck, error) {
	d := &Deck{Netlist: &circuit.Netlist{}, IC: map[string]float64{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	first := true
	var prev string
	flush := func(line string, no int) error {
		if line == "" {
			return nil
		}
		return cardRef(d, line, no)
	}
	for sc.Scan() {
		lineNo++
		raw := strings.TrimRight(sc.Text(), " \t\r")
		trimmed := strings.TrimSpace(raw)
		if first {
			d.Title = trimmed
			first = false
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "*") {
			continue
		}
		if strings.HasPrefix(trimmed, "+") {
			prev += " " + strings.TrimSpace(trimmed[1:])
			continue
		}
		if err := flush(prev, lineNo-1); err != nil {
			return nil, err
		}
		prev = trimmed
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(prev, lineNo); err != nil {
		return nil, err
	}
	if err := d.Netlist.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func cardRef(d *Deck, line string, no int) error {
	fields := splitCardRef(line)
	if len(fields) == 0 {
		return nil
	}
	name := fields[0]
	var err error
	switch lowerByte(name[0]) {
	case 'm':
		err = mosCardRef(d, name, fields[1:])
	case 'r':
		err = d.resCard(name, fields[1:])
	case 'c':
		err = capCardRef(d, name, fields[1:])
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

func mosCardRef(d *Deck, name string, f []string) error {
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
	t := &circuit.Transistor{
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
	d.Netlist.AddTransistor(t)
	return nil
}

func capCardRef(d *Deck, name string, f []string) error {
	if len(f) != 3 {
		return fmt.Errorf("%s: capacitor needs two nodes and a value", name)
	}
	v, err := ParseValue(f[2])
	if err != nil {
		return err
	}
	d.Netlist.AddCapacitor(name, f[0], f[1], v)
	return nil
}

// FuzzParseMatchesRef: on any input, ParseString and the Scanner parser it
// replaced give reflect.DeepEqual decks or the same error text. The seeds
// add invalid UTF-8, '+' continuations (a PWL list split across lines, a
// continuation before any card and after a comment), CRLF line ends and
// non-canonical names to parseSeeds; TestParseLineLimitMatchesRef holds the
// 64 KiB line limit, whose inputs are too large to fuzz from.
func FuzzParseMatchesRef(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Add("t\r\nM1 a\xff b 0 0 NMOS W=1u L=1u\r\nC1 a\xc3 0 1f\r\n")
	f.Add("t\nV1 a 0 PWL(0 0\n+ 1p 3.3)\nM1 b a 0 0 NMOS\n+ W=1u L=1u\nC1 b 0\n+1f\n")
	f.Add("t\n+ R1 a 0 1k\nR2 a b\n\n* c\n+ 2k\nR3 b 0 x\n")
	f.Add("t\nM1 A B GND 0 nmos W=1u L=1u\nC1 A Gnd 1f\nC2  b 0 2f\n.IC V(A)=1\n")
	f.Fuzz(matchesRef)
}

// TestParseLineLimitMatchesRef: lines one byte either side of the 64 KiB
// limit, with and without a trailing '\n' or '\r\n', as the title, a
// comment, a continuation and a card, parse exactly as under the Scanner.
func TestParseLineLimitMatchesRef(t *testing.T) {
	long := func(n int) string { return strings.Repeat("x", n) }
	card := "M1 a b 0 0 NMOS W=1u L=1u "
	for _, n := range []int{maxLineBytes - 2, maxLineBytes - 1, maxLineBytes, maxLineBytes + 1} {
		for _, deck := range []string{
			"t\nR1 a 0 1k\n* " + long(n-2) + "\n",
			"t\nR1 a 0 1k\n* " + long(n-2),
			"t\nR1 a 0 1k\n* " + long(n-3) + "\r\n",
			long(n) + "\nR1 a 0 1k\n",
			"t\nR1 a 0 bad\n+ " + long(n-2) + "\n",
			"t\n" + card + long(n-len(card)-2) + "=1\n",
		} {
			matchesRef(t, deck)
		}
	}
}

// matchesRef fails t unless ParseString and parseRef agree on deck.
func matchesRef(t *testing.T, deck string) {
	got, err := ParseString(deck)
	want, rerr := parseRef(strings.NewReader(deck))
	if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
		t.Fatalf("ParseString error %v, reference %v (deck of %d bytes)", err, rerr, len(deck))
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseString deck differs from the reference:\n got %+v\nwant %+v", got.Netlist, want.Netlist)
	}
}
