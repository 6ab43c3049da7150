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
package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

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

// Parse reads a deck from r.
func Parse(r io.Reader) (*Deck, error) {
	d := &Deck{Netlist: &circuit.Netlist{}, IC: map[string]float64{}}
	sc := bufio.NewScanner(r)
	lineNo := 0
	first := true
	var prev string
	flush := func(line string, no int) error {
		if line == "" {
			return nil
		}
		return d.card(line, no)
	}
	for sc.Scan() {
		lineNo++
		raw := strings.TrimRight(sc.Text(), " \t\r")
		trimmed := strings.TrimSpace(raw)
		if first {
			// SPICE convention: the first line is always the title.
			d.Title = trimmed
			first = false
			continue
		}
		if trimmed == "" || strings.HasPrefix(trimmed, "*") {
			continue
		}
		// '+' continuation lines extend the previous card.
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

// ParseString parses a deck held in a string.
func ParseString(s string) (*Deck, error) { return Parse(strings.NewReader(s)) }

func (d *Deck) card(line string, no int) error {
	fields := splitCard(line)
	if len(fields) == 0 {
		return nil
	}
	name := fields[0]
	var err error
	switch strings.ToLower(name)[0] {
	case 'm':
		err = d.mosCard(name, fields[1:])
	case 'r':
		err = d.resCard(name, fields[1:])
	case 'c':
		err = d.capCard(name, fields[1:])
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

// splitCard tokenizes a card, keeping parenthesized groups (PWL lists)
// together as single tokens with inner spaces normalized. Any Unicode space
// separates tokens — the same set CanonName trims — so no token can
// canonicalize to an empty node name.
func splitCard(line string) []string {
	var out []string
	depth := 0
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
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
	return out
}

func (d *Deck) mosCard(name string, f []string) error {
	if len(f) < 5 {
		return fmt.Errorf("%s: MOSFET needs d g s b type", name)
	}
	kind := circuit.KindNMOS
	switch strings.ToLower(f[4]) {
	case "nmos", "n":
		kind = circuit.KindNMOS
	case "pmos", "p":
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
		switch strings.ToLower(key) {
		case "w":
			t.W = x
		case "l":
			t.L = x
		case "ad":
			t.DrainJunc.Area = x
		case "pd":
			t.DrainJunc.Perim = x
		case "as":
			t.SourceJunc.Area = x
		case "ps":
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

func (d *Deck) capCard(name string, f []string) error {
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
	low := strings.ToLower(s)
	switch {
	case strings.HasPrefix(low, "dc"):
		v, err := ParseValue(strings.TrimSpace(s[2:]))
		if err != nil {
			return nil, err
		}
		return wave.DC(v), nil
	case strings.HasPrefix(low, "pwl"):
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

// ParseValue parses a SPICE number with an optional scale suffix.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	scale := 1.0
	switch {
	case strings.HasSuffix(s, "meg"):
		scale, s = 1e6, s[:len(s)-3]
	case strings.HasSuffix(s, "mil"):
		scale, s = 25.4e-6, s[:len(s)-3]
	default:
		if n := len(s); n > 1 {
			switch s[n-1] {
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
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v * scale, nil
}
