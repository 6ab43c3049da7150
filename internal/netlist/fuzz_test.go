package netlist

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// parseSeeds seed both deck-level fuzz targets.
var parseSeeds = []string{
	nandDeck,
	"t\nR1 a 0 1k\n.end\n",
	"t\nV1 a 0 PWL(0 0 1p 3.3)\nM1 b a 0 0 NMOS W=1u L=1u\n",
	"\n\n+ continuation without a card\n",
	"t\n.ic V(x)=1 V(y)=2\n.tran 1p 1n\n",
}

// FuzzParseValue: the value parser must never panic, must accept, value
// and reject exactly as the lower-casing parser it replaced did (same error
// text), and must round-trip what it accepts through FormatValue.
func FuzzParseValue(f *testing.F) {
	for _, seed := range []string{"1", "1.5k", "2meg", "15f", "-3.3", "0.35u", "1e-12", "abc", "", "k", "--5", "2MEG", "1\u212a", "3m\u0130l", "0X1P-2", "INF", "3Mil"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseValue(s)
		rv, rerr := parseValueRef(s)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("ParseValue(%q) error %v, reference %v", s, err, rerr)
		}
		if err != nil {
			return
		}
		if v != rv && !(math.IsNaN(v) && math.IsNaN(rv)) {
			t.Fatalf("ParseValue(%q) = %g, reference %g", s, v, rv)
		}
		// Whatever parses must re-parse after formatting to a close value.
		v2, err := ParseValue(FormatValue(v))
		if err != nil {
			t.Fatalf("FormatValue(%g) = %q does not re-parse: %v", v, FormatValue(v), err)
		}
		diff := v - v2
		if diff < 0 {
			diff = -diff
		}
		mag := v
		if mag < 0 {
			mag = -mag
		}
		if diff > 1e-5*mag+1e-30 {
			t.Fatalf("round trip %q: %g -> %g", s, v, v2)
		}
	})
}

// FuzzParse: arbitrary decks must either parse or error — never panic — and
// whatever parses must survive a Format/Parse round trip.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, deck string) {
		d, err := ParseString(deck)
		if err != nil {
			return
		}
		text := Format(d)
		if _, err := ParseString(text); err != nil {
			// The circuit itself parsed; its serialization must too, unless
			// a node name contains characters our writer does not quote.
			for _, name := range d.Netlist.Nodes() {
				if strings.ContainsAny(name, " \t()=*+") {
					return
				}
			}
			for _, v := range d.Netlist.VSources {
				if strings.ContainsAny(v.Name, " \t()=*+") || !strings.HasPrefix(strings.ToLower(v.Name), "v") {
					return
				}
			}
			t.Fatalf("round trip failed: %v\n--- original:\n%s\n--- formatted:\n%s", err, deck, text)
		}
	})
}

// FuzzSplitCard: the slicing tokenizer must append exactly the tokens of
// the rune-by-rune tokenizer it replaced, on any input — ASCII, other
// valid UTF-8 (Unicode spaces separate tokens) and invalid UTF-8 (each bad
// byte becomes U+FFFD).
func FuzzSplitCard(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Add("M1 a b\u00a0c 0 NMOS W=1u,L=1u")
	f.Add("V1 a 0 PWL( 0 0,  1p\t3.3 ) ) (x y")
	f.Add("R\xff1 a\xc3 0 1k")
	f.Fuzz(func(t *testing.T, line string) {
		// The token buffer is reused across cards: what is already in it
		// stays, including when an invalid byte restarts the line.
		got := splitCard([]string{"held"}, line)
		if want := splitCardRef(line); got[0] != "held" || !slices.Equal(got[1:], want) {
			t.Fatalf("splitCard(%q) = %q after \"held\", reference %q", line, got[1:], want)
		}
	})
}

// splitCardRef is the tokenizer splitCard replaced, kept as the oracle: it
// rebuilds every token rune by rune.
func splitCardRef(line string) []string {
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

// parseValueRef is the value parser ParseValue replaced, kept as the
// oracle: it lower-cases the whole input before matching suffixes.
func parseValueRef(s string) (float64, error) {
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
