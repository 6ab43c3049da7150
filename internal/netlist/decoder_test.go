package netlist_test

import (
	"testing"

	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/stages"
)

// decoder4Deck is the service-fleet deck: the 4-bit decoder (168 MOSFETs)
// as deck text.
func decoder4Deck(tb testing.TB) string {
	tb.Helper()
	nl, _, _, err := stages.DecoderNetlist(mos.CMOSP35(), 4, 1e-6, 20e-15)
	if err != nil {
		tb.Fatal(err)
	}
	return netlist.Format(&netlist.Deck{Title: "* decoder4", Netlist: nl})
}

// TestParseAllocBudget gates the copy-free parser: the 4-bit decoder deck
// parses in at most 40 allocations. The bufio.Scanner parser spent 574 — a
// line copy, a token slice and a device per card.
func TestParseAllocBudget(t *testing.T) {
	deck := decoder4Deck(t)
	avg := testing.AllocsPerRun(20, func() {
		if _, err := netlist.ParseString(deck); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 40 {
		t.Fatalf("parsing the 4-bit decoder deck allocates %.0f/op, budget 40", avg)
	}
}

// BenchmarkParseDecoder is the netlist.parse rung of the benchmark ladder:
// one ParseString of the 4-bit decoder deck.
func BenchmarkParseDecoder(b *testing.B) {
	deck := decoder4Deck(b)
	b.SetBytes(int64(len(deck)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.ParseString(deck); err != nil {
			b.Fatal(err)
		}
	}
}
