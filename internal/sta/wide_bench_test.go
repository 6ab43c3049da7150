package sta

import (
	"testing"

	"qwm/internal/reduce"
	"qwm/internal/stages"
)

// benchWide runs cold Analyzes (fresh Analyzer per iteration — no cache
// carry-over) of the wide fanout-with-long-wires netlist, the workload the
// hot-path features target: `fan` structurally identical branches (memo
// collapses them to one class each) pushing 24-segment RC lines (reduction
// collapses them to a handful of moment-matched segments).
func benchWide(b *testing.B, red reduce.Config, memo MemoConfig) {
	nl, ins, outs, err := stages.WideNetlist(tech, 16, 24, 1e-6, 10e-15)
	if err != nil {
		b.Fatal(err)
	}
	primary := map[string]Arrival{}
	for _, in := range ins {
		primary[in] = Arrival{}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New(tech, lib, Config{Workers: 1, Reduction: red, Memo: memo})
		if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTAWide/off is the pre-PR behavior; BenchmarkSTAWide/on enables
// the reduction pre-pass and class memoization together. The acceptance bar
// for the hot-path overhaul is on >= 2x faster than off on this workload.
func BenchmarkSTAWide(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchWide(b, reduce.Config{}, MemoConfig{})
	})
	b.Run("on", func(b *testing.B) {
		benchWide(b, reduce.Config{Enabled: true}, MemoConfig{Enabled: true})
	})
}
