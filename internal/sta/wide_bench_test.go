package sta

import (
	"testing"

	"qwm/internal/reduce"
	"qwm/internal/stages"
)

// benchWide runs cold Analyzes (fresh Analyzer per iteration — no cache
// carry-over) of the wide fanout-with-long-wires netlist, the workload the
// reduction pre-pass targets: `fan` branches pushing 24-segment RC lines
// (reduction collapses them to a handful of moment-matched segments).
func benchWide(b *testing.B, red reduce.Config) {
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
		a := New(tech, lib, Config{Workers: 1, Reduction: red})
		if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTAWide/off is the baseline engine; BenchmarkSTAWide/reduce
// enables the reduction pre-pass.
func BenchmarkSTAWide(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchWide(b, reduce.Config{})
	})
	b.Run("reduce", func(b *testing.B) {
		benchWide(b, reduce.Config{TolPct: 1})
	})
}
