package sta

import (
	"testing"

	"qwm/internal/stages"
)

// BenchmarkWarmCacheLookup measures the all-hits Analyze path on the 3-bit
// decoder: the cache is warmed once, so every iteration exercises only the
// gather/lookup/apply machinery. Before the per-(stage, output) key memo,
// every lookup re-sorted and re-formatted the stage's edges (fmt.Sprintf per
// edge, twice per output per level); now the content key and load digest are
// built once per output per Analyze and the lookup itself is a single
// concatenation. Run with -benchmem to see the allocation drop.
func BenchmarkWarmCacheLookup(b *testing.B) {
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		b.Fatal(err)
	}
	a := New(tech, lib, Config{Workers: 1})
	primary := map[string]Arrival{}
	for _, in := range ins {
		primary[in] = Arrival{}
	}
	if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs}); err != nil {
		b.Fatal(err)
	}
	// The analyzer stays unobserved, as the path measured is; a miss would
	// add a cache entry.
	warm := a.cache.entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := a.cache.entries(); n != warm {
		b.Fatalf("warm loop added %d cache entries", n-warm)
	}
}
