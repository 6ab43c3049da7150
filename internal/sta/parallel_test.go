package sta

import (
	"reflect"
	"runtime"
	"testing"

	"qwm/internal/stages"
)

// TestSlewBucketBoundaries pins the math.Floor fix: int() truncation made
// the bucket straddling zero twice as wide ([-5 ps, +5 ps) all mapped to 0).
func TestSlewBucketBoundaries(t *testing.T) {
	cases := []struct {
		s    float64
		want int
	}{
		{0, 0},
		{4.9e-12, 0},
		{5e-12, 1},
		{5.1e-12, 1},
		{9.9e-12, 1},
		{10e-12, 2},
		{-0.1e-12, -1}, // truncation used to yield 0 here
		{-5e-12, -1},
		{-5.1e-12, -2},
	}
	for _, c := range cases {
		if got := slewBucket(c.s); got != c.want {
			t.Errorf("slewBucket(%g) = %d, want %d", c.s, got, c.want)
		}
	}
}

// analyzeDecoder runs a cold-cache analysis of a 3-bit row decoder
// (3 address inverters, 8 three-input NANDs, 8 row drivers — a wide stage
// DAG with parallelism inside every level) at the given worker count.
func analyzeDecoder(t testing.TB, workers int) (*Result, int) {
	t.Helper()
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	a := New(tech, lib, Config{Workers: workers})
	primary := map[string]Arrival{}
	for i, in := range ins {
		// Stagger arrivals and give them slews so the slew-bucketed cache
		// keys and worst-input selection are genuinely exercised.
		primary[in] = Arrival{
			Rise: float64(i) * 17e-12, Fall: float64(i) * 13e-12,
			RiseSlew: 20e-12 + float64(i)*7e-12, FallSlew: 15e-12 + float64(i)*5e-12,
		}
	}
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	return res, res.StagesEvaluated
}

// TestParallelDeterminism is the tentpole guarantee: the parallel levelized
// engine returns byte-identical results to the serial path for every worker
// count — same arrivals (bit-for-bit floats), same critical path, same
// worst output, and, thanks to the single-flight cache, the same number of
// QWM evaluations.
func TestParallelDeterminism(t *testing.T) {
	serial, serialEvals := analyzeDecoder(t, 1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		par, parEvals := analyzeDecoder(t, workers)
		if !reflect.DeepEqual(par.Arrivals, serial.Arrivals) {
			t.Fatalf("workers=%d: arrivals differ from serial", workers)
		}
		if !reflect.DeepEqual(par.CriticalPath, serial.CriticalPath) {
			t.Errorf("workers=%d: critical path %v != serial %v", workers, par.CriticalPath, serial.CriticalPath)
		}
		if par.WorstArrival != serial.WorstArrival || par.WorstOutput != serial.WorstOutput {
			t.Errorf("workers=%d: worst %g@%s != serial %g@%s", workers,
				par.WorstArrival, par.WorstOutput, serial.WorstArrival, serial.WorstOutput)
		}
		if parEvals != serialEvals {
			t.Errorf("workers=%d: %d evaluations != serial %d (single-flight broken?)", workers, parEvals, serialEvals)
		}
	}
}

// TestLevelizeDecoder checks the Kahn schedule on the decoder DAG: three
// dependency levels, every stage placed exactly once, and producers always
// in an earlier level than their consumers.
func TestLevelizeDecoder(t *testing.T) {
	nl, _, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	a := New(tech, lib)
	if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Outputs: outs}); err != nil {
		t.Fatal(err)
	}
	// 3 inverters + 8 NANDs + 8 drivers.
	st := a.CacheStats()
	if want := int64(2 * 19); st.Misses != want {
		t.Errorf("cold analysis missed %d times, want %d (19 stages × 2 directions)", st.Misses, want)
	}
	if st.Evaluations != st.Misses {
		t.Errorf("evaluations %d != misses %d", st.Evaluations, st.Misses)
	}
	// A repeat run is all hits.
	if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Outputs: outs}); err != nil {
		t.Fatal(err)
	}
	st2 := a.CacheStats()
	if st2.Misses != st.Misses {
		t.Errorf("repeat run added misses: %d -> %d", st.Misses, st2.Misses)
	}
	if st2.Hits <= st.Hits {
		t.Errorf("repeat run did not hit the cache: hits %d -> %d", st.Hits, st2.Hits)
	}
}

// TestCacheStatsAccounting sanity-checks the counters' relationships on a
// simple chain.
func TestCacheStatsAccounting(t *testing.T) {
	a := New(tech, lib)
	nl := inverterChain(3, 1e-6, 2e-6)
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	st := a.CacheStats()
	if int(st.Misses) != res.StagesEvaluated {
		t.Errorf("misses %d != StagesEvaluated %d", st.Misses, res.StagesEvaluated)
	}
	if st.Entries != int(st.Misses) {
		t.Errorf("entries %d != misses %d", st.Entries, st.Misses)
	}
}
