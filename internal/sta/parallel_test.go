package sta

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
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

// TestParallelDeterminism is the tentpole guarantee: the parallel levelized
// engine returns byte-identical results to the serial path for every worker
// count — same arrivals (bit-for-bit floats), same critical path, same
// worst output, and, thanks to the single-flight cache, the same number of
// QWM evaluations. The workload is the 3-bit decoder with staggered input
// arrivals and slews (decoderRequest). A warm re-run of each analyzer,
// serial and parallel, evaluates nothing and repeats the cold serial run
// bit for bit.
func TestParallelDeterminism(t *testing.T) {
	req := decoderRequest(t)
	analyze := func(a *Analyzer) *Result {
		return analyzeOnce(t, a, req.Netlist, req.Primary, req.Outputs)
	}
	serialA := New(tech, lib, Config{Workers: 1})
	serial := analyze(serialA)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		a := serialA
		if workers != 1 {
			a = New(tech, lib, Config{Workers: workers})
			par := analyze(a)
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
			if par.StagesEvaluated != serial.StagesEvaluated {
				t.Errorf("workers=%d: %d evaluations != serial %d (single-flight broken?)",
					workers, par.StagesEvaluated, serial.StagesEvaluated)
			}
		}
		warm := analyze(a)
		if warm.StagesEvaluated != 0 {
			t.Errorf("workers=%d: warm re-run evaluated %d directions, want 0", workers, warm.StagesEvaluated)
		}
		requireSameTiming(t, fmt.Sprintf("workers=%d warm re-run", workers), serial, warm)
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
	a, reg := metered(Config{})
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	// 3 inverters + 8 NANDs + 8 drivers.
	hits, misses := count(reg, mCacheHits), count(reg, mCacheMisses)
	if want := int64(2 * 19); misses != want {
		t.Errorf("cold analysis missed %d times, want %d (19 stages × 2 directions)", misses, want)
	}
	if int64(res.StagesEvaluated) != misses {
		t.Errorf("evaluations %d != misses %d", res.StagesEvaluated, misses)
	}
	// A repeat run is all hits.
	if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Outputs: outs}); err != nil {
		t.Fatal(err)
	}
	if misses2 := count(reg, mCacheMisses); misses2 != misses {
		t.Errorf("repeat run added misses: %d -> %d", misses, misses2)
	}
	if hits2 := count(reg, mCacheHits); hits2 <= hits {
		t.Errorf("repeat run did not hit the cache: hits %d -> %d", hits, hits2)
	}
}

// TestCacheStatsAccounting sanity-checks the registry's cache counters
// against the Result and the cache's entries on a simple chain.
func TestCacheStatsAccounting(t *testing.T) {
	a, reg := metered(Config{})
	nl := inverterChain(3, 1e-6, 2e-6)
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	misses := count(reg, mCacheMisses)
	if int(misses) != res.StagesEvaluated {
		t.Errorf("misses %d != StagesEvaluated %d", misses, res.StagesEvaluated)
	}
	if n := a.cache.entries(); n != int(misses) {
		t.Errorf("entries %d != misses %d", n, misses)
	}
}

// TestStagesEvaluatedPerRequest runs a 3-bit and a 4-bit decoder
// concurrently on one fresh analyzer: each Result must count only its own
// evaluations, as it does alone. The two decks share no cache key, so the
// shared cache's total is the sum of the two counts.
func TestStagesEvaluatedPerRequest(t *testing.T) {
	reqs := make([]Request, 2)
	alone := make([]int, 2)
	for i, bits := range []int{3, 4} {
		nl, ins, outs, err := stages.DecoderNetlist(tech, bits, 1e-6, 10e-15)
		if err != nil {
			t.Fatal(err)
		}
		primary := map[string]Arrival{}
		for _, in := range ins {
			primary[in] = Arrival{}
		}
		reqs[i] = Request{Netlist: nl, Primary: primary, Outputs: outs}
		res, err := New(tech, lib, Config{Workers: 1}).AnalyzeContext(nil, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = res.StagesEvaluated
	}
	for round := 0; round < 5; round++ {
		a, reg := metered(Config{Workers: 1})
		got := make([]int, 2)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range reqs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				res, err := a.AnalyzeContext(nil, reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = res.StagesEvaluated
			}()
		}
		close(start)
		wg.Wait()
		if got[0] != alone[0] || got[1] != alone[1] {
			t.Errorf("round %d: concurrent StagesEvaluated %v, alone %v", round, got, alone)
		}
		if total := count(reg, mCacheMisses); total != int64(alone[0]+alone[1]) {
			t.Errorf("round %d: cache evaluated %d, want %d", round, total, alone[0]+alone[1])
		}
	}
}
