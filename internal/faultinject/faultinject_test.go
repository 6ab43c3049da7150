package faultinject

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestNilInjectorIsInert pins the nil-by-default contract: every method on
// a nil *Injector is safe and reports "no fault".
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Fire(NRDivergence, "k") {
		t.Error("nil injector fired")
	}
	in.Stall(CacheStall, "k") // must not panic or sleep noticeably
	if got := in.FiredTotal(); got != 0 {
		t.Errorf("nil FiredTotal = %d", got)
	}
	if got := len(in.Fired()); got != 0 {
		t.Errorf("nil Fired has %d entries", got)
	}
	_ = in.String()
}

// TestDeterministicDecisions: the firing decision is a pure function of
// (seed, class, key) — identical across injector instances and call order.
func TestDeterministicDecisions(t *testing.T) {
	a := New(42).Enable(NRDivergence, 0.5).Enable(Panic, 0.5)
	b := New(42).Enable(Panic, 0.5).Enable(NRDivergence, 0.5)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("stage%d|out|0|tier0", i)
		if a.Fire(NRDivergence, key) != b.Fire(NRDivergence, key) {
			t.Fatalf("divergent decision for %s", key)
		}
		// Order of queries must not matter: query b for Panic first.
		pb := b.Fire(Panic, key)
		pa := a.Fire(Panic, key)
		if pa != pb {
			t.Fatalf("order-dependent Panic decision for %s", key)
		}
	}
}

// TestSeedAndClassIndependence: different seeds and different classes make
// different decision sets (the hash actually uses both inputs).
func TestSeedAndClassIndependence(t *testing.T) {
	a := New(1).Enable(NRDivergence, 0.5).Enable(PivotBreakdown, 0.5)
	b := New(2).Enable(NRDivergence, 0.5)
	diffSeed, diffClass := 0, 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key%d", i)
		if a.Fire(NRDivergence, key) != b.Fire(NRDivergence, key) {
			diffSeed++
		}
		if a.Fire(NRDivergence, key) != a.Fire(PivotBreakdown, key) {
			diffClass++
		}
	}
	if diffSeed == 0 {
		t.Error("seeds 1 and 2 made identical decisions on every key")
	}
	if diffClass == 0 {
		t.Error("classes made identical decisions on every key")
	}
}

// TestRateAccuracy: across many keys the empirical fire rate approaches the
// configured rate (the hash is well mixed).
func TestRateAccuracy(t *testing.T) {
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		in := New(7).Enable(BudgetExhaustion, rate)
		const n = 20000
		fired := 0
		for i := 0; i < n; i++ {
			if in.Fire(BudgetExhaustion, fmt.Sprintf("k%09d", i)) {
				fired++
			}
		}
		got := float64(fired) / n
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %.2f: empirical %.4f (off by > 2%%)", rate, got)
		}
		if c := in.Fired()[BudgetExhaustion.String()]; c != int64(fired) {
			t.Errorf("Fired count %d != observed %d", c, fired)
		}
	}
}

// TestRateBoundaries: rate 1 always fires, rate 0 (and unarmed classes)
// never fire.
func TestRateBoundaries(t *testing.T) {
	in := New(3).Enable(Panic, 1).Enable(CacheStall, 0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if !in.Fire(Panic, key) {
			t.Fatalf("rate-1 class did not fire on %s", key)
		}
		if in.Fire(CacheStall, key) {
			t.Fatalf("rate-0 class fired on %s", key)
		}
		if in.Fire(NRDivergence, key) {
			t.Fatalf("unarmed class fired on %s", key)
		}
	}
}

// TestConcurrentFireIsRaceFreeAndDeterministic exercises the atomic
// counters under the race detector and re-checks decisions concurrently.
func TestConcurrentFireIsRaceFreeAndDeterministic(t *testing.T) {
	in := New(99).Enable(NRDivergence, 0.5)
	ref := make([]bool, 512)
	for i := range ref {
		ref[i] = in.Fire(NRDivergence, fmt.Sprintf("k%d", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ref {
				if in.Fire(NRDivergence, fmt.Sprintf("k%d", i)) != ref[i] {
					t.Errorf("concurrent decision differs for k%d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStallSleeps: an armed CacheStall actually blocks for about the
// configured duration.
func TestStallSleeps(t *testing.T) {
	in := New(5).Enable(CacheStall, 1).WithStall(2 * time.Millisecond)
	start := time.Now()
	in.Stall(CacheStall, "slow-shard")
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Errorf("stall returned after %v, want >= 2ms", d)
	}
}

// TestParseClassRoundTrip covers the name table both ways.
func TestParseClassRoundTrip(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("nonsense"); err == nil {
		t.Error("ParseClass accepted an unknown name")
	}
	if len(Classes()) != int(NumClasses) {
		t.Errorf("Classes() has %d entries, want %d", len(Classes()), NumClasses)
	}
	// Pin every canonical name explicitly so a renamed or re-ordered entry
	// cannot slip through the generic loop: the wire API's chaos field
	// spells these names.
	want := []string{"nr-divergence", "pivot-breakdown", "panic", "budget-exhaustion", "cache-stall"}
	if got := Classes(); !slices.Equal(got, want) {
		t.Errorf("Classes() = %q, want %q", got, want)
	}
}
