package sta

import (
	"context"
	"reflect"
	"testing"
)

func TestMemoryTierFIFOEviction(t *testing.T) {
	ctx := context.Background()
	mt := NewMemoryTier(2)
	e := TierEntry{OK: true, Delay: 1, Tier: uint8(TierQWM)}
	a, b, c := Key{'a'}, Key{'b'}, Key{'c'}
	mt.Put(ctx, a, e)
	mt.Put(ctx, b, e)
	// Overwrite must not create a duplicate eviction slot.
	mt.Put(ctx, a, e)
	mt.Put(ctx, c, e) // evicts a (oldest insertion)
	if _, ok := getOne(mt, a); ok {
		t.Error("oldest key survived eviction")
	}
	for _, k := range []Key{b, c} {
		if _, ok := getOne(mt, k); !ok {
			t.Errorf("key %s evicted prematurely", k)
		}
	}
	// Four puts of three keys into two slots: one eviction.
	if len(mt.m) != 2 || len(mt.order) != 2 {
		t.Errorf("%d entries and %d eviction slots, want 2 and 2", len(mt.m), len(mt.order))
	}
}

// TestTierChainWarmAnalyzeBitIdentical is the two-store analogue of
// TestTierStoreWarmRunIsBitIdentical: an analyzer hydrated through a
// MemoryTier in front of a backing store reports StagesEvaluated = 0 and
// bit-identical results. The cold run's writes must reach the last store and
// the warm run's reads must pass through a cold first one.
func TestTierChainWarmAnalyzeBitIdentical(t *testing.T) {
	nl, primary, outs := decoderFixture(t)

	backing := newMapTierStore()
	cold := New(tech, lib, Config{Workers: 1, Tiers: []TierStore{NewMemoryTier(0), backing}})
	ref, err := cold.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	if backing.puts != ref.StagesEvaluated {
		t.Fatalf("cold run: %d evals, %d backing puts — write-back-all must reach the last store",
			ref.StagesEvaluated, backing.puts)
	}

	warm := New(tech, lib, Config{Workers: 4, Tiers: []TierStore{NewMemoryTier(0), backing}})
	res, err := warm.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesEvaluated != 0 {
		t.Errorf("warm run evaluated %d stages, want 0", res.StagesEvaluated)
	}
	if !reflect.DeepEqual(ref.Arrivals, res.Arrivals) || !reflect.DeepEqual(ref.Diagnostics, res.Diagnostics) {
		t.Error("warm run through the memory tier diverged from cold reference")
	}
}

// TestCachedEntriesDuringAnalysis reads an analyzer's cache through
// CachedEntries from another goroutine while a cold analysis fills it, as a
// replica's tier endpoint does: every read is either a miss or the final
// entry, and once the analysis returns every key it wrote is a hit equal to
// what it wrote.
func TestCachedEntriesDuringAnalysis(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	req := Request{Netlist: nl, Primary: primary, Outputs: outs}
	written := newMapTierStore()
	if _, err := New(tech, lib, Config{Workers: 1, Tiers: []TierStore{written}}).AnalyzeContext(nil, req); err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 0, len(written.m))
	for k := range written.m {
		keys = append(keys, k)
	}
	read := func(a *Analyzer) ([]TierEntry, []bool) {
		out, hit := make([]TierEntry, len(keys)), make([]bool, len(keys))
		a.CachedEntries(keys, out, hit)
		return out, hit
	}

	a := New(tech, lib, Config{Workers: 4})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := a.AnalyzeContext(nil, req); err != nil {
			t.Error(err)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		out, hit := read(a)
		for i, k := range keys {
			if hit[i] && out[i] != written.m[k] {
				t.Fatalf("key %s read %+v mid-analysis, want %+v", k, out[i], written.m[k])
			}
		}
	}
	out, hit := read(a)
	for i, k := range keys {
		if !hit[i] || out[i] != written.m[k] {
			t.Errorf("key %s: hit %v entry %+v, want %+v", k, hit[i], out[i], written.m[k])
		}
	}
}
