package sta

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"qwm/internal/reduce"
)

func TestConfigSignature(t *testing.T) {
	base := Config{}
	if base.Signature() != (Config{Workers: 8}).Signature() {
		t.Error("Workers must not affect the signature (determinism at any width)")
	}
	distinct := map[string]Config{
		"base":   base,
		"reduce": {Reduction: reduce.Config{TolPct: 2}},
		"budget": {Budget: EvalBudget{NRIters: 100}},
		"wall":   {Budget: EvalBudget{Wall: time.Millisecond}},
	}
	seen := map[string]string{}
	for label, c := range distinct {
		sig := c.Signature()
		if prev, dup := seen[sig]; dup {
			t.Errorf("configs %q and %q collide on signature %q", label, prev, sig)
		}
		seen[sig] = label
	}
}

// The engine tag leads every signature. It changes whenever the solver's
// results move, even in the last bits, so a disk or remote-tier namespace
// written by an older engine is never re-opened. It also changes with the
// key format, so no namespace is read under keys it was not written with:
// qwm5 keys every tier by the fixed-width digest Key instead of qwm4's text
// keys, qwm6 adds each device's junction geometry to the digest, qwm7 keys
// load caps by their exact bits instead of 6-digit text, and qwm8 gives the
// spice and rc-bound tiers each device's own junctions and drops the
// qwm-bisect tier (renumbering the persisted tiers), and qwm9 widens the
// spice tier's window to the rc bound, so a stage slower than 2 ns answers
// at spice instead of rc-bound.
func TestConfigSignatureEngineTag(t *testing.T) {
	if got, want := (Config{}).Signature(), "qwm9|red:|nr:0|wallns:0"; got != want {
		t.Errorf("Config{}.Signature() = %q, want %q", got, want)
	}
	if sig := (Config{Budget: EvalBudget{NRIters: 100}}).Signature(); !strings.HasPrefix(sig, "qwm9|") {
		t.Errorf("signature %q lacks the qwm9 engine tag", sig)
	}
}

// mapTierStore is the reference TierStore: a plain locked map. The disk
// implementation lives in sta/diskcache; this in-memory one pins down the
// engine-side contract independent of any file format.
// gets and hits count keys; reads counts GetMany calls.
type mapTierStore struct {
	mu    sync.Mutex
	m     map[Key]TierEntry
	reads int
	gets  int
	hits  int
	puts  int
}

func newMapTierStore() *mapTierStore { return &mapTierStore{m: map[Key]TierEntry{}} }

func (s *mapTierStore) Name() string { return "map" }

func (s *mapTierStore) GetMany(_ context.Context, keys []Key, out []TierEntry, hit []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	for i, k := range keys {
		s.gets++
		out[i], hit[i] = s.m[k]
		if hit[i] {
			s.hits++
		}
	}
}

// getOne reads one key through a store's batch read.
func getOne(st TierStore, key Key) (TierEntry, bool) {
	var out [1]TierEntry
	var hit [1]bool
	st.GetMany(context.Background(), []Key{key}, out[:], hit[:])
	return out[0], hit[0]
}

func (s *mapTierStore) Put(_ context.Context, key Key, e TierEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = e
}

// TestTierStoreWarmRunIsBitIdentical is the engine half of the persistent
// cache guarantee: an analyzer hydrated purely from a tier store reports the
// same arrivals, diagnostics and StagesEvaluated = 0 as a warm in-memory
// analyzer.
func TestTierStoreWarmRunIsBitIdentical(t *testing.T) {
	nl, primary, outs := decoderFixture(t)

	store := newMapTierStore()
	cold := New(tech, lib, Config{Workers: 1, Tiers: []TierStore{store}})
	ref, err := cold.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	if ref.StagesEvaluated == 0 || store.puts != ref.StagesEvaluated {
		t.Fatalf("cold run: %d evals, %d puts — every evaluation must be written back",
			ref.StagesEvaluated, store.puts)
	}

	// Same Signature, fresh memory cache, same store: everything must come
	// from the tier with zero evaluations.
	warm, reg := metered(Config{Workers: 4, Tiers: []TierStore{store}})
	res, err := warm.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesEvaluated != 0 {
		t.Errorf("warm-tier run evaluated %d stages, want 0", res.StagesEvaluated)
	}
	if n := count(reg, mCacheMisses); n != 0 {
		t.Errorf("warm-tier analyzer performed %d evaluations", n)
	}
	if !reflect.DeepEqual(ref.Arrivals, res.Arrivals) {
		t.Errorf("tier-warm arrivals diverged\nref: %v\ngot: %v", ref.Arrivals, res.Arrivals)
	}
	if !reflect.DeepEqual(ref.CriticalPath, res.CriticalPath) ||
		ref.WorstArrival != res.WorstArrival || ref.WorstOutput != res.WorstOutput {
		t.Errorf("tier-warm summary diverged: %v/%v vs %v/%v",
			ref.WorstArrival, ref.WorstOutput, res.WorstArrival, res.WorstOutput)
	}
	if !reflect.DeepEqual(ref.Diagnostics, res.Diagnostics) {
		t.Errorf("tier-warm diagnostics diverged\nref: %+v\ngot: %+v", ref.Diagnostics, res.Diagnostics)
	}

	// Second run on the SAME warm analyzer: memory hits now, no tier reads.
	getsBefore := store.gets
	res2, err := warm.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	if store.gets != getsBefore {
		t.Errorf("memory-warm run consulted the tier %d times", store.gets-getsBefore)
	}
	if !reflect.DeepEqual(res.Arrivals, res2.Arrivals) {
		t.Error("memory-warm rerun diverged from tier-warm run")
	}
}

// TestTierStoreInvalidEntryIsMiss: a store handing back a nonsensical entry
// (wrong engine version, corrupt tier byte, a non-finite delay or slew) must
// be treated as a miss — and an invalid entry in an early store must not
// shadow a valid later one.
func TestTierStoreInvalidEntryIsMiss(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	req := Request{Netlist: nl, Primary: primary, Outputs: outs}

	valid := newMapTierStore()
	cold := New(tech, lib, Config{Workers: 1, Tiers: []TierStore{valid}})
	ref, err := cold.AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*TierEntry)
	}{
		{"tier byte", func(e *TierEntry) { e.Tier = uint8(NumTiers) + 3 }},
		{"inf delay", func(e *TierEntry) { e.Delay = math.Inf(1) }},
		{"inf slew", func(e *TierEntry) { e.Slew = math.Inf(-1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			invalid, shadow, good := newMapTierStore(), newMapTierStore(), newMapTierStore()
			for k, e := range valid.m {
				if !e.OK {
					t.Fatalf("reference entry %v failed", k)
				}
				good.m[k] = e
				tc.corrupt(&e)
				invalid.m[k] = e
				shadow.m[k] = e
			}

			// Alone, the invalid store hydrates nothing.
			res, err := New(tech, lib, Config{Workers: 1, Tiers: []TierStore{invalid}}).AnalyzeContext(nil, req)
			if err != nil {
				t.Fatal(err)
			}
			if res.StagesEvaluated != ref.StagesEvaluated {
				t.Errorf("invalid entries: evaluated %d, want a full re-evaluation of %d",
					res.StagesEvaluated, ref.StagesEvaluated)
			}
			if !reflect.DeepEqual(ref.Arrivals, res.Arrivals) {
				t.Error("re-evaluation after invalid entries diverged from reference")
			}

			// In front of a valid store, every lookup falls through to it, and
			// the promotion overwrites the invalid entries.
			res, err = New(tech, lib, Config{Workers: 1, Tiers: []TierStore{shadow, good}}).AnalyzeContext(nil, req)
			if err != nil {
				t.Fatal(err)
			}
			if res.StagesEvaluated != 0 {
				t.Errorf("invalid early entries shadowed valid later ones: evaluated %d stages, want 0", res.StagesEvaluated)
			}
			if !reflect.DeepEqual(ref.Arrivals, res.Arrivals) {
				t.Error("fall-through past invalid entries diverged from reference")
			}
			if !reflect.DeepEqual(shadow.m, valid.m) {
				t.Error("the valid entries were not promoted over the invalid ones")
			}
		})
	}
}

// TestTiersPromotionAndWriteBackAll pins the analyzer's tier policy: every
// fresh evaluation is written to every store; a lookup probes the stores in
// order and promotes a hit into every earlier store; and a promoted key
// stops at the first store.
func TestTiersPromotionAndWriteBackAll(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	req := Request{Netlist: nl, Primary: primary, Outputs: outs}
	analyze := func(tiers ...TierStore) *Result {
		t.Helper()
		res, err := New(tech, lib, Config{Workers: 4, Tiers: tiers}).AnalyzeContext(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first, middle, last := newMapTierStore(), newMapTierStore(), newMapTierStore()
	ref := analyze(first, middle, last)
	n := ref.StagesEvaluated
	if n == 0 {
		t.Fatal("cold run evaluated nothing")
	}
	for name, s := range map[string]*mapTierStore{"first": first, "middle": middle, "last": last} {
		if s.puts != n || len(s.m) != n {
			t.Errorf("cold run: %s store got %d puts of %d keys, want every one of the %d evaluations",
				name, s.puts, len(s.m), n)
		}
	}

	// Only the last store is warm: each key misses the first two stores in
	// turn, hits the last and is promoted into both earlier ones.
	first, middle = newMapTierStore(), newMapTierStore()
	lastGets := last.gets
	res := analyze(first, middle, last)
	if res.StagesEvaluated != 0 || !reflect.DeepEqual(ref.Arrivals, res.Arrivals) {
		t.Fatalf("warm-from-last run evaluated %d stages or diverged", res.StagesEvaluated)
	}
	if first.gets != n || first.hits != 0 || middle.gets != n || middle.hits != 0 || last.gets-lastGets != n {
		t.Errorf("probe counts first %d/%d, middle %d/%d, last %d (gets/hits); want %d misses in each earlier store, then %d reads of the last",
			first.gets, first.hits, middle.gets, middle.hits, last.gets-lastGets, n, n)
	}
	if !reflect.DeepEqual(first.m, last.m) || !reflect.DeepEqual(middle.m, last.m) {
		t.Error("a hit in the last store was not promoted into every earlier store")
	}

	// Promoted keys stop at the first store.
	middleGets, lastGets := middle.gets, last.gets
	res = analyze(first, middle, last)
	if res.StagesEvaluated != 0 || !reflect.DeepEqual(ref.Arrivals, res.Arrivals) {
		t.Fatalf("warm-from-first run evaluated %d stages or diverged", res.StagesEvaluated)
	}
	if first.hits != n || middle.gets != middleGets || last.gets != lastGets {
		t.Errorf("promoted keys: %d first-store hits, %d middle and %d last reads; want %d, 0, 0",
			first.hits, middle.gets-middleGets, last.gets-lastGets, n)
	}
}

func TestTierEntryTimingRoundTrip(t *testing.T) {
	in := dirTiming{
		delay: 1.25e-10, slew: 3e-11, ok: true, slewFellBack: true,
		errMsg: "x", tier: TierSpice, panics: 2, reduced: 5,
	}
	in.stats.NRIters = 42
	in.stats.Regions = 7
	in.stats.DenseFallbacks = 1
	in.stats.CapResolves = 3
	out := tierEntryOf(in).timing()
	if out != in {
		t.Fatalf("round trip changed the timing:\nin:  %+v\nout: %+v", in, out)
	}
}
