package sta

import (
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
		"reduce": {Reduction: reduce.Config{Enabled: true, TolPct: 2}},
		"memo":   {Memo: MemoConfig{Enabled: true}},
		"interp": {Memo: MemoConfig{Enabled: true, Interp: true}},
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
// written by an older engine is never re-opened: qwm2 is the scale-free
// Thomas breakdown test and the merged, one-evaluation junction model.
func TestConfigSignatureEngineTag(t *testing.T) {
	if got, want := (Config{}).Signature(), "qwm2|red:|memo:|nr:0|wallns:0"; got != want {
		t.Errorf("Config{}.Signature() = %q, want %q", got, want)
	}
	if sig := (Config{Budget: EvalBudget{NRIters: 100}}).Signature(); !strings.HasPrefix(sig, "qwm2|") {
		t.Errorf("signature %q lacks the qwm2 engine tag", sig)
	}
}

// mapTierStore is the reference TierStore: a plain locked map. The disk
// implementation lives in sta/diskcache; this in-memory one pins down the
// engine-side contract independent of any file format.
type mapTierStore struct {
	mu   sync.Mutex
	m    map[string]TierEntry
	gets int
	hits int
	puts int
}

func newMapTierStore() *mapTierStore { return &mapTierStore{m: map[string]TierEntry{}} }

func (s *mapTierStore) Get(key string) (TierEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	e, ok := s.m[key]
	if ok {
		s.hits++
	}
	return e, ok
}

func (s *mapTierStore) Put(key string, e TierEntry) {
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
	cold := New(tech, lib, Config{Workers: 1, Tier: store})
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
	warm := New(tech, lib, Config{Workers: 4, Tier: store})
	res, err := warm.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesEvaluated != 0 {
		t.Errorf("warm-tier run evaluated %d stages, want 0", res.StagesEvaluated)
	}
	if cs := warm.CacheStats(); cs.Evaluations != 0 {
		t.Errorf("warm-tier analyzer performed %d evaluations", cs.Evaluations)
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
// (wrong engine version, corrupt tier byte) must be treated as a miss.
func TestTierStoreInvalidEntryIsMiss(t *testing.T) {
	nl, primary, outs := decoderFixture(t)

	store := newMapTierStore()
	cold := New(tech, lib, Config{Workers: 1, Tier: store})
	ref, err := cold.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range store.m {
		e.Tier = uint8(NumTiers) + 3
		store.m[k] = e
	}
	warm := New(tech, lib, Config{Workers: 1, Tier: store})
	res, err := warm.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
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
