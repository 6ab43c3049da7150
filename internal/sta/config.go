package sta

import (
	"context"
	"fmt"
	"math"

	"qwm/internal/faultinject"
	"qwm/internal/obs"
	"qwm/internal/reduce"
)

// Config is an analyzer's whole configuration, passed to New and fixed there
// for the analyzer's lifetime; the subset that affects results is
// canonically fingerprinted by Signature. The zero Config is the exact
// baseline engine: serial-equivalent parallelism at GOMAXPROCS, no
// reduction, unlimited budget, no observability. The
// service layer pools analyzers by Signature, which is sound because no
// setting can change after New.
type Config struct {
	// Workers caps concurrent stage-direction evaluations per level.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial in-line path (no
	// goroutines). Results are identical at any setting, which is why
	// Workers is NOT part of Signature.
	Workers int
	// Reduction configures the RC-chain model-order-reduction pre-pass
	// (internal/reduce): long series wire runs on each evaluated path are
	// collapsed into moment-matched equivalents before the solver runs. The
	// zero value disables it; its signature is part of every cache key's
	// digest, so reduced and unreduced entries never alias.
	Reduction reduce.Config
	// Budget bounds each stage-direction evaluation (Newton iterations
	// and/or wall clock). Exhausting it aborts the running solver tier with
	// ErrBudgetExceeded and escalates the degradation ladder; it never fails
	// the Analyze. The zero value is unlimited.
	Budget EvalBudget
	// FaultPlan, when non-nil, arms the deterministic fault-injection hooks
	// (chaos mode — see internal/faultinject). Every injection decision is a
	// pure hash of (seed, class, site key), so two runs at the same seed
	// inject identical faults at any Workers setting. Production configs
	// leave it nil, which costs one predictable branch per site.
	FaultPlan *faultinject.Injector
	// Metrics, when set, receives per-Analyze aggregates: cache hit/miss
	// counters, eval/level/analyze latency histograms (names under
	// "sta/time/"), and the deterministic NR-iteration and region-count
	// histograms. Nil disables metric recording — the engine then never
	// reads the clock on the evaluation path.
	Metrics *obs.Registry
	// Tiers are the persistent delay-cache tiers below the in-memory cache,
	// in probe order, fastest first (the service uses remote → disk). Each
	// dependency level reads them once, before its items run: every key the
	// level will look up that the memory cache lacks goes to the first store
	// in one GetMany, the keys it misses to the next, and so on; entries
	// failing Valid are misses and a hit is promoted into every earlier
	// tier. A single-flight leader whose key hit hydrates from that read
	// instead of evaluating; every fresh evaluation is written to all the
	// tiers. Entries loaded from a tier count as cache activity but not as
	// evaluations, so a warm-tier Analyze reports StagesEvaluated = 0
	// exactly like a warm-memory one. See TierStore.
	Tiers []TierStore
}

// Signature canonically encodes the result-affecting subset of the
// configuration: two analyzers with equal signatures produce bit-identical
// results for identical requests and may therefore share delay-cache
// entries — in memory or on disk. The service pools analyzers by this string
// and namespaces the disk tier with it; the disk cache persists it alongside
// the data so a namespace can never be re-opened under a different config.
//
// Deliberately excluded: Workers (determinism at any width is the engine's
// core guarantee), Metrics (observability never changes results), FaultPlan
// (chaos runs use dedicated analyzers that are never pooled), and Tiers
// (a cache tier stores results, it does not define them).
func (c Config) Signature() string {
	return fmt.Sprintf("qwm9|red:%s|nr:%d|wallns:%d",
		c.Reduction.Signature(), c.Budget.NRIters, c.Budget.Wall.Nanoseconds())
}

// TierEntry is the portable form of one cached direction timing — the value
// a TierStore persists. Every field of the internal dirTiming is represented
// (delays, degradation accounting, solver statistics) so a tier hit is
// indistinguishable from an in-memory hit: diagnostics, metrics and
// observer events all see the original evaluation's numbers.
type TierEntry struct {
	Delay, Slew  float64
	OK           bool
	SlewFellBack bool
	ErrMsg       string
	Tier         uint8
	Panics       int32
	Reduced      int32
	NRIters      int32
	Regions      int32
	DenseFall    int32
	CapResolves  int32
}

// Valid reports whether the entry could have been produced by this engine
// version — the cheap semantic check stores run after checksum verification,
// so a decodable-but-nonsensical record is treated as a miss rather than
// poisoning an analysis. A successful entry must carry a finite delay and
// slew: the engine never produces NaN or ±Inf there, so one read from a
// disk record or a peer's PUT is corrupt or hostile.
func (e TierEntry) Valid() bool {
	if Tier(e.Tier) >= NumTiers {
		return false
	}
	return !e.OK || finite(e.Delay) && finite(e.Slew)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TierStore is a read-through/write-behind store below the in-memory delay
// cache: the engine reads a whole level's keys with one GetMany before the
// level runs and calls Put with every freshly computed timing.
// Implementations must be safe for concurrent use and are expected to be
// lossy in BOTH directions — a failed or dropped Put and a corrupt or
// missing entry are misses, never errors; the engine re-evaluates and
// overwrites. Keys are the engine's fixed-width content-addressed cache keys
// (see Key), so a store namespace must only ever be shared between analyzers
// with equal Signatures.
//
// GetMany resolves keys[i] into out[i] and hit[i] for every i (len(out) and
// len(hit) are at least len(keys)); a false hit[i] leaves out[i]
// unspecified. It must not retain the slices.
//
// Name labels the store's "tier <name>" trace spans ("remote", "disk",
// "memory"). The context carries the request's trace reference when the
// Analyze is traced (see obs.TraceFrom), so a store can record child spans
// or stamp outbound requests; stores without a use for it ignore it.
type TierStore interface {
	Name() string
	GetMany(ctx context.Context, keys []Key, out []TierEntry, hit []bool)
	Put(ctx context.Context, key Key, e TierEntry)
}

// tierEntryOf converts a computed timing to its portable form.
func tierEntryOf(t dirTiming) TierEntry {
	return TierEntry{
		Delay:        t.delay,
		Slew:         t.slew,
		OK:           t.ok,
		SlewFellBack: t.slewFellBack,
		ErrMsg:       t.errMsg,
		Tier:         uint8(t.tier),
		Panics:       int32(t.panics),
		Reduced:      int32(t.reduced),
		NRIters:      int32(t.stats.NRIters),
		Regions:      int32(t.stats.Regions),
		DenseFall:    int32(t.stats.DenseFallbacks),
		CapResolves:  int32(t.stats.CapResolves),
	}
}

// timing converts a persisted entry back to the engine's cache value.
func (e TierEntry) timing() dirTiming {
	t := dirTiming{
		delay:        e.Delay,
		slew:         e.Slew,
		ok:           e.OK,
		slewFellBack: e.SlewFellBack,
		errMsg:       e.ErrMsg,
		tier:         Tier(e.Tier),
		panics:       int(e.Panics),
		reduced:      int(e.Reduced),
	}
	t.stats.NRIters = int(e.NRIters)
	t.stats.Regions = int(e.Regions)
	t.stats.DenseFallbacks = int(e.DenseFall)
	t.stats.CapResolves = int(e.CapResolves)
	return t
}
