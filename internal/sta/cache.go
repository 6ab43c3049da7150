package sta

import (
	"sync"
	"sync/atomic"

	"qwm/internal/qwm"
)

// dirTiming is the cached QWM result for one Key (content digest, rail,
// input-slew bucket). ok is false when the stage has no conducting
// path to that rail (e.g. a pass-gate structure) or the evaluation failed to
// converge; errMsg then carries the failure so every Analyze consulting the
// entry can surface it (Result.EvalErrors) instead of silently degrading.
// slewFellBack marks entries whose slew is the conservative fallback
// estimate rather than a measured 10–90 % transition.
type dirTiming struct {
	delay, slew  float64
	ok           bool
	slewFellBack bool
	errMsg       string
	// tier records which rung of the degradation ladder produced this
	// timing (TierQWM for a clean solve); meaningful only when ok.
	tier Tier
	// panics counts the panics recovered (and converted to tier
	// escalations) while resolving this entry.
	panics int
	// stats carries the QWM solver accounting of the evaluation that
	// produced this entry — summed across every ladder tier attempted;
	// cache hits surface the original evaluation's numbers to observers.
	stats qwm.Stats
	// reduced counts the circuit nodes the model-order-reduction pre-pass
	// removed before the evaluation that produced this entry (0 when the
	// pre-pass is disabled or nothing was eligible). Like stats, cached
	// hits surface the original evaluation's number.
	reduced int
}

// cacheShards is the number of independently locked shards in the delay
// cache. 32 keeps lock contention negligible for worker counts up to the
// core counts this engine targets while costing only a few hundred bytes.
const cacheShards = 32

// delayCache is a sharded, single-flight concurrent map from Keys to
// dirTiming. The shard is the key's first digest byte (the digest is already
// uniform), and each shard is guarded by its own RWMutex, so parallel level
// evaluation scales without serializing on one lock.
//
// Single-flight discipline: the first goroutine to miss on a key installs an
// entry whose ready group is pending and computes the value; later arrivals
// for the same key wait on ready instead of re-evaluating. This keeps the
// evaluation count deterministic — every unique key is computed exactly once
// no matter how many workers race on it — which is what lets the parallel
// engine report the same StagesEvaluated as the serial one.
type delayCache struct {
	shards [cacheShards]cacheShard

	hits   atomic.Int64
	misses atomic.Int64
	evals  atomic.Int64
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[Key]*cacheEntry
}

// cacheEntry is one cached direction timing: a single allocation holding
// the value and the wait group its followers block on.
type cacheEntry struct {
	ready sync.WaitGroup // Done once val is populated
	val   dirTiming
}

func newDelayCache() *delayCache {
	c := &delayCache{}
	for i := range c.shards {
		c.shards[i].m = map[Key]*cacheEntry{}
	}
	return c
}

// acquire is the single-flight entry point: it returns the entry for key and
// whether THIS caller is the leader. A non-leader must call e.ready.Wait
// before reading e.val (an in-flight compute counts as a hit). The leader
// MUST set e.val and call e.ready.Done with no early exits in between, so a
// cancelled analysis can never strand a pending entry: in-flight computes
// always run to completion and release ready (see
// TestCancelledContextLeavesCacheUsable).
func (c *delayCache) acquire(key *Key) (*cacheEntry, bool) {
	sh := &c.shards[key[0]%cacheShards]

	sh.mu.RLock()
	e := sh.m[*key]
	sh.mu.RUnlock()

	if e == nil {
		sh.mu.Lock()
		if e = sh.m[*key]; e == nil {
			e = &cacheEntry{}
			e.ready.Add(1)
			sh.m[*key] = e
			sh.mu.Unlock()
			c.misses.Add(1)
			return e, true
		}
		sh.mu.Unlock()
	}
	c.hits.Add(1)
	return e, false
}

// peek returns key's entry, complete or in flight, or nil. It creates no
// entry and counts nothing: a caller that goes on to use the entry counts
// the hit itself, exactly as acquire would have (see lookupOrEval). Entries
// are never removed, so a peeked entry stays the key's entry.
func (c *delayCache) peek(key *Key) *cacheEntry {
	sh := &c.shards[key[0]%cacheShards]
	sh.mu.RLock()
	e := sh.m[*key]
	sh.mu.RUnlock()
	return e
}

// CacheStats is a snapshot of the delay cache's counters.
type CacheStats struct {
	// Hits and Misses count lookups; a miss triggers exactly one QWM
	// evaluation (single-flight), so Misses also bounds total solver work.
	Hits, Misses int64
	// Evaluations counts QWM engine runs actually performed (one per
	// direction compute; equals Misses unless a compute was skipped).
	Evaluations int64
	// Entries is the number of cached direction timings.
	Entries int
}

func (c *delayCache) stats() CacheStats {
	s := CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evaluations: c.evals.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		s.Entries += len(sh.m)
		sh.mu.RUnlock()
	}
	return s
}
