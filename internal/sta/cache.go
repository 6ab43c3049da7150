package sta

import (
	"sync"

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
// A key is absent, in flight or finished. The first goroutine to miss on a
// key installs a flight in the shard's in-flight table and computes the
// value; later arrivals for the same key wait on that flight instead of
// re-evaluating. This keeps the evaluation count deterministic — every
// unique key is computed exactly once no matter how many workers race on it
// — which is what lets the parallel engine report the same StagesEvaluated
// as the serial one. Publishing moves the value into the shard's slab of
// packed timings and drops the flight, so a finished entry holds no pointer
// and no wait group: its whole cost is one index slot and one slab slot.
type delayCache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu sync.RWMutex
	// index maps each finished key to its slot in done.
	index map[Key]int32
	done  []packedTiming
	// errs is the append-only table of error texts the finished entries
	// carry (packedTiming.err is 1 + the index); almost every entry has none.
	errs []string
	// flight holds the keys being evaluated, from the leader's acquire until
	// it publishes; a key is never in flight and finished at once.
	flight map[Key]*flight
}

// flight is the single-flight wait object of one key in flight: followers
// wait on ready, then read val.
type flight struct {
	ready sync.WaitGroup // Done once val is set
	val   dirTiming
}

// wait blocks until the leader publishes and returns its value.
func (f *flight) wait() dirTiming {
	f.ready.Wait()
	return f.val
}

// packedTiming is a finished dirTiming without pointers (48 bytes): the
// solver counts narrow to int32 as they do in a TierEntry, and the rare
// error text moves to the shard's string table.
type packedTiming struct {
	delay, slew                                   float64
	nrIters, regions, denseFallbacks, capResolves int32
	reduced, panics                               int32
	err                                           int32 // 0: no error text
	tier                                          Tier
	flags                                         uint8
}

const (
	packedOK = 1 << iota
	packedFellBack
)

// pack stores t's error text (if any) in the shard's table and returns the
// packed form. Requires sh.mu held for writing.
func (sh *cacheShard) pack(t *dirTiming) packedTiming {
	p := packedTiming{
		delay:          t.delay,
		slew:           t.slew,
		nrIters:        int32(t.stats.NRIters),
		regions:        int32(t.stats.Regions),
		denseFallbacks: int32(t.stats.DenseFallbacks),
		capResolves:    int32(t.stats.CapResolves),
		reduced:        int32(t.reduced),
		panics:         int32(t.panics),
		tier:           t.tier,
	}
	if t.ok {
		p.flags |= packedOK
	}
	if t.slewFellBack {
		p.flags |= packedFellBack
	}
	if t.errMsg != "" {
		sh.errs = append(sh.errs, t.errMsg)
		p.err = int32(len(sh.errs))
	}
	return p
}

// unpack rebuilds slot i's dirTiming. Requires sh.mu held.
func (sh *cacheShard) unpack(i int32) dirTiming {
	p := &sh.done[i]
	t := dirTiming{
		delay:        p.delay,
		slew:         p.slew,
		ok:           p.flags&packedOK != 0,
		slewFellBack: p.flags&packedFellBack != 0,
		tier:         p.tier,
		panics:       int(p.panics),
		reduced:      int(p.reduced),
	}
	t.stats.NRIters = int(p.nrIters)
	t.stats.Regions = int(p.regions)
	t.stats.DenseFallbacks = int(p.denseFallbacks)
	t.stats.CapResolves = int(p.capResolves)
	if p.err != 0 {
		t.errMsg = sh.errs[p.err-1]
	}
	return t
}

func newDelayCache() *delayCache {
	c := &delayCache{}
	for i := range c.shards {
		c.shards[i].index = map[Key]int32{}
		c.shards[i].flight = map[Key]*flight{}
	}
	return c
}

func (c *delayCache) shard(key *Key) *cacheShard { return &c.shards[key[0]%cacheShards] }

// lookupLocked reads key's state under sh.mu (held in either mode).
func (sh *cacheShard) lookupLocked(key *Key) (t dirTiming, f *flight, done bool) {
	if i, ok := sh.index[*key]; ok {
		return sh.unpack(i), nil, true
	}
	return t, sh.flight[*key], false
}

// lookup returns key's finished timing (done), or its flight while it is
// being evaluated, or neither when the key is absent. It creates nothing.
func (c *delayCache) lookup(key *Key) (t dirTiming, f *flight, done bool) {
	sh := c.shard(key)
	sh.mu.RLock()
	t, f, done = sh.lookupLocked(key)
	sh.mu.RUnlock()
	return t, f, done
}

// acquire is the single-flight entry point, for a key the level's peek
// found absent (so it goes straight to the write lock). A key finished
// since returns its timing and no flight; a key in flight returns its
// flight, which the caller must wait on; an absent key installs a new
// flight and makes THIS caller the leader. The leader MUST publish with no
// early exits in between, so a cancelled analysis can never strand a flight:
// in-flight computes always run to completion and release their followers
// (see TestCancelledContextLeavesCacheUsable).
func (c *delayCache) acquire(key *Key) (t dirTiming, f *flight, leader bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	t, f, done := sh.lookupLocked(key)
	if leader = !done && f == nil; leader {
		f = &flight{}
		f.ready.Add(1)
		sh.flight[*key] = f
	}
	sh.mu.Unlock()
	return t, f, leader
}

// publish finishes the leader's flight: the value moves into the slab, the
// flight leaves the in-flight table, and its followers are released.
func (c *delayCache) publish(key *Key, f *flight, t dirTiming) {
	f.val = t
	sh := c.shard(key)
	sh.mu.Lock()
	sh.index[*key] = int32(len(sh.done))
	sh.done = append(sh.done, sh.pack(&t))
	delete(sh.flight, *key)
	sh.mu.Unlock()
	f.ready.Done()
}
