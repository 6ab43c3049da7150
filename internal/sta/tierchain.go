package sta

import (
	"sync"
	"sync/atomic"
)

// TierChain composes an ordered list of TierStores into one read-through /
// write-back-all store, replacing ad-hoc single-store wiring of the
// Config.Tier slot. The service's fleet arrangement is
//
//	remote → disk
//
// fastest first: Get probes tiers in order and, on a hit at tier i, writes
// the entry back into every EARLIER tier (promotion), so the next probe for
// the same key stops sooner — a disk hit on a warm replica is how the shared
// remote tier gets populated lazily. Put fans out to every tier (write-back-all); each tier keeps its
// own lossy/write-behind discipline, so a slow or dead member never blocks
// the caller beyond that member's own Put contract.
//
// Every member must uphold the TierStore contract (lossy, never wrong, safe
// for concurrent use); the chain adds no locking of its own.
type TierChain struct {
	stores []TierStore
}

// NewTierChain builds a chain over the given stores, fastest first. Nil
// members are skipped. Zero usable stores yield a nil TierStore (tiering
// disabled); exactly one yields that store unwrapped — the chain only exists
// when there is actual composition to do.
func NewTierChain(stores ...TierStore) TierStore {
	kept := make([]TierStore, 0, len(stores))
	for _, s := range stores {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &TierChain{stores: kept}
}

// Stores returns the chain's members in probe order (for introspection;
// callers must not mutate the returned slice).
func (c *TierChain) Stores() []TierStore { return c.stores }

// Get probes the tiers in order and promotes a hit into every earlier tier.
func (c *TierChain) Get(key string) (TierEntry, bool) {
	for i, s := range c.stores {
		if e, ok := s.Get(key); ok && e.Valid() {
			for j := i - 1; j >= 0; j-- {
				c.stores[j].Put(key, e)
			}
			return e, true
		}
	}
	return TierEntry{}, false
}

// Put writes the entry to every tier.
func (c *TierChain) Put(key string, e TierEntry) {
	for _, s := range c.stores {
		s.Put(key, e)
	}
}

// MemoryTier is a bounded in-process TierStore: a FIFO-evicting map. It is
// NOT the engine's single-flight delay cache — that sits above every tier
// and holds hydrated timings per analyzer, under the same keys, so a
// MemoryTier at the head of one analyzer's chain would never hit. Its use is
// as a SERVED store: what a replica's tier endpoint shares with the fleet
// when the deployment has no cache directory (see remotecache.MemoryStores).
type MemoryTier struct {
	capN int

	mu    sync.Mutex
	m     map[string]TierEntry
	order []string // insertion order of live keys, for FIFO eviction

	hits, misses, puts, evictions atomic.Int64
}

// NewMemoryTier creates a memory tier holding at most capN entries (0 or
// negative means the 4096 default).
func NewMemoryTier(capN int) *MemoryTier {
	if capN <= 0 {
		capN = 4096
	}
	return &MemoryTier{capN: capN, m: make(map[string]TierEntry, capN)}
}

// TierName implements the optional naming interface traced tier probes use.
func (t *MemoryTier) TierName() string { return "memory" }

// Get implements TierStore.
func (t *MemoryTier) Get(key string) (TierEntry, bool) {
	if t == nil {
		return TierEntry{}, false
	}
	t.mu.Lock()
	e, ok := t.m[key]
	t.mu.Unlock()
	if !ok {
		t.misses.Add(1)
		return TierEntry{}, false
	}
	t.hits.Add(1)
	return e, true
}

// Put implements TierStore: insertion evicts the oldest entries beyond the
// cap. Overwriting an existing key keeps its original eviction position.
func (t *MemoryTier) Put(key string, e TierEntry) {
	if t == nil {
		return
	}
	t.puts.Add(1)
	t.mu.Lock()
	if _, exists := t.m[key]; !exists {
		t.order = append(t.order, key)
	}
	t.m[key] = e
	var evicted int64
	for len(t.m) > t.capN && len(t.order) > 0 {
		victim := t.order[0]
		t.order = t.order[1:]
		if _, ok := t.m[victim]; ok {
			delete(t.m, victim)
			evicted++
		}
	}
	t.mu.Unlock()
	if evicted > 0 {
		t.evictions.Add(evicted)
	}
}

// MemoryTierStats is a snapshot of a MemoryTier's counters.
type MemoryTierStats struct {
	Hits, Misses, Puts, Evictions int64
	Entries                       int
}

// Stats snapshots the tier's counters.
func (t *MemoryTier) Stats() MemoryTierStats {
	if t == nil {
		return MemoryTierStats{}
	}
	t.mu.Lock()
	n := len(t.m)
	t.mu.Unlock()
	return MemoryTierStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Puts:      t.puts.Load(),
		Evictions: t.evictions.Load(),
		Entries:   n,
	}
}
