package sta

import (
	"context"
	"sync"
	"sync/atomic"
)

// MemoryTier is a bounded in-process TierStore: a FIFO-evicting map. It is
// NOT the engine's single-flight delay cache — that sits above every tier
// and holds hydrated timings per analyzer, under the same keys, so a
// MemoryTier first in one analyzer's Config.Tiers would never hit. Its use is
// as a SERVED store: what peers PUT to a replica's tier endpoint when the
// deployment has no cache directory (see remotecache.MemoryStores).
type MemoryTier struct {
	capN int

	mu    sync.Mutex
	m     map[Key]TierEntry
	order []Key // insertion order of live keys, for FIFO eviction

	hits, misses, puts, evictions atomic.Int64
}

// NewMemoryTier creates a memory tier holding at most capN entries (0 or
// negative means the 4096 default).
func NewMemoryTier(capN int) *MemoryTier {
	if capN <= 0 {
		capN = 4096
	}
	return &MemoryTier{capN: capN, m: make(map[Key]TierEntry, capN)}
}

// Name implements TierStore.
func (t *MemoryTier) Name() string { return "memory" }

// GetMany implements TierStore: the batch resolves under one lock.
func (t *MemoryTier) GetMany(_ context.Context, keys []Key, out []TierEntry, hit []bool) {
	if t == nil {
		clear(hit[:len(keys)])
		return
	}
	var n int64
	t.mu.Lock()
	for i, k := range keys {
		out[i], hit[i] = t.m[k]
		if hit[i] {
			n++
		}
	}
	t.mu.Unlock()
	t.hits.Add(n)
	t.misses.Add(int64(len(keys)) - n)
}

// Put implements TierStore: insertion evicts the oldest entries beyond the
// cap. Overwriting an existing key keeps its original eviction position.
func (t *MemoryTier) Put(_ context.Context, key Key, e TierEntry) {
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

// CachedEntries fills every key not already hit with the entry the
// analyzer's own delay cache holds for it, waiting for one still being
// evaluated. A replica's tier endpoint serves its own analyses through it,
// for the keys its backing store misses.
func (a *Analyzer) CachedEntries(keys []Key, out []TierEntry, hit []bool) {
	for i := range keys {
		if hit[i] {
			continue
		}
		t, f, done := a.cache.lookup(&keys[i])
		if f != nil {
			t, done = f.wait(), true
		}
		if done {
			out[i], hit[i] = tierEntryOf(t), true
		}
	}
}
