package sta

import (
	"context"
	"sync"
)

// MemoryTier is a bounded in-process TierStore: a FIFO-evicting map. It is
// NOT the engine's single-flight delay cache — that sits above every tier
// and holds hydrated timings per analyzer, under the same keys, so a
// MemoryTier first in one analyzer's Config.Tiers would never hit. Its use is
// as a SERVED store: what peers PUT to a replica's tier endpoint when the
// deployment has no cache directory (see remotecache.MemoryStores). It
// keeps no counters: the tier server's sta/remote/server/* counters already
// count every read and write it serves.
type MemoryTier struct {
	capN int

	mu    sync.Mutex
	m     map[Key]TierEntry
	order []Key // insertion order of live keys, for FIFO eviction
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
	t.mu.Lock()
	for i, k := range keys {
		out[i], hit[i] = t.m[k]
	}
	t.mu.Unlock()
}

// Put implements TierStore: insertion evicts the oldest entries beyond the
// cap. Overwriting an existing key keeps its original eviction position.
func (t *MemoryTier) Put(_ context.Context, key Key, e TierEntry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, exists := t.m[key]; !exists {
		t.order = append(t.order, key)
	}
	t.m[key] = e
	for len(t.m) > t.capN && len(t.order) > 0 {
		victim := t.order[0]
		t.order = t.order[1:]
		delete(t.m, victim)
	}
	t.mu.Unlock()
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
