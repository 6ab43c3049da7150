package sta_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
	"qwm/internal/stages"
)

// TestDelayCacheRetainedBytes holds the heap an analyzer retains per cache
// entry: 200 seeded 4-bit decoder variants (two devices resized each) on one
// analyzer with a disk tier, measured as the live-heap growth over the runs
// divided by the delay cache's entries. The growth is the memory cache, the
// disk index and anything else kept per key. Digest keys measured 335 B per
// entry on a 2-CPU VM (Go 1.24); text keys retained about 1.1 KB. The bound
// is 1.5× the digest-key figure.
func TestDelayCacheRetainedBytes(t *testing.T) {
	const bound = 500 // bytes per entry
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	variant := func(r *rand.Rand) sta.Request {
		nl, ins, outs, err := stages.DecoderNetlist(tech, 4, 1e-6, 10e-15)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			tr := nl.Transistors[r.Intn(len(nl.Transistors))]
			tr.W *= 1 + 0.05*float64(1+r.Intn(20))
		}
		primary := map[string]sta.Arrival{}
		for _, in := range ins {
			primary[in] = sta.Arrival{}
		}
		return sta.Request{Netlist: nl, Primary: primary, Outputs: outs}
	}
	// Build the library's lazily characterized tables before measuring.
	if _, err := sta.New(tech, lib).AnalyzeContext(context.Background(), variant(rand.New(rand.NewSource(0)))); err != nil {
		t.Fatal(err)
	}

	cfg := sta.Config{Workers: 1}
	store, err := diskcache.Open(t.TempDir(), cfg.Signature(), diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cfg.Tiers = []sta.TierStore{store}
	a := sta.New(tech, lib, cfg)
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if _, err := a.AnalyzeContext(context.Background(), variant(r)); err != nil {
			t.Fatal(err)
		}
	}
	store.Flush()
	grown := heap() - before
	entries := a.CacheStats().Entries
	runtime.KeepAlive(a)
	if entries < 1000 {
		t.Fatalf("only %d cache entries: the variants do not exercise the cache", entries)
	}
	perEntry := float64(grown) / float64(entries)
	t.Logf("%d entries (%d on disk), %.0f B retained per entry", entries, store.Stats().Entries, perEntry)
	if perEntry > bound {
		t.Fatalf("retained %.0f B per cache entry, bound %d", perEntry, bound)
	}
}
