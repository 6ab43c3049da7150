package sta_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
	"qwm/internal/stages"
)

// TestDelayCacheRetainedBytes holds the heap an analyzer retains per cache
// entry: 200 seeded 4-bit decoder variants (two devices resized each) on one
// analyzer, with and without a disk tier, measured as the live-heap growth
// over the runs divided by the delay cache's entries. The growth is the
// memory cache, the disk index and anything else kept per key. On a 2-CPU
// VM (Go 1.24), entries of a map[Key]*cacheEntry over a Key-keyed disk
// index retained 327 B with a disk tier and 217 B without; packed finished
// entries over a digest-word disk index retain about 200 B and 160 B.
func TestDelayCacheRetainedBytes(t *testing.T) {
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
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	for _, tc := range []struct {
		name  string
		disk  bool
		bound float64 // bytes per entry
	}{
		{"disk", true, 230},
		{"memory", false, 170},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sta.Config{Workers: 1}
			var store *diskcache.Store
			diskMetrics := obs.NewRegistry()
			if tc.disk {
				var err error
				if store, err = diskcache.Open(t.TempDir(), cfg.Signature(), diskcache.Options{Metrics: diskMetrics}); err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				cfg.Tiers = []sta.TierStore{store}
			}
			a := sta.New(tech, lib, cfg)
			before := heap()
			r := rand.New(rand.NewSource(1))
			for i := 0; i < 200; i++ {
				if _, err := a.AnalyzeContext(context.Background(), variant(r)); err != nil {
					t.Fatal(err)
				}
			}
			store.Flush()
			grown := heap() - before
			entries := sta.CacheEntries(a)
			runtime.KeepAlive(a)
			if entries < 1000 {
				t.Fatalf("only %d cache entries: the variants do not exercise the cache", entries)
			}
			perEntry := float64(grown) / float64(entries)
			t.Logf("%d entries (%d written to disk), %.0f B retained per entry",
				entries, diskMetrics.Counter("sta/disk/puts").Value(), perEntry)
			if perEntry > tc.bound {
				t.Fatalf("retained %.0f B per cache entry, bound %.0f", perEntry, tc.bound)
			}
		})
	}
}
