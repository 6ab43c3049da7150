package sta

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"qwm/internal/obs"
	"qwm/internal/qwm"
)

// entries counts the cache's keys, finished or in flight.
func (c *delayCache) entries() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.index) + len(sh.flight)
		sh.mu.RUnlock()
	}
	return n
}

// metered builds an analyzer whose counters go to a registry of its own.
func metered(cfg Config) (*Analyzer, *obs.Registry) {
	cfg.Metrics = obs.NewRegistry()
	return New(tech, lib, cfg), cfg.Metrics
}

// count reads one counter of a registry.
func count(r *obs.Registry, name string) int64 { return r.Counter(name).Value() }

// TestPackedTimingRoundTrip: a finished entry is 48 pointer-free bytes, and
// publishing then looking up a timing returns it bit for bit, error text,
// flags and solver counts included.
func TestPackedTimingRoundTrip(t *testing.T) {
	if n := unsafe.Sizeof(packedTiming{}); n != 48 {
		t.Errorf("packedTiming is %d bytes, want 48", n)
	}
	pt := reflect.TypeOf(packedTiming{})
	for i := 0; i < pt.NumField(); i++ {
		switch pt.Field(i).Type.Kind() {
		case reflect.Float64, reflect.Int32, reflect.Uint8:
		default:
			t.Errorf("packedTiming.%s is a %s: finished entries must hold no pointers", pt.Field(i).Name, pt.Field(i).Type)
		}
	}

	c := &delayCache{}
	for i, want := range []dirTiming{
		{delay: 1.25e-10, slew: 3.5e-11, ok: true, stats: qwm.Stats{Regions: 9, NRIters: 41, DenseFallbacks: 1, CapResolves: 3}, reduced: 2},
		{delay: math.Nextafter(2e-10, 1), slew: 5e-12, ok: true, slewFellBack: true, tier: TierSpice, panics: 2},
		{errMsg: "no path to 0"},
		{errMsg: "all tiers failed: qwm: diverged", panics: 1, stats: qwm.Stats{NRIters: math.MaxInt32}},
	} {
		var k Key
		k[0] = byte(i)
		_, f, leader := c.acquire(&k)
		if !leader {
			t.Fatalf("case %d: a fresh key did not make a leader", i)
		}
		if _, inFlight, done := c.lookup(&k); done || inFlight != f {
			t.Fatalf("case %d: an acquired key must read as in flight", i)
		}
		c.publish(&k, f, want)
		got, inFlight, done := c.lookup(&k)
		if !done || inFlight != nil {
			t.Fatalf("case %d: a published key must read as finished", i)
		}
		if !reflect.DeepEqual(got, want) || math.Float64bits(got.delay) != math.Float64bits(want.delay) {
			t.Errorf("case %d: round trip %+v, want %+v", i, got, want)
		}
	}
	if n := c.entries(); n != 4 {
		t.Errorf("%d entries after 4 leaders published, want 4", n)
	}
}

// TestSingleFlightConcurrent: goroutines racing on one key make exactly one
// leader, every follower reads the leader's value, and the finished key
// leaves the in-flight table.
func TestSingleFlightConcurrent(t *testing.T) {
	const n = 16
	c := &delayCache{}
	var k Key
	want := dirTiming{delay: 7e-11, slew: 2e-11, ok: true, errMsg: "x"}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		leaders int
		got     []dirTiming
	)
	wg.Add(n)
	for g := 0; g < n; g++ {
		go func() {
			defer wg.Done()
			v, f, leader := c.acquire(&k)
			switch {
			case leader:
				mu.Lock()
				leaders++
				mu.Unlock()
				c.publish(&k, f, want)
				v = want
			case f != nil:
				v = f.wait()
			}
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1 (one miss, %d hits)", leaders, n-1)
	}
	for _, v := range got {
		if v != want {
			t.Fatalf("a caller read %+v, want %+v", v, want)
		}
	}
	sh := c.shard(&k)
	if len(sh.flight) != 0 || len(sh.index) != 1 {
		t.Errorf("%d keys in flight and %d finished after publishing, want 0 and 1", len(sh.flight), len(sh.index))
	}
}
