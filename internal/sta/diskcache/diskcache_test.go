package diskcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/stages"
)

func testEntry(i int) sta.TierEntry {
	return sta.TierEntry{
		Delay:   float64(i) * 1.25e-12,
		Slew:    float64(i) * 3e-13,
		OK:      true,
		Tier:    0,
		NRIters: int32(i),
		Regions: int32(i % 7),
	}
}

// tk is a test key: the name's bytes at the front of an otherwise zero Key.
func tk(name string) sta.Key {
	var k sta.Key
	copy(k[:], name)
	return k
}

// get reads one key through the store's batch read.
func get(s *Store, key sta.Key) (sta.TierEntry, bool) {
	var out [1]sta.TierEntry
	var hit [1]bool
	s.GetMany(context.Background(), []sta.Key{key}, out[:], hit[:])
	return out[0], hit[0]
}

func mustOpen(t *testing.T, dir, sig string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// metered opens a store whose counters go to a registry of its own.
func metered(t *testing.T, dir, sig string, opts Options) (*Store, *obs.Registry) {
	t.Helper()
	opts.Metrics = obs.NewRegistry()
	return mustOpen(t, dir, sig, opts), opts.Metrics
}

// count reads one of the sta/disk/* counters.
func count(r *obs.Registry, name string) int64 { return r.Counter("sta/disk/" + name).Value() }

// entries counts the store's live index entries.
func entries(s *Store) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// diskBytes is the store's total segment bytes.
func diskBytes(s *Store) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.totalBytesLocked()
}

func TestPutGetRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "sigA", Options{})
	const n = 100
	for i := 0; i < n; i++ {
		s.Put(context.Background(), tk(fmt.Sprintf("key-%03d", i)), testEntry(i))
	}
	s.Flush()
	for i := 0; i < n; i++ {
		e, ok := get(s, tk(fmt.Sprintf("key-%03d", i)))
		if !ok {
			t.Fatalf("key-%03d missing before restart", i)
		}
		if e != testEntry(i) {
			t.Fatalf("key-%03d: got %+v want %+v", i, e, testEntry(i))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh Store over the same directory serves every entry.
	s2, reg := metered(t, dir, "sigA", Options{})
	for i := 0; i < n; i++ {
		e, ok := get(s2, tk(fmt.Sprintf("key-%03d", i)))
		if !ok {
			t.Fatalf("key-%03d lost across restart", i)
		}
		if e != testEntry(i) {
			t.Fatalf("key-%03d after restart: got %+v want %+v", i, e, testEntry(i))
		}
	}
	if got, corrupt := entries(s2), count(reg, "corrupt"); got != n || corrupt != 0 {
		t.Fatalf("after restart: %d entries, %d corrupt; want %d and 0", got, corrupt, n)
	}
}

func TestLatestWriteWins(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "s", Options{})
	s.Put(context.Background(), tk("k"), testEntry(1))
	s.Put(context.Background(), tk("k"), testEntry(2))
	s.Flush()
	if e, _ := get(s, tk("k")); e != testEntry(2) {
		t.Fatalf("live store served %+v, want the later write", e)
	}
	s.Close()
	s2 := mustOpen(t, dir, "s", Options{})
	if e, ok := get(s2, tk("k")); !ok || e != testEntry(2) {
		t.Fatalf("reopened store served %+v (ok=%v), want the later write", e, ok)
	}
}

func TestSignatureMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "config-one", Options{})
	s.Close()
	if _, err := Open(dir, "config-two", Options{}); err == nil {
		t.Fatal("reopening under a different signature must fail")
	}
	// Same signature still fine.
	s2 := mustOpen(t, dir, "config-one", Options{})
	s2.Close()
}

// TestKillMidWrite simulates a crash that tears the last record: the torn
// tail must be truncated away on reopen and every record before it served.
func TestKillMidWrite(t *testing.T) {
	for _, cut := range []int{1, 5, 11, 13, 30, recValOff + 13} { // inside header, inside key, inside value
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, "s", Options{})
			for i := 0; i < 10; i++ {
				s.Put(context.Background(), tk(fmt.Sprintf("key-%d", i)), testEntry(i))
			}
			s.Flush()
			s.Close()

			seg := filepath.Join(dir, fmt.Sprintf(segPattern, 0))
			full, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			rec := encodeRecord(tk("torn-key"), encodeEntry(testEntry(99)))
			if cut >= len(rec) {
				t.Fatalf("cut %d outside record of %d bytes", cut, len(rec))
			}
			// Crash mid-append: only the first cut bytes of the record land.
			if err := os.WriteFile(seg, append(full, rec[:cut]...), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := mustOpen(t, dir, "s", Options{})
			if _, ok := get(s2, tk("torn-key")); ok {
				t.Fatal("torn record must not be served")
			}
			for i := 0; i < 10; i++ {
				if e, ok := get(s2, tk(fmt.Sprintf("key-%d", i))); !ok || e != testEntry(i) {
					t.Fatalf("key-%d lost or changed after torn-tail recovery (ok=%v)", i, ok)
				}
			}
			// The tail was truncated: appends after recovery must land cleanly.
			s2.Put(context.Background(), tk("after"), testEntry(50))
			s2.Flush()
			s2.Close()
			s3 := mustOpen(t, dir, "s", Options{})
			if e, ok := get(s3, tk("after")); !ok || e != testEntry(50) {
				t.Fatal("append after recovery did not survive a second restart")
			}
		})
	}
}

// TestCorruptEntryIsMiss flips one byte inside a committed record's value:
// the Get must miss, count sta/disk/corrupt, and never return wrong data.
func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, dir, "s", Options{Metrics: reg})
	s.Put(context.Background(), tk("victim"), testEntry(3))
	s.Put(context.Background(), tk("bystander"), testEntry(4))
	s.Flush()
	s.Close()

	seg := filepath.Join(dir, fmt.Sprintf(segPattern, 0))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The victim record is first after the magic; flip a byte well inside
	// its value region (past header+key).
	off := len(segMagic) + recValOff + 14
	b[off] ^= 0xFF
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2 := obs.NewRegistry()
	s2, err := Open(dir, "s", Options{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Open-time scan stops at the corrupt record: the victim is unindexed
	// (miss) and the corruption is counted.
	if _, ok := get(s2, tk("victim")); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if got := reg2.Snapshot().Counters["sta/disk/corrupt"]; got == 0 {
		t.Error("corruption not counted on sta/disk/corrupt")
	}
}

// TestCorruptionAfterIndexIsMiss corrupts a record AFTER the index was
// built (bit rot under a live store): the per-Get CRC re-verification must
// catch it.
func TestCorruptionAfterIndexIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, reg := metered(t, dir, "s", Options{})
	s.Put(context.Background(), tk("k"), testEntry(7))
	s.Flush()
	if _, ok := get(s, tk("k")); !ok {
		t.Fatal("sanity: entry must hit before corruption")
	}
	// Rot the value in place while the store is live and the index warm.
	seg := filepath.Join(dir, fmt.Sprintf(segPattern, 0))
	f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(segMagic) + recValOff + 14)
	var one [1]byte
	if _, err := f.ReadAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, ok := get(s, tk("k")); ok {
		t.Fatal("re-verification missed in-place corruption")
	}
	if count(reg, "corrupt") == 0 {
		t.Error("in-place corruption not counted")
	}
}

// TestGCBoundsSizeAndServesReaders drives enough writes through a tiny
// store to force segment GC while hammering Get from parallel readers:
// the size cap must hold, and every hit must return exactly what was put.
func TestGCBoundsSizeAndServesReaders(t *testing.T) {
	dir := t.TempDir()
	s, reg := metered(t, dir, "s", Options{
		SegmentBytes: 4 << 10,
		MaxBytes:     16 << 10,
		QueueLen:     1 << 14,
	})
	const n = 1000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i = (i + 17) % n {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("key-%04d", i)
				if e, ok := get(s, tk(key)); ok && e != testEntry(i) {
					t.Errorf("reader %d: %s returned %+v, want %+v", r, key, e, testEntry(i))
					return
				}
			}
		}(r)
	}
	for i := 0; i < n; i++ {
		s.Put(context.Background(), tk(fmt.Sprintf("key-%04d", i)), testEntry(i))
	}
	s.Flush()
	close(stop)
	wg.Wait()

	if b := diskBytes(s); b > 24<<10 { // cap + one active segment of slack
		t.Errorf("GC failed to bound size: %d bytes on disk", b)
	}
	if count(reg, "evictions") == 0 {
		t.Error("expected evictions on sta/disk/evictions")
	}
	// Recent keys must still be present; evicted old keys must miss cleanly.
	hits := 0
	for i := 0; i < n; i++ {
		if e, ok := get(s, tk(fmt.Sprintf("key-%04d", i))); ok {
			hits++
			if e != testEntry(i) {
				t.Fatalf("key-%04d corrupted by GC", i)
			}
		}
	}
	if hits == 0 || hits == n {
		t.Errorf("after GC: %d/%d hits — expected a strict subset", hits, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart over the GC'd directory: still consistent.
	s2 := mustOpen(t, dir, "s", Options{})
	for i := n - 50; i < n; i++ {
		if e, ok := get(s2, tk(fmt.Sprintf("key-%04d", i))); ok && e != testEntry(i) {
			t.Fatalf("key-%04d corrupted after GC+restart", i)
		}
	}
}

func TestQueueOverflowDropsNotBlocks(t *testing.T) {
	dir := t.TempDir()
	s, reg := metered(t, dir, "s", Options{QueueLen: 4})
	// Far more puts than the queue holds; Put must never block.
	for i := 0; i < 10000; i++ {
		s.Put(context.Background(), tk(fmt.Sprintf("k%d", i)), testEntry(i))
	}
	s.Flush()
	if puts, dropped := count(reg, "puts"), count(reg, "dropped"); puts+dropped < 10000 {
		t.Fatalf("puts %d + dropped %d < 10000", puts, dropped)
	}
}

// TestPutAfterCloseIsCountedDrop: a put that arrives after Close is never
// written, so it must be counted as a drop — every one of them.
func TestPutAfterCloseIsCountedDrop(t *testing.T) {
	s, reg := metered(t, t.TempDir(), "s", Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := count(reg, "dropped")
	for i := 0; i < 100; i++ {
		s.Put(context.Background(), tk(fmt.Sprintf("k%d", i)), testEntry(i))
	}
	if got := count(reg, "dropped") - before; got != 100 {
		t.Fatalf("100 puts after Close counted %d drops, want 100", got)
	}
}

func TestNilStoreIsNoop(t *testing.T) {
	var s *Store
	if _, ok := get(s, tk("k")); ok {
		t.Fatal("nil store hit")
	}
	s.Put(context.Background(), tk("k"), testEntry(1))
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmDiskMatchesWarmMemory is the end-to-end durability guarantee: an
// analyzer rehydrated purely from disk must produce bit-for-bit the results
// a warm in-memory analyzer does — arrivals, critical path, diagnostics —
// with zero solver evaluations and ≥90 % disk hit rate.
func TestWarmDiskMatchesWarmMemory(t *testing.T) {
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	primary := map[string]sta.Arrival{}
	for _, in := range ins {
		primary[in] = sta.Arrival{}
	}
	req := sta.Request{Netlist: nl, Primary: primary, Outputs: outs}
	cfg := sta.Config{Workers: 2}
	dir := t.TempDir()

	// Cold run populates the disk tier.
	s1, err := Open(dir, cfg.Signature(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tiers = []sta.TierStore{s1}
	cold := sta.New(tech, lib, cfg)
	ref, err := cold.AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-memory reference: same analyzer, second run.
	warmMem, err := cold.AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if warmMem.StagesEvaluated != 0 {
		t.Fatalf("warm-memory run evaluated %d stages", warmMem.StagesEvaluated)
	}
	s1.Flush()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store over the same dir, fresh analyzer.
	s2, reg := metered(t, dir, cfg.Signature(), Options{})
	cfg.Tiers = []sta.TierStore{s2}
	fresh := sta.New(tech, lib, cfg)
	warmDisk, err := fresh.AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}

	if warmDisk.StagesEvaluated != 0 {
		t.Errorf("warm-disk run evaluated %d stages, want 0", warmDisk.StagesEvaluated)
	}
	if !reflect.DeepEqual(warmMem.Arrivals, warmDisk.Arrivals) {
		t.Errorf("warm-disk arrivals diverged from warm-memory\nmem:  %v\ndisk: %v",
			warmMem.Arrivals, warmDisk.Arrivals)
	}
	if !reflect.DeepEqual(warmMem.CriticalPath, warmDisk.CriticalPath) ||
		warmMem.WorstArrival != warmDisk.WorstArrival || warmMem.WorstOutput != warmDisk.WorstOutput {
		t.Error("warm-disk summary diverged from warm-memory")
	}
	if !reflect.DeepEqual(warmMem.Diagnostics, warmDisk.Diagnostics) {
		t.Errorf("warm-disk diagnostics diverged\nmem:  %+v\ndisk: %+v",
			warmMem.Diagnostics, warmDisk.Diagnostics)
	}
	_ = ref
	if hits, misses := count(reg, "hits"), count(reg, "misses"); hits == 0 || float64(hits) < 0.9*float64(hits+misses) {
		t.Errorf("disk hit rate %d/%d after restart, want >= 0.90", hits, hits+misses)
	}
}

// TestGetHitAllocFree pins the warm disk read: a hit reads the fixed-width
// key and record into a pooled buffer and decodes it in place, so it
// allocates nothing. Entries with a long error message take the heap path,
// and must still read back exactly.
func TestGetHitAllocFree(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "s", Options{})
	ctx := context.Background()
	long := sta.TierEntry{ErrMsg: strings.Repeat("no conducting path; ", 20)}
	s.Put(ctx, tk("hit"), testEntry(5))
	s.Put(ctx, tk("long"), long)
	s.Flush()
	if e, ok := get(s, tk("long")); !ok || e != long {
		t.Fatalf("long entry read back as %+v, %v", e, ok)
	}
	keys := []sta.Key{tk("hit"), tk("hit")}
	out := make([]sta.TierEntry, len(keys))
	hit := make([]bool, len(keys))
	allocs := testing.AllocsPerRun(100, func() {
		s.GetMany(ctx, keys, out, hit)
		if !hit[0] || !hit[1] || out[0] != testEntry(5) || out[1] != testEntry(5) {
			t.Fatalf("hit read back as %+v, %v", out, hit)
		}
	})
	if allocs != 0 {
		t.Fatalf("disk batch hit allocates %.1f times, want 0", allocs)
	}
}

// TestDiskBytesGaugeSumsStores: two namespaces on one registry share the
// sta/disk/bytes gauge, which must read the sum of their totals (each store
// used to Set its own total, so the gauge showed whichever wrote last), and
// a closed store takes its bytes back out.
func TestDiskBytesGaugeSumsStores(t *testing.T) {
	reg := obs.NewRegistry()
	a := mustOpen(t, t.TempDir(), "sigA", Options{Metrics: reg})
	b := mustOpen(t, t.TempDir(), "sigB", Options{Metrics: reg})
	for i := 0; i < 20; i++ {
		a.Put(context.Background(), tk(fmt.Sprintf("a-%02d", i)), testEntry(i))
	}
	b.Put(context.Background(), tk("b"), testEntry(1))
	a.Flush()
	b.Flush()
	gauge := func() int64 { return reg.Snapshot().Gauges["sta/disk/bytes"] }
	sa, sb := diskBytes(a), diskBytes(b)
	if sa <= sb {
		t.Fatalf("store totals %d and %d: the stores must differ for the test to mean anything", sa, sb)
	}
	if got := gauge(); got != sa+sb {
		t.Errorf("sta/disk/bytes = %d, want %d + %d", got, sa, sb)
	}
	a.Close()
	if got := gauge(); got != sb {
		t.Errorf("after closing one store sta/disk/bytes = %d, want %d", got, sb)
	}
}

// TestIndexWordCollisionIsMiss: two keys that differ only past the digest's
// first word share an index slot. The later Put owns it, before and after a
// reopen; the earlier key then reads as a plain miss — not as corruption and
// never as the other key's timing.
func TestIndexWordCollisionIsMiss(t *testing.T) {
	a, b := tk("same-wrd-a"), tk("same-wrd-b")
	if indexWord(&a) != indexWord(&b) {
		t.Fatal("sanity: the keys must share an index word")
	}
	dir := t.TempDir()
	s, reg := metered(t, dir, "s", Options{})
	s.Put(context.Background(), a, testEntry(1))
	s.Flush()
	if e, ok := get(s, a); !ok || e != testEntry(1) {
		t.Fatalf("first key before the collision: %+v (ok=%v)", e, ok)
	}
	s.Put(context.Background(), b, testEntry(2))
	s.Flush()
	check := func(s *Store, reg *obs.Registry, when string) {
		t.Helper()
		if e, ok := get(s, a); ok {
			t.Errorf("%s: the displaced key read %+v, want a miss", when, e)
		}
		if e, ok := get(s, b); !ok || e != testEntry(2) {
			t.Errorf("%s: the owning key read %+v (ok=%v), want its own timing", when, e, ok)
		}
		if corrupt, n := count(reg, "corrupt"), entries(s); corrupt != 0 || n != 1 {
			t.Errorf("%s: %d corrupt, %d index entries; want 0 and 1", when, corrupt, n)
		}
	}
	check(s, reg, "live")
	s.Close()
	s2, reg2 := metered(t, dir, "s", Options{})
	check(s2, reg2, "reopened")
}

// TestOpenRejectsUnaddressableSegments: the index addresses records with
// 32-bit offsets, so a SegmentBytes past MaxSegmentBytes is refused with
// ErrSegmentBytes before the directory is touched.
func TestOpenRejectsUnaddressableSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := Open(dir, "s", Options{SegmentBytes: MaxSegmentBytes + 1}); !errors.Is(err, ErrSegmentBytes) {
		t.Fatalf("Open with SegmentBytes %d: err %v, want ErrSegmentBytes", int64(MaxSegmentBytes)+1, err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused Open created %s (stat err %v)", dir, err)
	}
	mustOpen(t, dir, "s", Options{SegmentBytes: MaxSegmentBytes}).Close()
}

// TestIndexBytesPerEntry holds the heap a store's index retains per record:
// reopening a directory of 6,000 records rebuilds the index, and the live
// heap the open store adds, over its records, is its per-entry cost (the
// write-behind queue's fixed buffer included). A map[sta.Key] index of
// 24-byte entries retained 123 B per record on a 2-CPU VM (Go 1.24); the
// digest-word index of 16-byte locators retains 50 B. The bound is 64 B.
func TestIndexBytesPerEntry(t *testing.T) {
	const n, bound = 6000, 64
	dir := t.TempDir()
	s := mustOpen(t, dir, "s", Options{QueueLen: n})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		var k sta.Key
		r.Read(k[:])
		s.Put(context.Background(), k, testEntry(i))
	}
	s.Close()
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	s = mustOpen(t, dir, "s", Options{})
	grown := heap() - before
	indexed := entries(s)
	runtime.KeepAlive(s)
	if indexed != n {
		t.Fatalf("reopened store indexes %d records, want %d", indexed, n)
	}
	perEntry := float64(grown) / float64(indexed)
	t.Logf("%d records, %.0f B of index per record", indexed, perEntry)
	if perEntry > bound {
		t.Fatalf("index retains %.0f B per record, bound %d", perEntry, bound)
	}
}
