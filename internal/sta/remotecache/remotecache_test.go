package remotecache_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
	"qwm/internal/sta/remotecache"
	"qwm/internal/stages"
)

var (
	tech = mos.CMOSP35()
	lib  = devmodel.NewLibrary(tech)
)

// tk is a test key: the name's bytes at the front of an otherwise zero Key.
func tk(name string) sta.Key {
	var k sta.Key
	copy(k[:], name)
	return k
}

// get reads one key through the client's batch read.
func get(ctx context.Context, c *remotecache.Client, key sta.Key) (sta.TierEntry, bool) {
	var out [1]sta.TierEntry
	var hit [1]bool
	c.GetMany(ctx, []sta.Key{key}, out[:], hit[:])
	return out[0], hit[0]
}

// tierURL is the batch route of one signature's namespace.
func tierURL(base, sig string) string {
	return base + "/tier/" + base64.RawURLEncoding.EncodeToString([]byte(sig)) + "/"
}

// do sends one request and returns its status and body.
func do(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// frame is the canonical wire frame of one entry.
func frame(key sta.Key, e sta.TierEntry) []byte {
	return diskcache.EncodeRecord(key, diskcache.EncodeEntry(e))
}

func decoderFixture(t *testing.T) (*circuit.Netlist, map[string]sta.Arrival, []string) {
	t.Helper()
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	primary := map[string]sta.Arrival{}
	for _, in := range ins {
		primary[in] = sta.Arrival{}
	}
	return nl, primary, outs
}

// startTier spins up an in-process tier server over per-signature memory
// stores and returns its base URL plus the server for stats.
func startTier(t *testing.T) (string, *remotecache.Server) {
	t.Helper()
	srv := remotecache.NewServer(remotecache.MemoryStores(0), nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs.URL, srv
}

// quick are client options tuned for tests: a low breaker threshold and no
// wall-clock breaker behaviour, so a failing test fails fast and
// deterministically.
func quick() remotecache.Options {
	return remotecache.Options{
		Timeout:           2 * time.Second,
		BreakerThreshold:  3,
		BreakerProbeEvery: 4,
		BreakerCooldown:   -1,
	}
}

// newMetered is New with a registry of the client's own, so a test reads
// that client's counters alone (see count).
func newMetered(base, sig string, opts remotecache.Options) (*remotecache.Client, *obs.Registry) {
	opts.Metrics = obs.NewRegistry()
	return remotecache.New(base, sig, opts), opts.Metrics
}

// count reads the client counter sta/remote/<name> from reg.
func count(reg *obs.Registry, name string) int64 {
	return reg.Counter("sta/remote/" + name).Value()
}

// netFault is a network fault the chaos transport injects.
type netFault int

const (
	netLatency netFault = iota // the round trip stalls, then completes
	netError                   // the round trip fails at the transport
	netCorrupt                 // a byte flips inside a read's answered frame
)

func (f netFault) String() string {
	return [...]string{"net-latency", "net-error", "net-corrupt"}[f]
}

// chaos is an http.RoundTripper that injects one network fault at a rate,
// keyed by cache key: a request stalls or fails when any key it carries
// fires (a read's keys, a write's frames' keys), and a read's answer has a
// byte flipped in the frame of every key that fires. Whether a key fires is
// a hash of (seed, key), so the weather does not depend on scheduling or on
// how the keys were batched.
type chaos struct {
	fault netFault
	seed  uint64
	rate  float64
	fired atomic.Int64
}

// fires reports whether the fault fires at key.
func (ch *chaos) fires(key sta.Key) bool {
	var buf [8 + sta.KeySize]byte
	binary.LittleEndian.PutUint64(buf[:8], ch.seed)
	copy(buf[8:], key[:])
	h := sha256.Sum256(buf[:])
	return float64(binary.LittleEndian.Uint64(h[:8])>>11)/(1<<53) < ch.rate
}

// frameKey is the cache key embedded in an intact frame.
func frameKey(frame []byte) sta.Key {
	key, _, _ := diskcache.DecodeRecord(frame)
	return key
}

func (ch *chaos) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return nil, err
	}
	var keys []sta.Key
	if r.Method == http.MethodPost {
		for k := body; len(k) >= sta.KeySize; k = k[sta.KeySize:] {
			keys = append(keys, sta.Key(k[:sta.KeySize]))
		}
	} else {
		for rest := body; ; {
			frame, next, ok := diskcache.NextRecord(rest)
			if !ok {
				break
			}
			keys, rest = append(keys, frameKey(frame)), next
		}
	}
	if ch.fault != netCorrupt && slices.ContainsFunc(keys, ch.fires) {
		ch.fired.Add(1)
		if ch.fault == netError {
			return nil, errors.New("injected network error")
		}
		time.Sleep(200 * time.Microsecond)
	}
	r = r.Clone(r.Context())
	r.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || ch.fault != netCorrupt || r.Method != http.MethodPost {
		return resp, err
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	for rest := answer; ; {
		frame, next, ok := diskcache.NextRecord(rest)
		if !ok {
			break
		}
		if ch.fires(frameKey(frame)) {
			ch.fired.Add(1)
			frame[len(frame)/2] ^= 0x40
		}
		rest = next
	}
	resp.Body = io.NopCloser(bytes.NewReader(answer))
	return resp, nil
}

// withChaos returns opts sending every request through ch.
func withChaos(opts remotecache.Options, ch *chaos) remotecache.Options {
	opts.HTTPClient = &http.Client{Transport: ch}
	return opts
}

func TestWireRoundTripAndCorruption(t *testing.T) {
	base, srv := startTier(t)
	corrupting, creg := newMetered(base, "sig-a", withChaos(quick(), &chaos{fault: netCorrupt, seed: 7, rate: 1}))
	defer corrupting.Close()
	clean := remotecache.New(base, "sig-a", quick())
	defer clean.Close()
	other := remotecache.New(base, "sig-b", quick())
	defer other.Close()

	e := sta.TierEntry{Delay: 1.25e-10, Slew: 3.5e-11, OK: true, Tier: uint8(sta.TierQWM), NRIters: 7}

	// Cold server: a definitive miss, and a completed round trip (no breaker
	// damage).
	if _, ok := get(context.Background(), clean, tk("k1")); ok {
		t.Fatal("cold Get hit")
	}

	clean.Put(context.Background(), tk("k1"), e)
	clean.Flush()
	if got := srv.Stats(); got.Stored != 1 {
		t.Fatalf("server stored %d records, want 1 (stats %+v)", got.Stored, got)
	}

	got, ok := get(context.Background(), clean, tk("k1"))
	if !ok || got != e {
		t.Fatalf("round trip = %+v, %v; want the stored entry back bit-for-bit", got, ok)
	}

	// Namespace isolation: same key, different signature, must miss.
	if _, ok := get(context.Background(), other, tk("k1")); ok {
		t.Fatal("signature namespaces alias each other")
	}

	// Wire corruption at rate 1: every GET response has a byte flipped, the
	// CRC catches it, and the client serves a counted miss — never a wrong
	// entry.
	if _, ok := get(context.Background(), corrupting, tk("k1")); ok {
		t.Fatal("corrupt frame served as a hit")
	}
	if c, m, h := count(creg, "corrupt"), count(creg, "misses"), count(creg, "hits"); c != 1 || m != 1 || h != 0 {
		t.Fatalf("corrupt path counted %d corrupt, %d misses, %d hits; want 1 corrupt counted miss", c, m, h)
	}
	// Corruption is breaker-neutral: the transport worked.
	if st := corrupting.BreakerState(); st != remotecache.BreakerClosed {
		t.Fatalf("breaker %v after corruption, want closed", st)
	}

	// A corrupt PUT is rejected by the server and never stored.
	rec := frame(tk("k2"), e)
	rec[len(rec)-1] ^= 0xff
	if code, _ := do(t, http.MethodPut, tierURL(base, "sig-a"), rec); code != http.StatusBadRequest {
		t.Fatalf("corrupt PUT: status %d, want 400", code)
	}
	if got := srv.Stats(); got.Corrupt != 1 || got.Stored != 1 {
		t.Fatalf("server accepted a corrupt frame: %+v", got)
	}
}

// failThenServe is a RoundTripper that counts attempts (and, of those, the
// reads) and fails every request until healed, after which it answers 200
// with no frames (a completed round trip: every key missed).
type failThenServe struct {
	attempts, reads atomic.Int64
	healed          atomic.Bool
}

func (f *failThenServe) RoundTrip(r *http.Request) (*http.Response, error) {
	f.attempts.Add(1)
	if r.Method == http.MethodPost {
		f.reads.Add(1)
	}
	if !f.healed.Load() {
		return nil, errors.New("synthetic transport failure")
	}
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusOK)
	return rec.Result(), nil
}

// TestBreakerDeterministicTransitions pins the exact state trajectory and
// network-attempt count of the breaker against a dead peer: threshold 3,
// probe every 4th suppressed op, cooldown disabled. A replay on
// a fresh client walks the same states at the same attempt counts.
// TestDeadPeerUnderEngine holds the same breaker to its cost bound under a
// whole analysis.
func TestBreakerDeterministicTransitions(t *testing.T) {
	first := breakerTrajectory(t)
	if replay := breakerTrajectory(t); !reflect.DeepEqual(replay, first) {
		t.Errorf("replayed trajectory differs:\n got  %v\n want %v", replay, first)
	}
}

// breakerTrajectory walks one fresh client through the pinned trajectory and
// returns its breaker state and attempt count after every read.
func breakerTrajectory(t *testing.T) (steps []string) {
	tr := &failThenServe{}
	opts := quick()
	opts.HTTPClient = &http.Client{Transport: tr}
	c, reg := newMetered("http://dead.invalid", "sig", opts)
	defer c.Close()

	read := func() {
		get(context.Background(), c, tk("k"))
		steps = append(steps, fmt.Sprintf("%v/%d", c.BreakerState(), tr.attempts.Load()))
	}

	// Reads 1..3 reach the transport and fail; the 3rd opens the breaker.
	for i := 0; i < 3; i++ {
		if st := c.BreakerState(); st != remotecache.BreakerClosed {
			t.Fatalf("get %d: breaker %v, want closed", i, st)
		}
		read()
	}
	if st := c.BreakerState(); st != remotecache.BreakerOpen {
		t.Fatalf("after threshold: breaker %v, want open", st)
	}
	if n := tr.attempts.Load(); n != 3 {
		t.Fatalf("attempts = %d, want 3", n)
	}

	// Reads 4..6 are suppressed: zero network traffic, counted fast-fails.
	for i := 0; i < 3; i++ {
		read()
	}
	if n := tr.attempts.Load(); n != 3 {
		t.Fatalf("open breaker leaked %d network attempts", n-3)
	}
	if n := count(reg, "fastfails"); n != 3 {
		t.Fatalf("fastfails = %d, want 3", n)
	}

	// Read 7 is the 4th suppressed op: promoted to a half-open probe, which
	// fails and re-opens. Exactly one extra attempt.
	read()
	if n := tr.attempts.Load(); n != 4 {
		t.Fatalf("probe window: attempts = %d, want 4", n)
	}
	if st := c.BreakerState(); st != remotecache.BreakerOpen {
		t.Fatalf("after failed probe: breaker %v, want open", st)
	}
	if n := count(reg, "breaker_opens"); n != 2 {
		t.Fatalf("breaker opens = %d, want 2", n)
	}

	// Heal the peer; the next probe (3 suppressed + 1 promoted) closes the
	// breaker, and traffic flows again.
	tr.healed.Store(true)
	for i := 0; i < 4; i++ {
		read()
	}
	if st := c.BreakerState(); st != remotecache.BreakerClosed {
		t.Fatalf("after healed probe: breaker %v, want closed", st)
	}
	if n := tr.attempts.Load(); n != 5 {
		t.Fatalf("recovery: attempts = %d, want 5", n)
	}
	read()
	if n := tr.attempts.Load(); n != 6 {
		t.Fatalf("closed breaker suppressed traffic: attempts = %d, want 6", n)
	}
	return steps
}

// TestPutAfterCloseIsCountedDrop: a put that arrives after Close is never
// sent, so it must be counted as a drop — every one of them.
func TestPutAfterCloseIsCountedDrop(t *testing.T) {
	base, _ := startTier(t)
	c, reg := newMetered(base, "sig", quick())
	c.Close()
	e := sta.TierEntry{Delay: 1e-10, OK: true, Tier: uint8(sta.TierQWM)}
	before := count(reg, "dropped")
	for i := 0; i < 100; i++ {
		c.Put(context.Background(), tk(fmt.Sprintf("k%d", i)), e)
	}
	if got := count(reg, "dropped") - before; got != 100 {
		t.Fatalf("100 puts after Close counted %d drops, want 100", got)
	}
}

// TestConcurrentClose: Close is safe to call from many goroutines at once;
// every call returns after the write-behind goroutine has exited.
func TestConcurrentClose(t *testing.T) {
	for round := 0; round < 200; round++ {
		c := remotecache.New("http://dead.invalid", "sig", quick())
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.Close()
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestTwoReplicasShareTier is the remote-smoke gate: replica A analyzes
// cold, bit-identically to a remote-disabled analyzer, and publishes its
// delay cache to the shared tier; a second, fresh replica B then analyzes
// the same workload entirely off remote hits — zero evaluations, ≥90 %
// client hit rate, bit-identical results.
func TestTwoReplicasShareTier(t *testing.T) {
	base, _ := startTier(t)
	nl, ins, outs := decoderFixture(t)
	req := sta.Request{Netlist: nl, Primary: ins, Outputs: outs}

	cfgA := sta.Config{Workers: 2}
	ca, rega := newMetered(base, cfgA.Signature(), quick())
	cfgA.Tiers = []sta.TierStore{ca}
	a := sta.New(tech, lib, cfgA)
	ref, err := a.AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if ref.StagesEvaluated == 0 {
		t.Fatal("cold replica evaluated nothing; fixture is broken")
	}
	sameAsNoRemote(t, "replica A", req, ref)
	ca.Flush()
	if n := count(rega, "puts"); n < int64(ref.StagesEvaluated) {
		t.Fatalf("replica A published %d/%d entries", n, ref.StagesEvaluated)
	}
	ca.Close()

	cfgB := sta.Config{Workers: 4}
	cb, regb := newMetered(base, cfgB.Signature(), quick())
	defer cb.Close()
	cfgB.Tiers = []sta.TierStore{cb}
	b := sta.New(tech, lib, cfgB)
	res, err := b.AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesEvaluated != 0 {
		t.Errorf("fresh replica evaluated %d stages off a warm shared tier, want 0", res.StagesEvaluated)
	}
	if hits, misses := count(regb, "hits"), count(regb, "misses"); float64(hits) < 0.9*float64(hits+misses) {
		t.Errorf("replica B remote hits %d of %d reads, want >= 90%%", hits, hits+misses)
	}
	if !reflect.DeepEqual(ref.Arrivals, res.Arrivals) || !reflect.DeepEqual(ref.Diagnostics, res.Diagnostics) {
		t.Error("replica B diverged from replica A")
	}
}

// sameAsNoRemote fails the test unless got's arrivals and diagnostics equal,
// bit for bit, those of an analyzer with no remote tier: the fault-tolerance
// envelope may only ever turn remote failures into cache misses.
func sameAsNoRemote(t *testing.T, label string, req sta.Request, got *sta.Result) {
	t.Helper()
	ref, err := sta.New(tech, lib, sta.Config{Workers: 2}).AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Arrivals, got.Arrivals) || !reflect.DeepEqual(ref.Diagnostics, got.Diagnostics) {
		t.Errorf("%s diverged from the remote-disabled analyzer", label)
	}
}

// analyzeThrough runs req on a fresh analyzer whose only tier is c.
func analyzeThrough(t *testing.T, c *remotecache.Client, req sta.Request) *sta.Result {
	t.Helper()
	res, err := sta.New(tech, lib, sta.Config{Workers: 2, Tiers: []sta.TierStore{c}}).AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNetworkChaosBitIdentical: each network fault at rate 0.2, keyed by
// cache key, against a warm shared tier leaves arrivals and diagnostics
// exactly as with no remote tier. The fault must fire, and corrupt frames
// are counted without opening the breaker: corruption is data-plane, not
// peer death.
func TestNetworkChaosBitIdentical(t *testing.T) {
	base, _ := startTier(t)
	nl, ins, outs := decoderFixture(t)
	req := sta.Request{Netlist: nl, Primary: ins, Outputs: outs}
	sig := sta.Config{Workers: 2}.Signature()
	warm := remotecache.New(base, sig, quick())
	analyzeThrough(t, warm, req)
	warm.Close() // net-corrupt needs real frames to corrupt

	for _, fault := range []netFault{netLatency, netError, netCorrupt} {
		t.Run(fault.String(), func(t *testing.T) {
			ch := &chaos{fault: fault, seed: 1, rate: 0.2}
			c, reg := newMetered(base, sig, withChaos(quick(), ch))
			defer c.Close()
			sameAsNoRemote(t, fault.String(), req, analyzeThrough(t, c, req))
			if ch.fired.Load() == 0 {
				t.Errorf("the %s fault never fired", fault)
			}
			if fault == netCorrupt {
				if count(reg, "corrupt") == 0 {
					t.Error("no corrupt frames counted")
				}
				if st := c.BreakerState(); st != remotecache.BreakerClosed {
					t.Errorf("corruption moved the breaker to %v", st)
				}
			}
		})
	}
}

// TestDeadPeerUnderEngine: analyses whose only tier is a dead peer spend
// at most the breaker threshold (3) plus one probe per 4 suppressed reads in
// read attempts, fast-fail the rest, and answer exactly as with no remote
// tier. Each cold analysis of the 3-bit decoder reads the tier once per
// dependency level, so four analyses make 12 reads against a budget of
// 3 + 12/4 + 1 = 7: a breaker that never suppressed would spend all 12.
func TestDeadPeerUnderEngine(t *testing.T) {
	const analyses, levels = 4, 3
	nl, ins, outs := decoderFixture(t)
	req := sta.Request{Netlist: nl, Primary: ins, Outputs: outs}
	tr := &failThenServe{}
	opts := quick()
	opts.HTTPClient = &http.Client{Transport: tr}
	c, reg := newMetered("http://dead.invalid", "sig", opts)
	for i := 0; i < analyses; i++ {
		sameAsNoRemote(t, "dead peer", req, analyzeThrough(t, c, req))
	}
	c.Close() // drain the write-behind: every put is now sent or dropped
	if n, budget := tr.reads.Load(), int64(3+analyses*levels/4+1); n > budget {
		t.Errorf("dead peer cost %d read attempts over %d level reads, budget %d", n, analyses*levels, budget)
	}
	if count(reg, "fastfails") == 0 {
		t.Error("open breaker never fast-failed")
	}
}

// blackhole is a peer that never answers: each round trip blocks until its
// request's context ends.
type blackhole struct{ trips atomic.Int64 }

func (b *blackhole) RoundTrip(r *http.Request) (*http.Response, error) {
	b.trips.Add(1)
	<-r.Context().Done()
	return nil, r.Context().Err()
}

// TestDeadPeerOneAttemptPerRead: with default options but a short deadline,
// a read of a peer that never answers makes exactly one round trip and
// returns after about one deadline, counted as a timeout, until the breaker
// opens at its default threshold (5); the open breaker then answers
// without touching the network.
func TestDeadPeerOneAttemptPerRead(t *testing.T) {
	const timeout = 200 * time.Millisecond
	tr := &blackhole{}
	c, reg := newMetered("http://dead.invalid", "sig", remotecache.Options{
		Timeout:    timeout,
		HTTPClient: &http.Client{Transport: tr},
	})
	defer c.Close()
	reads := int64(0)
	for c.BreakerState() == remotecache.BreakerClosed {
		if reads == 5 {
			t.Fatal("breaker still closed after 5 failed reads")
		}
		start := time.Now()
		if _, ok := get(context.Background(), c, tk("k")); ok {
			t.Fatal("a dead peer answered a hit")
		}
		reads++
		if d := time.Since(start); d < timeout || d > 2*timeout {
			t.Errorf("read %d took %v, want about one %v deadline", reads, d, timeout)
		}
		if n := tr.trips.Load(); n != reads {
			t.Fatalf("%d reads made %d round trips, want one each", reads, n)
		}
	}
	if reads != 5 || count(reg, "timeouts") != 5 || count(reg, "misses") != 5 {
		t.Errorf("breaker opened after %d reads with %d timeouts and %d misses, want 5 of each",
			reads, count(reg, "timeouts"), count(reg, "misses"))
	}
	start := time.Now()
	get(context.Background(), c, tk("k"))
	if n, d := tr.trips.Load(), time.Since(start); n != 5 || d >= timeout {
		t.Errorf("open breaker: %d round trips in total, read took %v; want 5 and no wait", n, d)
	}
}

// TestWarmReplicaReadBudget: the level is the unit of tier I/O. A fresh
// replica over a warm shared tier answers the 3-bit decoder with zero
// evaluations and bit-identical results in at most one read request per
// dependency level (3); one request per key would take 38.
func TestWarmReplicaReadBudget(t *testing.T) {
	base, srv := startTier(t)
	nl, ins, outs := decoderFixture(t)
	req := sta.Request{Netlist: nl, Primary: ins, Outputs: outs}

	cfgA := sta.Config{Workers: 2}
	ca, rega := newMetered(base, cfgA.Signature(), quick())
	cfgA.Tiers = []sta.TierStore{ca}
	ref, err := sta.New(tech, lib, cfgA).AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	ca.Close()
	aWrites, aPuts := count(rega, "write_requests"), count(rega, "puts")
	if aWrites == 0 || aWrites >= aPuts {
		t.Errorf("replica A sent %d records in %d write requests; the write-behind must coalesce", aPuts, aWrites)
	}

	cfgB := sta.Config{Workers: 4}
	cb, regb := newMetered(base, cfgB.Signature(), quick())
	defer cb.Close()
	cfgB.Tiers = []sta.TierStore{cb}
	res, err := sta.New(tech, lib, cfgB).AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.StagesEvaluated != 0 {
		t.Errorf("fresh replica evaluated %d stages off a warm shared tier, want 0", res.StagesEvaluated)
	}
	if !reflect.DeepEqual(ref.Arrivals, res.Arrivals) || !reflect.DeepEqual(ref.Diagnostics, res.Diagnostics) {
		t.Error("replica B diverged from replica A")
	}
	bReads, bHits, bMisses := count(regb, "read_requests"), count(regb, "hits"), count(regb, "misses")
	if bReads > 3 || bHits == 0 || bMisses != 0 {
		t.Errorf("replica B: %d read requests for %d hits and %d misses, want at most 3 and no misses", bReads, bHits, bMisses)
	}
	reads := count(rega, "read_requests") + bReads
	keys := count(rega, "hits") + count(rega, "misses") + bHits + bMisses
	if got := srv.Stats(); got.ReadRequests != reads || got.Gets != keys {
		t.Errorf("server counted %d read requests for %d keys; clients sent %d for %d",
			got.ReadRequests, got.Gets, reads, keys)
	}
}

// gatedDead is a dead peer whose first PUT blocks until the gate opens: the
// write-behind sink is then held inside one send while later puts queue up
// behind it. Every request fails; attempts are counted per method.
type gatedDead struct {
	reads, writes atomic.Int64
	entered, gate chan struct{}
}

func (g *gatedDead) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method != http.MethodPut {
		g.reads.Add(1)
		return nil, errors.New("dead peer")
	}
	if g.writes.Add(1) == 1 {
		close(g.entered)
		<-g.gate
	}
	return nil, errors.New("dead peer")
}

// TestBreakerStateGaugeWorst: clients on one registry share one
// sta/remote/breaker_state gauge, which reads the worst live breaker. A
// opens; B opens and then closes; the gauge still reads open until A closes
// too. A client's Close withdraws its breaker, open or not.
func TestBreakerStateGaugeWorst(t *testing.T) {
	reg := obs.NewRegistry()
	gauge := func() int64 { return reg.Snapshot().Gauges["sta/remote/breaker_state"] }
	client := func() (*remotecache.Client, *failThenServe) {
		tr := &failThenServe{}
		opts := quick()
		opts.HTTPClient = &http.Client{Transport: tr}
		opts.Metrics = reg
		return remotecache.New("http://dead.invalid", "sig", opts), tr
	}
	// threshold 3 opens; after healing, the 4th suppressed read probes and
	// closes.
	open := func(c *remotecache.Client) {
		for i := 0; i < 3; i++ {
			get(context.Background(), c, tk("k"))
		}
		if st := c.BreakerState(); st != remotecache.BreakerOpen {
			t.Fatalf("breaker %v, want open", st)
		}
	}
	heal := func(c *remotecache.Client, tr *failThenServe) {
		tr.healed.Store(true)
		for i := 0; i < 4; i++ {
			get(context.Background(), c, tk("k"))
		}
		if st := c.BreakerState(); st != remotecache.BreakerClosed {
			t.Fatalf("breaker %v, want closed", st)
		}
	}
	a, trA := client()
	defer a.Close()
	b, trB := client()
	defer b.Close()
	open(a)
	open(b)
	heal(b, trB)
	if g := gauge(); g != int64(remotecache.BreakerOpen) {
		t.Fatalf("A open, B closed: gauge %d, want %d", g, remotecache.BreakerOpen)
	}
	heal(a, trA)
	if g := gauge(); g != int64(remotecache.BreakerClosed) {
		t.Fatalf("both closed: gauge %d, want %d", g, remotecache.BreakerClosed)
	}

	c, _ := client()
	open(c)
	if g := gauge(); g != int64(remotecache.BreakerOpen) {
		t.Fatalf("C open: gauge %d, want %d", g, remotecache.BreakerOpen)
	}
	c.Close()
	if g := gauge(); g != int64(remotecache.BreakerClosed) {
		t.Fatalf("C closed while open: gauge %d, want %d", g, remotecache.BreakerClosed)
	}
}

// TestBreakerIgnoresWriteBehind: write-behind sends never advance the probe
// schedule. Puts queued while the breaker was closed and drained after it
// opened are dropped without touching the network, so the open breaker
// walks exactly the trajectory — state, read attempts, opens — it walks
// with no puts at all.
func TestBreakerIgnoresWriteBehind(t *testing.T) {
	e := sta.TierEntry{Delay: 1e-10, OK: true, Tier: uint8(sta.TierQWM)}
	run := func(withPuts bool) (steps []string, dropped, puts, writes int64) {
		tr := &gatedDead{entered: make(chan struct{}), gate: make(chan struct{})}
		opts := quick()
		opts.HTTPClient = &http.Client{Transport: tr}
		c, reg := newMetered("http://dead.invalid", "sig", opts)
		defer c.Close()
		if withPuts {
			// The first put's send holds the sink; six more queue behind it
			// while the breaker is still closed.
			c.Put(context.Background(), tk("p0"), e)
			<-tr.entered
			for i := 1; i <= 6; i++ {
				c.Put(context.Background(), tk(fmt.Sprintf("p%d", i)), e)
			}
		}
		step := func() {
			get(context.Background(), c, tk("k"))
			steps = append(steps, fmt.Sprintf("%v/%d/%d", c.BreakerState(), tr.reads.Load(), count(reg, "breaker_opens")))
		}
		for i := 0; i < 3; i++ { // threshold 3: the breaker opens
			step()
		}
		if withPuts {
			close(tr.gate)
			c.Flush() // the queued puts drain with the breaker open
		}
		for i := 0; i < 9; i++ {
			step()
		}
		return steps, count(reg, "dropped"), count(reg, "puts"), tr.writes.Load()
	}
	want, _, _, _ := run(false)
	got, dropped, puts, writes := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("open-breaker trajectory with queued puts:\n got  %v\n want %v", got, want)
	}
	if writes != 1 {
		t.Errorf("%d PUT attempts reached a dead peer, want only the one sent while closed", writes)
	}
	if dropped != 7 || puts != 0 {
		t.Errorf("%d records dropped and %d put, want all 7 dropped", dropped, puts)
	}
}

// TestChainKillRestartRace drives concurrent analyses through the service's
// tier arrangement, remote → disk, while the remote server is killed and
// restarted mid-run. Every result must stay bit-identical to the no-tier
// baseline, and the whole rig must unwind without leaking goroutines.
// Runs under -race in CI (make remote-smoke).
func TestChainKillRestartRace(t *testing.T) {
	before := runtime.NumGoroutine()
	nl, ins, outs := decoderFixture(t)
	req := sta.Request{Netlist: nl, Primary: ins, Outputs: outs}

	// Baseline: no tiers at all.
	ref, err := sta.New(tech, lib, sta.Config{Workers: 2}).AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}

	func() { // scope the rig so every resource is down before the leak check
		// A kill-able tier server on a real TCP listener.
		srv := remotecache.NewServer(remotecache.MemoryStores(0), nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		hs := &http.Server{Handler: srv.Handler()}
		var serveWG sync.WaitGroup
		serve := func(l net.Listener, s *http.Server) {
			serveWG.Add(1)
			go func() {
				defer serveWG.Done()
				s.Serve(l)
			}()
		}
		serve(ln, hs)

		cfg := sta.Config{Workers: 2}
		disk, err := diskcache.Open(t.TempDir(), cfg.Signature(), diskcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := quick()
		opts.Timeout = 500 * time.Millisecond
		opts.HTTPClient = &http.Client{Transport: &http.Transport{}}
		rc := remotecache.New("http://"+addr, cfg.Signature(), opts)
		cfg.Tiers = []sta.TierStore{rc, disk}
		a := sta.New(tech, lib, cfg)

		const runs = 8
		results := make([]*sta.Result, runs)
		errs := make([]error, runs)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < runs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i], errs[i] = a.AnalyzeContext(nil, req)
			}(i)
		}
		close(start)

		// Kill the server mid-run, then restart it on the same address.
		time.Sleep(5 * time.Millisecond)
		hs.Close()
		time.Sleep(5 * time.Millisecond)
		var ln2 net.Listener
		for i := 0; i < 50; i++ { // the port can take a beat to free up
			if ln2, err = net.Listen("tcp", addr); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Errorf("restart listener: %v", err)
		}
		hs2 := &http.Server{Handler: srv.Handler()}
		if ln2 != nil {
			serve(ln2, hs2)
		}

		wg.Wait()
		for i := 0; i < runs; i++ {
			if errs[i] != nil {
				t.Fatalf("run %d: %v", i, errs[i])
			}
			if !reflect.DeepEqual(ref.Arrivals, results[i].Arrivals) ||
				!reflect.DeepEqual(ref.Diagnostics, results[i].Diagnostics) {
				t.Errorf("run %d diverged from the no-tier baseline", i)
			}
		}

		// Tear everything down.
		rc.Close()
		if err := disk.Close(); err != nil {
			t.Error(err)
		}
		hs2.Close()
		serveWG.Wait()
		opts.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
	}()

	// The obs lifecycle idiom: idle HTTP machinery takes a moment to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTierPathKeyLength: the batch route is exactly /tier/<sig>/ and a read
// body is 1 to 4096 whole sta.KeySize-byte keys. The retired single-key path
// (a key segment after the signature), a text key, short and long keys, an
// empty body and an over-long batch are malformed (400), never a store
// probe.
func TestTierPathKeyLength(t *testing.T) {
	h := remotecache.NewServer(remotecache.MemoryStores(0), nil)
	sig := "/tier/" + base64.RawURLEncoding.EncodeToString([]byte("sig")) + "/"
	key := tk("k")
	for _, tc := range []struct {
		name, path string
		body       []byte
		want       int
	}{
		{"one key", sig, key[:], http.StatusOK},
		{"two keys", sig, append(key[:], key[:]...), http.StatusOK},
		{"single-key path", sig + base64.RawURLEncoding.EncodeToString(key[:]), key[:], http.StatusBadRequest},
		{"text key", sig, []byte("INV:n1|c=1.000e-14|fall|b12"), http.StatusBadRequest},
		{"short", sig, key[:sta.KeySize-1], http.StatusBadRequest},
		{"long", sig, append(key[:], 0), http.StatusBadRequest},
		{"empty", sig, nil, http.StatusBadRequest},
		{"too many keys", sig, bytes.Repeat(key[:], 4097), http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
		if rec.Code == http.StatusOK && rec.Body.Len() != 0 {
			t.Errorf("%s: a cold store answered %d bytes", tc.name, rec.Body.Len())
		}
	}
	if s := h.Stats(); s.BadRequests != 6 || s.Gets != 3 || s.ReadRequests != 7 {
		t.Errorf("stats %+v, want 6 bad requests, 3 keys read in 7 read requests", s)
	}
}

// TestTierPutNonFiniteEntryDropped: a peer's PUT of a well-formed frame whose
// successful entry carries an infinite delay or slew is an invalid entry —
// answered 400, counted as corrupt and never stored, so the shared tier
// cannot hand it to another replica.
func TestTierPutNonFiniteEntryDropped(t *testing.T) {
	base, srv := startTier(t)
	url := tierURL(base, "sig")
	for i, e := range []sta.TierEntry{
		{Delay: math.Inf(1), Slew: 3.5e-11, OK: true, Tier: uint8(sta.TierQWM)},
		{Delay: 1.25e-10, Slew: math.Inf(-1), OK: true, Tier: uint8(sta.TierQWM)},
	} {
		key := tk(fmt.Sprintf("inf%d", i))
		code, body := do(t, http.MethodPut, url, frame(key, e))
		if code != http.StatusBadRequest || !strings.Contains(string(body), "invalid entry") {
			t.Fatalf("PUT %+v: status %d %q, want 400 invalid entry", e, code, body)
		}
		if code, body := do(t, http.MethodPost, url, key[:]); code != http.StatusOK || len(body) != 0 {
			t.Fatalf("read after a dropped PUT: status %d, %d bytes; want 200 and no frame", code, len(body))
		}
	}
	if s := srv.Stats(); s.Corrupt != 2 || s.Stored != 0 {
		t.Fatalf("stats %+v, want 2 corrupt and nothing stored", s)
	}
}

// TestTierWriteMixedBatch: one PUT mixing valid frames with a checksum
// failure, an invalid entry and a truncated tail stores exactly the valid
// frames — each reads back byte for byte — and answers 400 naming the
// rejections.
func TestTierWriteMixedBatch(t *testing.T) {
	base, srv := startTier(t)
	url := tierURL(base, "sig")
	e := sta.TierEntry{Delay: 1.25e-10, Slew: 3.5e-11, OK: true, Tier: uint8(sta.TierQWM), NRIters: 7}
	good1, good2 := frame(tk("good1"), e), frame(tk("good2"), e)
	flipped := frame(tk("flip"), e)
	flipped[len(flipped)-1] ^= 0xff
	invalid := frame(tk("inf"), sta.TierEntry{Delay: math.Inf(1), OK: true})
	truncated := frame(tk("cut"), e)[:30]
	body := slices.Concat(good1, flipped, invalid, good2, truncated)

	code, msg := do(t, http.MethodPut, url, body)
	if code != http.StatusBadRequest || !strings.Contains(string(msg), "3 of 5 frames rejected") {
		t.Fatalf("mixed PUT: status %d %q, want 400 with 3 of 5 frames rejected", code, msg)
	}
	if s := srv.Stats(); s.Puts != 5 || s.Stored != 2 || s.Corrupt != 3 || s.WriteRequests != 1 {
		t.Fatalf("stats %+v, want 5 frames, 2 stored, 3 corrupt in 1 write request", s)
	}
	for _, k := range []string{"good1", "flip", "inf", "good2", "cut"} {
		key := tk(k)
		code, got := do(t, http.MethodPost, url, key[:])
		if code != http.StatusOK {
			t.Fatalf("read %s: status %d", k, code)
		}
		want := []byte(nil)
		if strings.HasPrefix(k, "good") {
			want = frame(key, e)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("read %s = %x, want %x", k, got, want)
		}
	}
}

// TestTierReadPartialCorruption: within one read, a corrupted frame costs
// only its own key. Under net-corrupt the client yields exactly the hits
// whose keys did not fire; a frame for a key the batch did not ask for is
// corruption too. Neither moves the breaker.
func TestTierReadPartialCorruption(t *testing.T) {
	base, _ := startTier(t)
	e := sta.TierEntry{Delay: 1.25e-10, Slew: 3.5e-11, OK: true, Tier: uint8(sta.TierQWM)}
	keys := make([]sta.Key, 16)
	var body []byte
	for i := range keys {
		keys[i] = tk(fmt.Sprintf("key-%02d", i))
		body = append(body, frame(keys[i], e)...)
	}
	if code, _ := do(t, http.MethodPut, tierURL(base, "sig"), body); code != http.StatusNoContent {
		t.Fatalf("seeding PUT: status %d", code)
	}
	read := func(c *remotecache.Client) ([]sta.TierEntry, []bool) {
		out, hit := make([]sta.TierEntry, len(keys)), make([]bool, len(keys))
		c.GetMany(context.Background(), keys, out, hit)
		return out, hit
	}

	t.Run("net-corrupt", func(t *testing.T) {
		ch := &chaos{fault: netCorrupt, seed: 11, rate: 0.5}
		c, reg := newMetered(base, "sig", withChaos(quick(), ch))
		defer c.Close()
		oracle := &chaos{fault: netCorrupt, seed: 11, rate: 0.5}
		out, hit := read(c)
		fired := 0
		for i, k := range keys {
			corrupted := oracle.fires(k)
			if corrupted {
				fired++
			}
			if hit[i] == corrupted || hit[i] && out[i] != e {
				t.Errorf("key %d: hit %v (%+v), corrupted %v", i, hit[i], out[i], corrupted)
			}
		}
		if fired == 0 || fired == len(keys) {
			t.Fatalf("%d of %d frames corrupted; the case needs both kinds", fired, len(keys))
		}
		if n := ch.fired.Load(); n != int64(fired) {
			t.Errorf("transport corrupted %d frames, oracle predicts %d", n, fired)
		}
		corrupt, hits, misses, reads := count(reg, "corrupt"), count(reg, "hits"), count(reg, "misses"), count(reg, "read_requests")
		if corrupt != int64(fired) || hits != int64(len(keys)-fired) || misses != int64(fired) || reads != 1 {
			t.Errorf("%d corrupt, %d hits, %d misses in %d read requests; want %d corrupt misses and %d hits in 1",
				corrupt, hits, misses, reads, fired, len(keys)-fired)
		}
		if st := c.BreakerState(); st != remotecache.BreakerClosed {
			t.Errorf("breaker %v after corruption, want closed", st)
		}
	})

	t.Run("other key", func(t *testing.T) {
		// A router that answers an extra, valid frame for a key nobody
		// asked for, between the real ones.
		stray := frame(tk("stray"), e)
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := http.NewRequest(r.Method, base+r.URL.Path, r.Body)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			got, _ := io.ReadAll(resp.Body)
			n := len(stray) // every frame here has the same size
			mid := len(got) / n / 2 * n
			w.Write(slices.Concat(got[:mid], stray, got[mid:]))
		}))
		defer proxy.Close()
		c, reg := newMetered(proxy.URL, "sig", quick())
		defer c.Close()
		out, hit := read(c)
		for i := range keys {
			if !hit[i] || out[i] != e {
				t.Errorf("key %d: hit %v (%+v), want the stored entry", i, hit[i], out[i])
			}
		}
		if corrupt, hits := count(reg, "corrupt"), count(reg, "hits"); corrupt != 1 || hits != int64(len(keys)) {
			t.Errorf("%d corrupt and %d hits, want the stray frame counted corrupt and every key hit", corrupt, hits)
		}
	})
}
