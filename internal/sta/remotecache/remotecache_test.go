package remotecache_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/faultinject"
	"qwm/internal/mos"
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

// quick are client options tuned for tests: tight deadlines, no wall-clock
// breaker behaviour, so a failing test fails fast and deterministically.
func quick() remotecache.Options {
	return remotecache.Options{
		Timeout:           2 * time.Second,
		Retries:           -1,
		Backoff:           time.Millisecond,
		BreakerThreshold:  3,
		BreakerProbeEvery: 4,
		BreakerCooldown:   -1,
	}
}

func TestWireRoundTripAndCorruption(t *testing.T) {
	base, srv := startTier(t)
	fi := faultinject.New(7).Enable(faultinject.NetCorrupt, 1)
	opts := quick()
	opts.Fault = fi
	corrupting := remotecache.New(base, "sig-a", opts)
	defer corrupting.Close()
	clean := remotecache.New(base, "sig-a", quick())
	defer clean.Close()
	other := remotecache.New(base, "sig-b", quick())
	defer other.Close()

	e := sta.TierEntry{Delay: 1.25e-10, Slew: 3.5e-11, OK: true, Tier: uint8(sta.TierQWM), NRIters: 7}

	// Cold server: a definitive miss, and a completed round trip (no breaker
	// damage).
	if _, ok := clean.Get(context.Background(), tk("k1")); ok {
		t.Fatal("cold Get hit")
	}

	clean.Put(context.Background(), tk("k1"), e)
	clean.Flush()
	if got := srv.Stats(); got.Stored != 1 {
		t.Fatalf("server stored %d records, want 1 (stats %+v)", got.Stored, got)
	}

	got, ok := clean.Get(context.Background(), tk("k1"))
	if !ok || got != e {
		t.Fatalf("round trip = %+v, %v; want the stored entry back bit-for-bit", got, ok)
	}

	// Namespace isolation: same key, different signature, must miss.
	if _, ok := other.Get(context.Background(), tk("k1")); ok {
		t.Fatal("signature namespaces alias each other")
	}

	// Wire corruption at rate 1: every GET response has a byte flipped, the
	// CRC catches it, and the client serves a counted miss — never a wrong
	// entry.
	if _, ok := corrupting.Get(context.Background(), tk("k1")); ok {
		t.Fatal("corrupt frame served as a hit")
	}
	cs := corrupting.Stats()
	if cs.Corrupt != 1 || cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("corrupt-path stats = %+v, want 1 corrupt counted miss", cs)
	}
	// Corruption is breaker-neutral: the transport worked.
	if st := corrupting.BreakerState(); st != remotecache.BreakerClosed {
		t.Fatalf("breaker %v after corruption, want closed", st)
	}

	// A corrupt PUT is rejected by the server and never stored.
	k2 := tk("k2")
	rec := diskcache.EncodeRecord(k2, diskcache.EncodeEntry(e))
	rec[len(rec)-1] ^= 0xff
	url := base + "/tier/" + base64.RawURLEncoding.EncodeToString([]byte("sig-a")) +
		"/" + base64.RawURLEncoding.EncodeToString(k2[:])
	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(rec))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt PUT: status %d, want 400", resp.StatusCode)
	}
	if got := srv.Stats(); got.Corrupt != 1 || got.Stored != 1 {
		t.Fatalf("server accepted a corrupt frame: %+v", got)
	}
}

// failThenServe is a RoundTripper that counts attempts and fails every
// request until healed, after which it serves 404 (a completed round trip).
type failThenServe struct {
	attempts atomic.Int64
	healed   atomic.Bool
}

func (f *failThenServe) RoundTrip(r *http.Request) (*http.Response, error) {
	f.attempts.Add(1)
	if !f.healed.Load() {
		return nil, errors.New("synthetic transport failure")
	}
	rec := httptest.NewRecorder()
	rec.WriteHeader(http.StatusNotFound)
	return rec.Result(), nil
}

// TestBreakerDeterministicTransitions pins the exact state trajectory and
// network-attempt count of the breaker against a dead peer: threshold 3,
// probe every 4th suppressed op, retries and cooldown disabled. This is the
// contract verify -remote re-asserts through the engine.
func TestBreakerDeterministicTransitions(t *testing.T) {
	tr := &failThenServe{}
	opts := quick()
	opts.HTTPClient = &http.Client{Transport: tr}
	c := remotecache.New("http://dead.invalid", "sig", opts)
	defer c.Close()

	get := func() { c.Get(context.Background(), tk("k")) }

	// Gets 1..3 reach the transport and fail; the 3rd opens the breaker.
	for i := 0; i < 3; i++ {
		if st := c.BreakerState(); st != remotecache.BreakerClosed {
			t.Fatalf("get %d: breaker %v, want closed", i, st)
		}
		get()
	}
	if st := c.BreakerState(); st != remotecache.BreakerOpen {
		t.Fatalf("after threshold: breaker %v, want open", st)
	}
	if n := tr.attempts.Load(); n != 3 {
		t.Fatalf("attempts = %d, want 3", n)
	}

	// Gets 4..6 are suppressed: zero network traffic, counted fast-fails.
	for i := 0; i < 3; i++ {
		get()
	}
	if n := tr.attempts.Load(); n != 3 {
		t.Fatalf("open breaker leaked %d network attempts", n-3)
	}
	s := c.Stats()
	if s.FastFails != 3 {
		t.Fatalf("fastfails = %d, want 3 (stats %+v)", s.FastFails, s)
	}

	// Get 7 is the 4th suppressed op: promoted to a half-open probe, which
	// fails and re-opens. Exactly one extra attempt.
	get()
	if n := tr.attempts.Load(); n != 4 {
		t.Fatalf("probe window: attempts = %d, want 4", n)
	}
	if st := c.BreakerState(); st != remotecache.BreakerOpen {
		t.Fatalf("after failed probe: breaker %v, want open", st)
	}
	if s := c.Stats(); s.BreakerOpens != 2 {
		t.Fatalf("breaker opens = %d, want 2", s.BreakerOpens)
	}

	// Heal the peer; the next probe (3 suppressed + 1 promoted) closes the
	// breaker, and traffic flows again.
	tr.healed.Store(true)
	for i := 0; i < 4; i++ {
		get()
	}
	if st := c.BreakerState(); st != remotecache.BreakerClosed {
		t.Fatalf("after healed probe: breaker %v, want closed", st)
	}
	if n := tr.attempts.Load(); n != 5 {
		t.Fatalf("recovery: attempts = %d, want 5", n)
	}
	get()
	if n := tr.attempts.Load(); n != 6 {
		t.Fatalf("closed breaker suppressed traffic: attempts = %d, want 6", n)
	}
}

// TestPutAfterCloseIsCountedDrop: a put that arrives after Close is never
// sent, so it must be counted as a drop — every one of them.
func TestPutAfterCloseIsCountedDrop(t *testing.T) {
	base, _ := startTier(t)
	c := remotecache.New(base, "sig", quick())
	c.Close()
	e := sta.TierEntry{Delay: 1e-10, OK: true, Tier: uint8(sta.TierQWM)}
	before := c.Stats().Dropped
	for i := 0; i < 100; i++ {
		c.Put(context.Background(), tk(fmt.Sprintf("k%d", i)), e)
	}
	if got := c.Stats().Dropped - before; got != 100 {
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
// cold and publishes its delay cache to the shared tier; a second, fresh
// replica B then analyzes the same workload entirely off remote hits —
// zero evaluations, ≥90 % client hit rate, bit-identical results.
func TestTwoReplicasShareTier(t *testing.T) {
	base, _ := startTier(t)
	nl, ins, outs := decoderFixture(t)
	req := sta.Request{Netlist: nl, Primary: ins, Outputs: outs}

	cfgA := sta.Config{Workers: 2}
	ca := remotecache.New(base, cfgA.Signature(), quick())
	cfgA.Tiers = []sta.TierStore{ca}
	a := sta.New(tech, lib, cfgA)
	ref, err := a.AnalyzeContext(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if ref.StagesEvaluated == 0 {
		t.Fatal("cold replica evaluated nothing; fixture is broken")
	}
	ca.Flush()
	if s := ca.Stats(); s.Puts < int64(ref.StagesEvaluated) {
		t.Fatalf("replica A published %d/%d entries", s.Puts, ref.StagesEvaluated)
	}
	ca.Close()

	cfgB := sta.Config{Workers: 4}
	cb := remotecache.New(base, cfgB.Signature(), quick())
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
	if hr := cb.Stats().HitRate(); hr < 0.9 {
		t.Errorf("replica B remote hit rate %.2f, want >= 0.90 (stats %+v)", hr, cb.Stats())
	}
	if !reflect.DeepEqual(ref.Arrivals, res.Arrivals) || !reflect.DeepEqual(ref.Diagnostics, res.Diagnostics) {
		t.Error("replica B diverged from replica A")
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

// TestTierPathKeyLength: the key segment must be the canonical encoding of
// exactly sta.KeySize bytes. Text keys, short and long keys and a spelling
// with non-zero padding bits are malformed paths (400), never a store probe.
func TestTierPathKeyLength(t *testing.T) {
	h := remotecache.NewServer(remotecache.MemoryStores(0), nil)
	sig := "/tier/" + base64.RawURLEncoding.EncodeToString([]byte("sig")) + "/"
	key := tk("k")
	good := base64.RawURLEncoding.EncodeToString(key[:])
	// The last character carries 2 padding bits; 'B' sets one of them.
	noncanonical := good[:len(good)-1] + "B"
	for _, tc := range []struct {
		name, seg string
		want      int
	}{
		{"canonical", good, http.StatusNotFound},
		{"text key", base64.RawURLEncoding.EncodeToString([]byte("INV:n1|c=1.000e-14|fall|b12")), http.StatusBadRequest},
		{"short", base64.RawURLEncoding.EncodeToString(key[:sta.KeySize-1]), http.StatusBadRequest},
		{"long", base64.RawURLEncoding.EncodeToString(append(key[:], 0)), http.StatusBadRequest},
		{"padding bits", noncanonical, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, sig+tc.seg, nil))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
	if s := h.Stats(); s.BadRequests != 4 || s.Gets != 1 {
		t.Errorf("stats %+v, want 4 bad requests and 1 get", s)
	}
}

// TestTierPutNonFiniteEntryDropped: a peer's PUT of a well-formed frame whose
// successful entry carries an infinite delay or slew is an invalid entry —
// answered 400, counted as corrupt and never stored, so the shared tier
// cannot hand it to another replica.
func TestTierPutNonFiniteEntryDropped(t *testing.T) {
	base, srv := startTier(t)
	sig := base64.RawURLEncoding.EncodeToString([]byte("sig"))
	for i, e := range []sta.TierEntry{
		{Delay: math.Inf(1), Slew: 3.5e-11, OK: true, Tier: uint8(sta.TierQWM)},
		{Delay: 1.25e-10, Slew: math.Inf(-1), OK: true, Tier: uint8(sta.TierQWM)},
	} {
		key := tk(fmt.Sprintf("inf%d", i))
		url := base + "/tier/" + sig + "/" + base64.RawURLEncoding.EncodeToString(key[:])
		req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(diskcache.EncodeRecord(key, diskcache.EncodeEntry(e))))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid entry") {
			t.Fatalf("PUT %+v: status %d %q, want 400 invalid entry", e, resp.StatusCode, body)
		}
		resp, err = http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET after a dropped PUT: status %d, want 404", resp.StatusCode)
		}
	}
	if s := srv.Stats(); s.Corrupt != 2 || s.Stored != 0 {
		t.Fatalf("stats %+v, want 2 corrupt and nothing stored", s)
	}
}
