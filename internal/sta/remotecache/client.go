// Package remotecache is the replica-shared network tier of the delay cache:
// an HTTP server that exposes any sta.TierStore (typically one replica's
// diskcache namespace) to the fleet, and a client TierStore that consults it
// over the network — wrapped in a full fault-tolerance envelope, because a
// network dependency in the analysis hot path is only shippable if a flaky,
// slow or partitioned peer can never fail an analysis, slow it down
// unboundedly, or corrupt a result.
//
// The envelope, inside out:
//
//   - Per-attempt deadlines: every round trip runs under Options.Timeout;
//     a hung peer costs a bounded wait, never a stuck worker.
//   - Bounded retries with exponential backoff and deterministic jitter
//     (hashed from the cache key and attempt number, so two replicas never
//     synchronize their retry storms yet a fixed workload replays exactly).
//   - A three-state circuit breaker (closed → open on consecutive-failure
//     threshold → half-open probe): once a peer is declared dead, further
//     Gets cost one atomic load and are counted misses; a deterministic
//     probe schedule rediscovers recovery. See breaker.go.
//   - Write-behind Puts through diskcache's bounded WriteQueue with
//     drop-on-full: the engine never waits on the network to store.
//   - End-to-end CRC: responses carry the same CRC32-Castagnoli-framed
//     records diskcache appends to disk, re-verified (checksum, embedded
//     key, entry validity) on every Get — wire corruption is a counted
//     miss, never wrong data.
//
// Failure of any kind degrades to a miss; the engine re-evaluates. The tier
// can therefore sit in an analyzer's sta.Config.Tiers (remote → disk)
// without weakening any of the engine's determinism guarantees.
package remotecache

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qwm/internal/faultinject"
	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
)

// Options tunes a Client. The zero value is production-usable: 250 ms
// per-attempt deadline, 2 retries with 20 ms base backoff, breaker opening
// after 5 consecutive failures with a probe every 100 suppressed ops or
// after 1 s, 1024-entry write-behind queue.
type Options struct {
	// Timeout is the per-attempt deadline for one HTTP round trip.
	// 0 means 250 ms.
	Timeout time.Duration
	// Retries is the number of EXTRA Get attempts after the first fails at
	// the transport level (a 404 miss is a completed round trip, never
	// retried). 0 means 2; negative means none.
	Retries int
	// Backoff is the base delay before the first retry, doubling per
	// attempt, plus a deterministic jitter in [0, Backoff) hashed from the
	// key and attempt. 0 means 20 ms.
	Backoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// breaker. 0 means 5.
	BreakerThreshold int
	// BreakerProbeEvery promotes every Nth suppressed operation to a
	// half-open probe while the breaker is open — the deterministic,
	// count-based probe schedule. 0 means 100; negative disables (probes
	// then fire on the cooldown alone).
	BreakerProbeEvery int64
	// BreakerCooldown additionally forces a probe once this much wall time
	// has passed since the breaker opened, covering idle periods. 0 means
	// 1 s; negative disables (fully deterministic count-based probing).
	BreakerCooldown time.Duration
	// QueueLen bounds the write-behind Put queue; a full queue drops the
	// put (counted). 0 means 1024.
	QueueLen int
	// HTTPClient overrides the transport (tests inject failures here).
	// Its Timeout is ignored; per-attempt deadlines come from Timeout.
	HTTPClient *http.Client
	// Metrics, when set, receives the sta/remote/* counters and the
	// breaker-state gauge.
	Metrics *obs.Registry
	// Fault, when set, arms the network fault classes (net-latency,
	// net-error, net-corrupt), keyed by cache key so injected weather is
	// schedule-independent. Chaos rigs only.
	Fault *faultinject.Injector
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 250 * time.Millisecond
	}
	if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 20 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerProbeEvery == 0 {
		o.BreakerProbeEvery = 100
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = time.Second
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	return o
}

// maxResponseBytes bounds one GET response body: a frame holding a cache key
// and an encoded TierEntry is about a hundred bytes; anything past the disk
// format's own record bounds is garbage.
const maxResponseBytes = 4 << 20

// Stats is a snapshot of a client's counters.
type Stats struct {
	Hits, Misses int64 // Get outcomes (every non-hit path is a miss)
	Puts         int64 // records durably sent (2xx acknowledged)
	Dropped      int64 // puts discarded: full queue, open breaker, send failure
	Retries      int64 // extra Get attempts after transport failures
	Timeouts     int64 // attempts that died on the per-attempt deadline
	Corrupt      int64 // CRC / frame / validity failures served as misses
	FastFails    int64 // Gets suppressed by the open breaker (no network)
	BreakerOpens int64 // transitions into the open state

	BreakerState string // current state name
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

type cpair struct{ c obs.Counter }

func (p *cpair) add(n int64, m *obs.Counter) { p.c.Add(n); m.Add(n) }
func (p *cpair) value() int64                { return p.c.Value() }

type putReq struct {
	key sta.Key
	rec []byte
	tp  string // traceparent header for the async PUT ("" untraced)
}

// Trace propagation headers: the client stamps outbound requests with the
// W3C-style traceparent, and the peer's cache plane answers with one encoded
// child span (see obs.PeerSpan) the client re-parents into the live trace.
const (
	traceparentHeader = "Traceparent"
	peerSpanHeader    = "Qwm-Span"
)

// Client is a fault-tolerant remote TierStore bound to one (server, result
// signature) pair. It satisfies sta.TierStore; a nil *Client is a valid
// no-op tier. Create with New, stop with Close.
type Client struct {
	base string // server base URL, no trailing slash
	sig  string
	path string // precomputed "/tier/<b64sig>/"
	opts Options
	http *http.Client
	br   *breaker

	queue *diskcache.WriteQueue[putReq]

	hits, misses, puts, dropped, retriesC, timeouts, corrupt, fastfails cpair
	mHits, mMisses, mPuts, mDropped, mRetries, mTimeouts, mCorrupt,
	mFastfails *obs.Counter
}

// New creates a client for the tier namespace `signature` on the server at
// baseURL (e.g. "http://cache-0:8081"). The signature must be the owning
// analyzer's sta.Config.Signature(): the server namespaces stores by it, so
// two configurations can never alias each other's entries.
func New(baseURL, signature string, opts Options) *Client {
	opts = opts.withDefaults()
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		sig:  signature,
		path: tierPathPrefix + base64.RawURLEncoding.EncodeToString([]byte(signature)) + "/",
		opts: opts,
		http: opts.HTTPClient,
		br:   newBreaker(opts.BreakerThreshold, opts.BreakerProbeEvery, opts.BreakerCooldown, opts.Metrics),
	}
	r := opts.Metrics
	c.mHits = r.Counter("sta/remote/hits")
	c.mMisses = r.Counter("sta/remote/misses")
	c.mPuts = r.Counter("sta/remote/puts")
	c.mDropped = r.Counter("sta/remote/dropped")
	c.mRetries = r.Counter("sta/remote/retries")
	c.mTimeouts = r.Counter("sta/remote/timeouts")
	c.mCorrupt = r.Counter("sta/remote/corrupt")
	c.mFastfails = r.Counter("sta/remote/fastfails")
	c.queue = diskcache.NewWriteQueue(opts.QueueLen, c.send)
	return c
}

// keyURL renders the GET/PUT URL for one cache key.
func (c *Client) keyURL(key *sta.Key) string {
	return c.base + c.path + base64.RawURLEncoding.EncodeToString(key[:])
}

// faultKey is the fault-injection site key for one cache key: its hex form,
// built only when a fault plan is armed.
func (c *Client) faultKey(key *sta.Key) string {
	if c.opts.Fault == nil {
		return ""
	}
	return key.String()
}

// BreakerState returns the breaker's current state.
func (c *Client) BreakerState() BreakerState {
	if c == nil {
		return BreakerClosed
	}
	return c.br.State()
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:         c.hits.value(),
		Misses:       c.misses.value(),
		Puts:         c.puts.value(),
		Dropped:      c.dropped.value(),
		Retries:      c.retriesC.value(),
		Timeouts:     c.timeouts.value(),
		Corrupt:      c.corrupt.value(),
		FastFails:    c.fastfails.value(),
		BreakerOpens: c.br.opens.value(),
		BreakerState: c.br.State().String(),
	}
}

// Name implements sta.TierStore.
func (c *Client) Name() string { return "remote" }

// Get implements sta.TierStore: a read-through probe whose every failure
// mode — suppressed by the breaker, timed out, transport error, corrupt
// frame — is a miss, never an error. When ctx carries a trace reference,
// every network attempt becomes a child span, the outbound request is
// stamped with the traceparent header, and a peer-recorded span returned in
// the response header is merged into the same trace. ctx supplies only the
// trace: each attempt runs under the client's own deadline.
func (c *Client) Get(ctx context.Context, key sta.Key) (sta.TierEntry, bool) {
	if c == nil {
		return sta.TierEntry{}, false
	}
	ref, _ := obs.TraceFrom(ctx)
	proceed, probe := c.br.allow()
	if !proceed {
		c.fastfails.add(1, c.mFastfails)
		c.misses.add(1, c.mMisses)
		if ref.T != nil {
			// The breaker suppressed the probe entirely; record a zero-cost
			// span so the trace shows WHY the remote tier went unconsulted.
			ref.T.Add(obs.ReqSpan{
				ID: ref.Parent + ".a0", Parent: ref.Parent, Name: "remote get",
				Level: ref.Level, Item: ref.Item, Start: time.Now(),
				Attrs: obs.Attrs{obs.Int("attempt", 0), obs.Str("outcome", "breaker-open")},
			})
		}
		return sta.TierEntry{}, false
	}
	e, ok, err := c.fetch(&key, ref)
	if err != nil {
		c.br.failure(probe)
		c.misses.add(1, c.mMisses)
		return sta.TierEntry{}, false
	}
	c.br.success()
	if !ok {
		c.misses.add(1, c.mMisses)
		return sta.TierEntry{}, false
	}
	c.hits.add(1, c.mHits)
	return e, true
}

// errInjected marks a fault-injected transport failure.
var errInjected = errors.New("remotecache: injected network error")

// fetch runs the bounded-retry GET loop for one key. The returned error is
// non-nil only for transport-level failure of EVERY attempt; a completed
// round trip that misses (404) or decodes badly (corrupt ⇒ miss) is err ==
// nil. Corruption is deliberately not retried: the frame made it across the
// transport, and hammering the peer for a bad record would amplify exactly
// the failure the CRC already contained.
func (c *Client) fetch(key *sta.Key, ref obs.TraceRef) (sta.TierEntry, bool, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		e, ok, err := c.attempt(key, ref, attempt)
		if err == nil {
			return e, ok, nil
		}
		lastErr = err
		if attempt >= c.opts.Retries {
			return sta.TierEntry{}, false, lastErr
		}
		c.retriesC.add(1, c.mRetries)
		time.Sleep(c.backoff(key, attempt))
	}
}

// backoff computes the sleep before retry `attempt`: base << attempt plus a
// deterministic jitter in [0, base) hashed from (key, attempt) — replicas
// de-synchronize (different keys, different phases) while a fixed workload
// replays the exact same waits.
func (c *Client) backoff(key *sta.Key, attempt int) time.Duration {
	d := c.opts.Backoff << uint(attempt)
	const maxBackoff = 2 * time.Second
	if d > maxBackoff {
		d = maxBackoff
	}
	return d + time.Duration(hash64(key[:], uint64(attempt))%uint64(c.opts.Backoff))
}

// hash64 is FNV-1a over key ⊕ salt with a splitmix64 finalizer (the
// faultinject mixing recipe) — allocation-free deterministic jitter.
func hash64(key []byte, salt uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (salt >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// attempt performs one deadline-bounded round trip, recording it as a span
// when the request is traced: the outbound GET carries the traceparent for
// the attempt's semantic span ID ("<probe>.a<n>"), and a peer span returned
// in the response header is re-parented under the attempt.
func (c *Client) attempt(key *sta.Key, ref obs.TraceRef, n int) (sta.TierEntry, bool, error) {
	if ref.T == nil {
		e, ok, _, err := c.roundTrip(key, "")
		return e, ok, err
	}
	attID := ref.Parent + ".a" + strconv.Itoa(n)
	start := time.Now()
	e, ok, peer, err := c.roundTrip(key, obs.FormatTraceparent(ref.T.TraceID, attID))
	outcome := "miss"
	switch {
	case err != nil:
		outcome = "error"
	case ok:
		outcome = "hit"
	}
	ref.T.Add(obs.ReqSpan{
		ID: attID, Parent: ref.Parent, Name: "remote get",
		Level: ref.Level, Item: ref.Item,
		Start: start, Dur: time.Since(start),
		Attrs: obs.Attrs{obs.Int("attempt", n), obs.Str("outcome", outcome)},
	})
	if ps, good := obs.DecodePeerSpan(peer); good {
		var buf [obs.MaxPeerSpanAttrs]obs.Attr
		attrs := buf[:0]
		for k, v := range ps.Attrs {
			attrs = append(attrs, obs.Str(k, v))
		}
		ref.T.Add(obs.ReqSpan{
			ID: attID + ".peer", Parent: attID,
			Name: ps.Name, Process: ps.Process,
			Level: ref.Level, Item: ref.Item,
			Start: start, Dur: time.Duration(ps.DurUS * float64(time.Microsecond)),
			Attrs: attrs,
		})
	}
	return e, ok, err
}

// roundTrip is one raw HTTP exchange. Error return means transport failure
// (retryable); (zero, false, nil) is a definitive miss. peerSpan is the
// encoded Qwm-Span response header, "" when absent.
func (c *Client) roundTrip(key *sta.Key, traceparent string) (_ sta.TierEntry, _ bool, peerSpan string, _ error) {
	fault, fk := c.opts.Fault, c.faultKey(key)
	// Fault site net-latency: a slow peer. Pure latency — the request still
	// completes, and results must be bit-for-bit unaffected.
	fault.Stall(faultinject.NetLatency, fk)
	// Fault site net-error: the request never comes back (reset, refused,
	// mid-flight partition). Keyed by cache key, so retries of the same key
	// deterministically fail too — the tier must degrade to a miss.
	if fault.Fire(faultinject.NetError, fk) {
		return sta.TierEntry{}, false, "", errInjected
	}

	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.keyURL(key), nil)
	if err != nil {
		return sta.TierEntry{}, false, "", err
	}
	if traceparent != "" {
		req.Header.Set(traceparentHeader, traceparent)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			c.timeouts.add(1, c.mTimeouts)
		}
		return sta.TierEntry{}, false, "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	peerSpan = resp.Header.Get(peerSpanHeader)
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return sta.TierEntry{}, false, peerSpan, nil // completed round trip, definitive miss
	case resp.StatusCode != http.StatusOK:
		return sta.TierEntry{}, false, peerSpan, fmt.Errorf("remotecache: GET %s: status %d", key, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		if ctx.Err() != nil {
			c.timeouts.add(1, c.mTimeouts)
		}
		return sta.TierEntry{}, false, peerSpan, err
	}
	if len(body) > maxResponseBytes {
		c.corrupt.add(1, c.mCorrupt)
		return sta.TierEntry{}, false, peerSpan, nil
	}
	// Fault site net-corrupt: a flipped bit on the wire. The CRC must catch
	// it and serve a counted miss, never a wrong timing.
	if fault.Fire(faultinject.NetCorrupt, fk) && len(body) > 0 {
		body[len(body)/2] ^= 0x40
	}
	// End-to-end verification: checksum over the whole frame, embedded key
	// equality (a router handing back the wrong record is corruption too),
	// and semantic validity of the decoded entry.
	gotKey, val, err := diskcache.DecodeRecord(body)
	if err != nil || gotKey != *key {
		c.corrupt.add(1, c.mCorrupt)
		return sta.TierEntry{}, false, peerSpan, nil
	}
	e, err := diskcache.DecodeEntry(val)
	if err != nil || !e.Valid() {
		c.corrupt.add(1, c.mCorrupt)
		return sta.TierEntry{}, false, peerSpan, nil
	}
	return e, true, peerSpan, nil
}

// Put implements sta.TierStore: write-behind, lossy under pressure and
// while the breaker is open. The frame is encoded on the caller's goroutine
// (cheap and allocation-bounded) so a dropped put costs no network work.
// When ctx carries a trace reference, the traceparent for the caller's put
// span is stamped on the asynchronous PUT — the peer can correlate the
// write, but (the put being write-behind) no span is merged back.
func (c *Client) Put(ctx context.Context, key sta.Key, e sta.TierEntry) {
	if c == nil {
		return
	}
	if c.br.State() == BreakerOpen {
		// No probe promotion for puts: the tier is written behind anyway,
		// and probing with data nobody is waiting for would make breaker
		// recovery depend on write traffic. Gets own the probe schedule.
		c.dropped.add(1, c.mDropped)
		return
	}
	req := putReq{key: key, rec: diskcache.EncodeRecord(key, diskcache.EncodeEntry(e))}
	if ref, ok := obs.TraceFrom(ctx); ok {
		req.tp = obs.FormatTraceparent(ref.T.TraceID, ref.Parent)
	}
	if !c.queue.Enqueue(req) {
		c.dropped.add(1, c.mDropped)
	}
}

// send is the write-behind sink: it performs one PUT. Failures drop the
// record (counted) and feed the breaker; there are no retries — the store is
// lossy by contract and the next analysis simply re-puts.
func (c *Client) send(req putReq) {
	proceed, probe := c.br.allow()
	if !proceed {
		c.dropped.add(1, c.mDropped)
		return
	}
	fault, fk := c.opts.Fault, c.faultKey(&req.key)
	fault.Stall(faultinject.NetLatency, fk)
	if fault.Fire(faultinject.NetError, fk) {
		c.br.failure(probe)
		c.dropped.add(1, c.mDropped)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPut, c.keyURL(&req.key), strings.NewReader(string(req.rec)))
	if err != nil {
		c.br.failure(probe)
		c.dropped.add(1, c.mDropped)
		return
	}
	hreq.Header.Set("Content-Type", contentType)
	if req.tp != "" {
		hreq.Header.Set(traceparentHeader, req.tp)
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			c.timeouts.add(1, c.mTimeouts)
		}
		c.br.failure(probe)
		c.dropped.add(1, c.mDropped)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// 4xx here means the server judged the frame corrupt or mismatched;
		// that is a data problem, not peer death — breaker-neutral, like
		// client-side corruption.
		if resp.StatusCode/100 == 5 {
			c.br.failure(probe)
		} else {
			c.br.success()
		}
		c.dropped.add(1, c.mDropped)
		return
	}
	c.br.success()
	c.puts.add(1, c.mPuts)
}

// Flush blocks until every Put enqueued BEFORE the call has been sent or
// dropped. Tests and graceful handoff use it; the engine never waits.
func (c *Client) Flush() {
	if c == nil {
		return
	}
	c.queue.Flush()
}

// Close drains the write-behind queue and stops its goroutine. The client is
// unusable afterwards (Gets still work — they are stateless — but Puts drop
// and are counted). Safe to call more than once, concurrently.
func (c *Client) Close() error {
	if c == nil {
		return nil
	}
	c.queue.Close()
	return nil
}
