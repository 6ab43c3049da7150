// Package remotecache is the replica-shared network tier of the delay cache:
// an HTTP server that exposes any sta.TierStore (typically one replica's
// diskcache namespace) to the fleet, and a client TierStore that consults it
// over the network — wrapped in a full fault-tolerance envelope, because a
// network dependency in the analysis hot path is only shippable if a flaky,
// slow or partitioned peer can never fail an analysis, slow it down
// unboundedly, or corrupt a result.
//
// The unit of tier I/O is a batch, not a key. The engine reads a whole
// dependency level's keys with one GetMany, which is one POST of the
// concatenated keys answered with the hits' frames; the write-behind queue
// hands its sink everything buffered, which goes out as one PUT of
// concatenated frames (see server.go for the routes).
//
// The envelope, inside out:
//
//   - One deadline-bounded attempt per read: every round trip runs under
//     Options.Timeout, and a read that fails at the transport is a miss —
//     a hung peer costs one bounded wait, never a stuck worker. Reads are
//     not retried: a miss costs one stage evaluation, far less than any
//     backoff sleep.
//   - A three-state circuit breaker (closed → open on consecutive-failure
//     threshold → half-open probe): once a peer is declared dead, further
//     reads cost one atomic load and are counted misses; a deterministic
//     probe schedule, advanced only by reads, rediscovers recovery. See
//     breaker.go.
//   - Write-behind Puts through diskcache's bounded WriteQueue with
//     drop-on-full: the engine never waits on the network to store, and a
//     drained batch is dropped unless the breaker is closed.
//   - End-to-end CRC: responses carry the same CRC32-Castagnoli-framed
//     records diskcache appends to disk, each re-verified (checksum,
//     embedded key, entry validity) on every read — wire corruption is a
//     counted miss of the corrupted frame's key, never wrong data.
//
// Failure of any kind degrades to a miss; the engine re-evaluates. The tier
// can therefore sit in an analyzer's sta.Config.Tiers (remote → disk)
// without weakening any of the engine's determinism guarantees.
package remotecache

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
)

// Options tunes a Client. The zero value is production-usable: 250 ms
// deadline per round trip, breaker opening after 5 consecutive failures with
// a probe every 100 suppressed ops or after 1 s, 1024-entry write-behind
// queue.
type Options struct {
	// Timeout is the deadline for one HTTP round trip. 0 means 250 ms.
	Timeout time.Duration
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
	// put (counted). It also bounds one drained write batch. 0 means 1024.
	QueueLen int
	// HTTPClient overrides the transport (tests inject network faults
	// here). Its Timeout is ignored; deadlines come from Timeout.
	HTTPClient *http.Client
	// Metrics, when set, receives the sta/remote/* counters and the
	// breaker-state gauge. They are the client's only counters.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 250 * time.Millisecond
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

// Batch bounds, shared by client and server: one read carries at most
// maxBatchKeys keys and one write at most maxBatchKeys frames, and every
// body is at most maxResponseBytes (responses) or maxRequestBytes
// (requests). A frame holding a cache key and an encoded TierEntry is about
// a hundred bytes, so a full batch fits well inside the byte bound.
const (
	maxBatchKeys     = 4096
	maxResponseBytes = 4 << 20
	maxRequestBytes  = maxResponseBytes
)

type putReq struct {
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
	path string // precomputed "/tier/<b64sig>/", the read and write route
	opts Options
	http *http.Client
	br   *breaker

	queue *diskcache.WriteQueue[putReq]

	hits, misses, puts, dropped, timeouts, corrupt, fastfails,
	readReqs, writeReqs *obs.Counter
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
	c.hits = r.Counter("sta/remote/hits")
	c.misses = r.Counter("sta/remote/misses")
	c.puts = r.Counter("sta/remote/puts")
	c.dropped = r.Counter("sta/remote/dropped")
	c.timeouts = r.Counter("sta/remote/timeouts")
	c.corrupt = r.Counter("sta/remote/corrupt")
	c.fastfails = r.Counter("sta/remote/fastfails")
	c.readReqs = r.Counter("sta/remote/read_requests")
	c.writeReqs = r.Counter("sta/remote/write_requests")
	c.queue = diskcache.NewWriteQueue(opts.QueueLen, c.send)
	return c
}

// BreakerState returns the breaker's current state.
func (c *Client) BreakerState() BreakerState {
	if c == nil {
		return BreakerClosed
	}
	return c.br.State()
}

// Name implements sta.TierStore.
func (c *Client) Name() string { return "remote" }

// GetMany implements sta.TierStore: a read-through probe of a batch of keys,
// one POST per at most maxBatchKeys keys, whose every failure mode —
// suppressed by the breaker, timed out, transport error, corrupt frame — is
// a miss, never an error. Each batch takes one breaker decision and makes at
// most one deadline-bounded round trip. When ctx carries a trace reference,
// the round trip becomes a child span, the outbound request is stamped with
// the traceparent header, and a peer-recorded span returned in the response
// header is merged into the same trace. ctx supplies only the trace: the
// round trip runs under the client's own deadline.
func (c *Client) GetMany(ctx context.Context, keys []sta.Key, out []sta.TierEntry, hit []bool) {
	clear(hit[:len(keys)])
	if c == nil {
		return
	}
	ref, _ := obs.TraceFrom(ctx)
	for lo, n := 0, 0; lo < len(keys); lo, n = lo+maxBatchKeys, n+1 {
		hi := min(lo+maxBatchKeys, len(keys))
		b := batch{keys: keys[lo:hi], out: out[lo:hi], hit: hit[lo:hi], ref: ref}
		if ref.T != nil && n > 0 {
			// Later batches of one probe get their own span subtree.
			b.ref.Parent += ".c" + strconv.Itoa(n)
		}
		c.getBatch(&b)
	}
}

// batch is one read request's keys, their result slots and the probe's
// trace reference.
type batch struct {
	keys []sta.Key
	out  []sta.TierEntry
	hit  []bool
	ref  obs.TraceRef
}

func (c *Client) getBatch(b *batch) {
	n := int64(len(b.keys))
	proceed, probe := c.br.allow()
	if !proceed {
		c.fastfails.Add(n)
		c.misses.Add(n)
		if b.ref.T != nil {
			// The breaker suppressed the read entirely; record a zero-cost
			// span so the trace shows WHY the remote tier went unconsulted.
			b.ref.T.Add(obs.ReqSpan{
				ID: b.ref.Parent + ".a0", Parent: b.ref.Parent, Name: "remote get",
				Level: b.ref.Level, Item: b.ref.Item, Start: time.Now(),
				Attrs: obs.Attrs{obs.Str("outcome", "breaker-open")},
			})
		}
		return
	}
	hits, err := c.read(b)
	if err != nil {
		c.br.failure(probe)
		c.misses.Add(n)
		return
	}
	c.br.success()
	c.hits.Add(int64(hits))
	c.misses.Add(n - int64(hits))
}

// read performs the batch's one round trip and returns its hit count,
// recording it as a span when the request is traced: the outbound POST
// carries the traceparent for the read's semantic span ID ("<probe>.a0"),
// and a peer span returned in the response header is re-parented under it.
// The error is non-nil only for a transport-level failure; a completed round
// trip is err == nil, whatever its frames held (a missing key is a miss, a
// corrupt frame a counted miss).
func (c *Client) read(b *batch) (int, error) {
	ref := b.ref
	if ref.T == nil {
		hits, _, err := c.roundTrip(b, "")
		return hits, err
	}
	id := ref.Parent + ".a0"
	start := time.Now()
	hits, peer, err := c.roundTrip(b, obs.FormatTraceparent(ref.T.TraceID, id))
	ref.T.Add(obs.ReqSpan{
		ID: id, Parent: ref.Parent, Name: "remote get",
		Level: ref.Level, Item: ref.Item,
		Start: start, Dur: time.Since(start),
		Attrs: obs.Attrs{obs.Str("outcome", outcome(len(b.keys), hits, err))},
	})
	if ps, good := obs.DecodePeerSpan(peer); good {
		var buf [obs.MaxPeerSpanAttrs]obs.Attr
		attrs := buf[:0]
		for k, v := range ps.Attrs {
			attrs = append(attrs, obs.Str(k, v))
		}
		ref.T.Add(obs.ReqSpan{
			ID: id + ".peer", Parent: id,
			Name: ps.Name, Process: ps.Process,
			Level: ref.Level, Item: ref.Item,
			Start: start, Dur: time.Duration(ps.DurUS * float64(time.Microsecond)),
			Attrs: attrs,
		})
	}
	return hits, err
}

// outcome names a read's result for its spans: "error" for a failed round
// trip, else "hit" when every key hit, "miss" when none did and "partial"
// in between.
func outcome(keys, hits int, err error) string {
	switch {
	case err != nil:
		return "error"
	case hits == keys:
		return "hit"
	case hits == 0:
		return "miss"
	}
	return "partial"
}

// roundTrip is one raw HTTP exchange for a batch: POST the concatenated
// keys, decode the answered frames into the batch's slots. An error return
// means transport failure, and leaves the slots untouched. peerSpan is the
// encoded Qwm-Span response header, "" when absent.
func (c *Client) roundTrip(b *batch, traceparent string) (hits int, peerSpan string, _ error) {
	body := make([]byte, 0, len(b.keys)*sta.KeySize)
	for i := range b.keys {
		body = append(body, b.keys[i][:]...)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+c.path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", keysContentType)
	if traceparent != "" {
		req.Header.Set(traceparentHeader, traceparent)
	}
	c.readReqs.Inc()
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			c.timeouts.Inc()
		}
		return 0, "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	peerSpan = resp.Header.Get(peerSpanHeader)
	if resp.StatusCode != http.StatusOK {
		// Includes a peer on the single-key protocol, which answers the
		// batch route 400: the breaker then degrades it to misses.
		return 0, peerSpan, fmt.Errorf("remotecache: POST %s: status %d", c.path, resp.StatusCode)
	}
	resBody, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		if ctx.Err() != nil {
			c.timeouts.Inc()
		}
		return 0, peerSpan, err
	}
	if len(resBody) > maxResponseBytes {
		c.corrupt.Inc()
		return 0, peerSpan, nil
	}
	return c.decodeFrames(b, resBody), peerSpan, nil
}

// decodeFrames verifies a read response end to end and fills the batch's
// slots. The server answers the hits' frames in request order; each frame is
// checked on its own — checksum, an embedded key the batch asked for (a
// router handing back another record is corruption too) and a valid entry
// — so a corrupt frame costs only its own key. A frame whose header runs
// past the body ends the walk: no later boundary can be trusted.
func (c *Client) decodeFrames(b *batch, body []byte) (hits int) {
	var corrupt int64
	next := 0 // keys before next are answered or skipped
	for rest := body; len(rest) > 0; {
		frame, r, ok := diskcache.NextRecord(rest)
		if !ok {
			corrupt++
			break
		}
		rest = r
		key, val, err := diskcache.DecodeRecord(frame)
		if err != nil {
			corrupt++
			continue
		}
		i := slices.Index(b.keys[next:], key)
		if i < 0 {
			corrupt++
			continue
		}
		i += next
		next = i + 1
		e, err := diskcache.DecodeEntry(val)
		if err != nil || !e.Valid() {
			corrupt++
			continue
		}
		b.out[i], b.hit[i] = e, true
		hits++
	}
	if corrupt > 0 {
		c.corrupt.Add(corrupt)
	}
	return hits
}

// Put implements sta.TierStore: write-behind, lossy under pressure and
// whenever the breaker is not closed. The frame is encoded on the caller's
// goroutine (cheap and allocation-bounded) so a dropped put costs no
// network work. When ctx carries a trace reference, the traceparent for the
// caller's put span is stamped on the asynchronous PUT — the peer can
// correlate the write, but (the put being write-behind) no span is merged
// back.
func (c *Client) Put(ctx context.Context, key sta.Key, e sta.TierEntry) {
	if c == nil {
		return
	}
	if c.br.State() != BreakerClosed {
		// No probe promotion for puts: the tier is written behind anyway,
		// and probing with data nobody is waiting for would make breaker
		// recovery depend on write traffic. Reads own the probe schedule.
		c.dropped.Inc()
		return
	}
	req := putReq{rec: diskcache.EncodeRecord(key, diskcache.EncodeEntry(e))}
	if ref, ok := obs.TraceFrom(ctx); ok {
		req.tp = obs.FormatTraceparent(ref.T.TraceID, ref.Parent)
	}
	if !c.queue.Enqueue(req) {
		c.dropped.Inc()
	}
}

// send is the write-behind sink: it sends everything the queue drained, one
// PUT per at most maxBatchKeys frames and maxRequestBytes bytes. Unless the
// breaker is closed the whole batch is dropped without touching the
// network: a put queued while the breaker was closed must not become a
// suppressed operation — or the half-open probe — once it opened. Failures
// drop the records (counted); there are no retries — the store is lossy by
// contract and the next analysis simply re-puts.
func (c *Client) send(batch []putReq) {
	if c.br.State() != BreakerClosed {
		c.dropped.Add(int64(len(batch)))
		return
	}
	for len(batch) > 0 {
		n, size := 0, 0
		for n < len(batch) && n < maxBatchKeys && size+len(batch[n].rec) <= maxRequestBytes {
			size += len(batch[n].rec)
			n++
		}
		c.sendBatch(batch[:n], size)
		batch = batch[n:]
	}
}

// sendBatch performs one PUT of the records' concatenated frames. Its
// outcome reaches the breaker through settle, which acts only while the
// breaker is closed.
func (c *Client) sendBatch(batch []putReq, size int) {
	n := int64(len(batch))
	drop := func(ok bool) {
		c.br.settle(ok)
		c.dropped.Add(n)
	}
	body := make([]byte, 0, size)
	tp := ""
	for i := range batch {
		body = append(body, batch[i].rec...)
		if tp == "" {
			tp = batch[i].tp
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+c.path, bytes.NewReader(body))
	if err != nil {
		drop(false)
		return
	}
	hreq.Header.Set("Content-Type", contentType)
	if tp != "" {
		hreq.Header.Set(traceparentHeader, tp)
	}
	c.writeReqs.Inc()
	resp, err := c.http.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			c.timeouts.Inc()
		}
		drop(false)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// 4xx means the server rejected frames as corrupt or the body as
		// malformed; that is a data problem, not peer death — neutral for
		// the breaker, like client-side corruption. The client cannot tell
		// which frames a 400 kept, so the whole batch counts as dropped.
		drop(resp.StatusCode/100 != 5)
		return
	}
	c.br.settle(true)
	c.puts.Add(n)
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
// unusable afterwards (reads still work — they are stateless — but Puts drop
// and are counted). Safe to call more than once, concurrently.
func (c *Client) Close() error {
	if c == nil {
		return nil
	}
	c.queue.Close()
	c.br.withdraw()
	return nil
}
