// Package service is the timing-analysis-as-a-service front door: an
// HTTP/JSON server speaking the versioned v1 wire schema (internal/api/v1)
// over the STA engine.
//
//	POST /analyze      one AnalyzeRequest, or a BatchRequest ("requests" key);
//	                   synchronous by default, async batches return 202 + id
//	GET  /result/{id}  poll an async batch: 202 pending, 200 done, 404 unknown
//
// Architecture: requests land in a bounded work queue (admission is
// all-or-nothing per batch, so a half-admitted batch can never deadlock the
// queue against itself) drained by a fixed worker pool. When the queue is
// full the server sheds load with 429 + Retry-After instead of queueing
// unbounded work — backpressure is the contract, and /healthz degrades while
// saturated.
//
// Analyzers are pooled by result signature (sta.Config.Signature): two
// requests with equal features and budgets share one analyzer — one
// in-memory delay cache — and, when a cache directory is configured, one
// persistent disk namespace keyed by that same signature. Chaos requests
// (fault injection armed) always run on a fresh throwaway analyzer with no
// disk tier, so injected faults can never poison shared caches.
package service

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qwm/internal/api/v1"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/remotecache"
)

// Options configures a Server. The zero value is usable: 64-slot queue, 2
// workers, 64 retained async results, no disk cache, no metrics.
type Options struct {
	// QueueLen bounds the admission queue (in sub-requests). 0 means 64.
	QueueLen int
	// Workers is the number of queue-draining goroutines. Each drains one
	// analysis at a time; the analyzers parallelize internally. 0 means 2.
	Workers int
	// AnalyzerWorkers is passed to every pooled analyzer's Config.Workers
	// (0 = GOMAXPROCS). It does not affect results or pooling identity.
	AnalyzerWorkers int
	// CacheDir, when set, roots the persistent delay-cache tier: every
	// analyzer signature gets its own namespace directory under it. ""
	// disables the disk tier.
	CacheDir string
	// CacheBytes caps each namespace's disk usage (0 = the diskcache
	// default, 256 MiB).
	CacheBytes int64
	// RemoteCache, when set, is the base URL of a replica-shared remote
	// delay-cache tier (a peer's stad -cache-listen endpoint). Every pooled
	// analyzer then reads through remote → disk; the remote client
	// degrades every network failure to a cache miss behind timeouts,
	// bounded retries and a circuit breaker, so a dead peer never fails or
	// stalls an analysis. "" disables.
	RemoteCache string
	// ResultCap bounds retained async batch results; the oldest are evicted
	// first (polling an evicted id returns 410 Gone). 0 means 64.
	ResultCap int
	// Metrics, when set, receives the service counters (service/...), the
	// engine's per-analyze aggregates and the disk tier's counters.
	Metrics *obs.Registry
	// Flight, when set, turns on request tracing: every /analyze request is
	// traced end to end (admission → worker → engine → cache tiers → remote
	// peer) and the completed trace is retained by the flight recorder for
	// /debug/requests and /trace/request/{id}. nil keeps the hot path
	// entirely untraced.
	Flight *obs.FlightRecorder
}

func (o Options) withDefaults() Options {
	if o.QueueLen <= 0 {
		o.QueueLen = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.ResultCap <= 0 {
		o.ResultCap = 64
	}
	return o
}

// Server is one service instance. Create with New, serve via Handler, stop
// with Close.
type Server struct {
	opts Options
	pool *pool

	queue *workQueue

	resMu   sync.Mutex
	results map[string]*batch
	order   []string // insertion order, for FIFO eviction
	// evicted remembers ids that were retained and then FIFO-evicted, so
	// /result can answer 410 Gone ("you were too late") instead of the
	// indistinguishable 404 ("never heard of it"). Bounded FIFO itself.
	evicted    map[string]struct{}
	evictOrder []string
	nextID     atomic.Int64

	wg sync.WaitGroup

	mRequests, mBatches, mOK, mErr, mShed, mCancelled *obs.Counter
}

// evictedCap bounds the remembered-eviction set; beyond it the oldest
// tombstones decay back into plain 404s.
const evictedCap = 1024

// job is one queued sub-request. Exactly one worker processes it, writes
// resp, and marks it done on its batch. ctx is the submitting client's
// request context for synchronous work (Background for async batches, whose
// results outlive the submit call): a client that disconnects while its job
// is still queued gets shed at dequeue instead of burning a worker.
type job struct {
	ctx   context.Context
	req   v1.AnalyzeRequest
	idx   int
	batch *batch
}

// batch tracks one admitted request group (a single request is a batch of
// one). done closes when every job completed.
type batch struct {
	id    string
	async bool
	total int

	mu        sync.Mutex
	responses []v1.AnalyzeResponse
	completed int
	done      chan struct{}
}

func (b *batch) complete(idx int, resp v1.AnalyzeResponse) {
	b.mu.Lock()
	b.responses[idx] = resp
	b.completed++
	fin := b.completed == b.total
	b.mu.Unlock()
	if fin {
		close(b.done)
	}
}

// progress returns (completed, total) without blocking on done.
func (b *batch) progress() (int, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.completed, b.total
}

// New builds a service over the given technology and library. tech/lib are
// shared by every pooled analyzer.
func New(tech *mos.Tech, lib *devmodel.Library, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		results: map[string]*batch{},
		evicted: map[string]struct{}{},
		queue:   newWorkQueue(opts.QueueLen, opts.Metrics),
		pool: &pool{
			tech: tech, lib: lib,
			cacheDir:   opts.CacheDir,
			cacheBytes: opts.CacheBytes,
			remoteURL:  opts.RemoteCache,
			metrics:    opts.Metrics,
			analyzers:  map[string]*pooledAnalyzer{},
		},
	}
	r := opts.Metrics
	s.mRequests = r.Counter("service/requests")
	s.mBatches = r.Counter("service/batches")
	s.mOK = r.Counter("service/analyses_ok")
	s.mErr = r.Counter("service/analyses_err")
	s.mShed = r.Counter("service/rejected_overload")
	s.mCancelled = r.Counter("service/cancelled")
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// worker drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		// The cheapest analysis is the one nobody is waiting for: a client
		// that hung up while its job sat queued is shed here, before any
		// engine work, as a counted cancellation.
		if j.ctx != nil && j.ctx.Err() != nil {
			s.mCancelled.Inc()
			s.mErr.Inc()
			j.batch.complete(j.idx, v1.ErrorResponse(j.req.ID, v1.CodeCancelled,
				"client disconnected before analysis started"))
			continue
		}
		// Traced requests get a worker span and a derived engine context. The
		// derived context is Background-rooted on purpose: engine cancellation
		// semantics are owned by the dequeue shed above, and a traced request
		// must behave identically to an untraced one.
		ref, traced := obs.TraceFrom(j.ctx)
		var (
			ctx    context.Context
			wID    string
			wStart time.Time
		)
		if traced {
			wID = ref.Parent + ".j" + strconv.Itoa(j.idx)
			wStart = time.Now()
			ctx = obs.ContextWithTrace(context.Background(), obs.TraceRef{
				T: ref.T, Parent: wID, Level: obs.LevelWorker, Item: j.idx,
			})
		}
		resp := s.analyze(ctx, j.req)
		if resp.Status == v1.StatusOK {
			s.mOK.Inc()
		} else {
			s.mErr.Inc()
		}
		if traced {
			// Recorded BEFORE batch.complete: the root span's Finish happens
			// strictly after every job span of a synchronous request.
			ref.T.Add(obs.ReqSpan{
				ID: wID, Parent: ref.Parent, Name: "worker",
				Level: obs.LevelWorker, Item: j.idx,
				Start: wStart, Dur: time.Since(wStart),
				Attrs: obs.Attrs{obs.Str("status", string(resp.Status))},
			})
		}
		j.batch.complete(j.idx, resp)
	}
}

// admit reserves queue slots for every request of a group, all or nothing.
// It returns the tracking batch, or nil when the queue cannot take the
// group right now (back off and retry). ctx is the submitting client's
// context for synchronous groups; pass context.Background() for async ones.
func (s *Server) admit(ctx context.Context, reqs []v1.AnalyzeRequest, async bool) *batch {
	b := &batch{
		id:        fmt.Sprintf("b%06d", s.nextID.Add(1)),
		async:     async,
		total:     len(reqs),
		responses: make([]v1.AnalyzeResponse, len(reqs)),
		done:      make(chan struct{}),
	}
	jobs := make([]*job, len(reqs))
	for i, r := range reqs {
		jobs[i] = &job{ctx: ctx, req: r, idx: i, batch: b}
	}
	ref, traced := obs.TraceFrom(ctx)
	var aStart time.Time
	if traced {
		aStart = time.Now()
	}
	admitted := s.queue.tryPush(jobs)
	if traced {
		ref.T.Add(obs.ReqSpan{
			ID: ref.Parent + ".enqueue", Parent: ref.Parent, Name: "enqueue",
			Level: obs.LevelAdmit, Item: 0,
			Start: aStart, Dur: time.Since(aStart),
			Attrs: obs.Attrs{obs.Int("requests", len(reqs)), obs.Bool("admitted", admitted)},
		})
	}
	if !admitted {
		s.mShed.Inc()
		return nil
	}
	if async {
		s.retain(b)
	}
	return b
}

// retain stores an async batch for /result polling, evicting the oldest
// stored batch beyond the cap.
func (s *Server) retain(b *batch) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	s.results[b.id] = b
	s.order = append(s.order, b.id)
	for len(s.order) > s.opts.ResultCap {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.results, evict)
		if _, dup := s.evicted[evict]; !dup {
			s.evicted[evict] = struct{}{}
			s.evictOrder = append(s.evictOrder, evict)
			for len(s.evictOrder) > evictedCap {
				delete(s.evicted, s.evictOrder[0])
				s.evictOrder = s.evictOrder[1:]
			}
		}
	}
}

// lookup finds a retained async batch; evicted reports whether the id was
// once retained and has since been FIFO-evicted (410 Gone, not 404).
func (s *Server) lookup(id string) (b *batch, evicted bool) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if b := s.results[id]; b != nil {
		return b, false
	}
	_, ev := s.evicted[id]
	return nil, ev
}

// TierStoreFor resolves the per-signature store this replica SERVES to the
// fleet over the remote-cache tier API (remotecache.Server.StoreFor): the
// same disk namespace its own analyzers write through, or a memory tier
// without a cache directory. Unknown signatures are created on demand —
// the requesting peer defines the namespace.
func (s *Server) TierStoreFor(signature string) (sta.TierStore, error) {
	return s.pool.tierStoreFor(signature)
}

// Healthy implements the /healthz hook: degraded while the queue is
// saturated (admission would shed). An open remote-cache breaker is
// REPORTED in the detail but does not degrade health — the tier is an
// optimization, the engine re-evaluates on every miss, and failing a
// load-balancer check because a peer died would turn one replica's outage
// into the fleet's.
func (s *Server) Healthy() (bool, string) {
	if s.queue.full() {
		return false, "work queue saturated"
	}
	open := 0
	for _, st := range s.pool.breakerStates() {
		if st != remotecache.BreakerClosed {
			open++
		}
	}
	if open > 0 {
		return true, fmt.Sprintf("ok (remote cache degraded: %d breaker(s) not closed)", open)
	}
	return true, "ok"
}

// HealthInfo reports the live serving state for the /healthz JSON body:
// truthful queue depth and capacity, worker count, and the signatures whose
// remote-cache breakers are not closed (sorted; empty slice when the remote
// tier is healthy or absent).
func (s *Server) HealthInfo() map[string]any {
	open := []string{}
	for sig, st := range s.pool.breakerStates() {
		if st != remotecache.BreakerClosed {
			open = append(open, sig)
		}
	}
	sort.Strings(open)
	return map[string]any{
		"queue_depth":    s.queue.queuedDepth(),
		"queue_capacity": s.opts.QueueLen,
		"workers":        s.opts.Workers,
		"open_breakers":  open,
	}
}

// Close stops the workers (in-flight analyses run to completion), then
// flushes and closes every pooled disk store. Queued-but-unstarted jobs are
// completed with an overloaded error so synchronous waiters unblock.
func (s *Server) Close() error {
	for _, j := range s.queue.close() {
		j.batch.complete(j.idx, v1.ErrorResponse(j.req.ID, v1.CodeOverloaded, "server shutting down"))
	}
	s.wg.Wait()
	return s.pool.close()
}

// workQueue is a bounded MPMC ring with all-or-nothing group admission.
type workQueue struct {
	mu     sync.Mutex
	nempty *sync.Cond
	buf    []*job
	head   int
	n      int
	closed bool
}

// newWorkQueue builds a queue of the given capacity and registers its depth
// on reg as the sampled gauge service/queue/depth, read at every snapshot so
// an idle-but-full queue (workers wedged, nothing moving) reads truthfully.
func newWorkQueue(capacity int, reg *obs.Registry) *workQueue {
	q := &workQueue{buf: make([]*job, capacity)}
	q.nempty = sync.NewCond(&q.mu)
	reg.GaugeFunc("service/queue/depth", func() int64 { return int64(q.queuedDepth()) })
	return q
}

// tryPush admits every job or none: a group larger than the free space is
// rejected without partial enqueue, so two half-admitted batches can never
// wedge the queue waiting on each other's remainder.
func (q *workQueue) tryPush(jobs []*job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.n+len(jobs) > len(q.buf) {
		return false
	}
	for _, j := range jobs {
		q.buf[(q.head+q.n)%len(q.buf)] = j
		q.n++
	}
	q.nempty.Broadcast()
	return true
}

// pop blocks for the next job; ok is false once the queue is closed and
// drained.
func (q *workQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 && !q.closed {
		q.nempty.Wait()
	}
	if q.n == 0 {
		return nil, false
	}
	j := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return j, true
}

func (q *workQueue) full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n == len(q.buf)
}

// queuedDepth returns the number of queued-but-unstarted jobs.
func (q *workQueue) queuedDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// close marks the queue closed and returns the jobs that were queued but
// not yet picked up, so the caller can fail them out.
func (q *workQueue) close() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	var rest []*job
	for q.n > 0 {
		rest = append(rest, q.buf[q.head])
		q.buf[q.head] = nil
		q.head = (q.head + 1) % len(q.buf)
		q.n--
	}
	q.nempty.Broadcast()
	return rest
}
