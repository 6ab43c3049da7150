// Package service is the timing-analysis-as-a-service front door: an
// HTTP/JSON server speaking the versioned v1 wire schema (internal/api/v1)
// over the STA engine.
//
//	POST /analyze      one AnalyzeRequest, or a BatchRequest ("requests" key);
//	                   synchronous by default, async batches return 202 + id
//	GET  /result/{id}  poll an async batch: 202 pending, 200 done, 404 unknown
//
// Architecture: admission reserves one slot per sub-request in a bounded
// count of admitted-but-unstarted requests (all-or-nothing per batch), and
// every admitted sub-request then runs on a goroutine of its own, at most
// Workers of them analyzing at once. When the count is full the server sheds
// load with 429 + Retry-After instead of queueing unbounded work —
// backpressure is the contract, and /healthz degrades while saturated.
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

// Options configures a Server. The zero value is usable: 64 admitted
// requests waiting at most, 2 analyses at a time, no disk cache, no metrics.
type Options struct {
	// QueueLen bounds the admitted sub-requests still waiting to start.
	// 0 means 64.
	QueueLen int
	// Workers bounds how many admitted sub-requests analyze at once. Each
	// runs one analysis; the analyzers parallelize internally. 0 means 2.
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
	// degrades every network failure to a cache miss behind one
	// deadline-bounded attempt per read and a circuit breaker, so a dead
	// peer never fails or stalls an analysis. "" disables.
	RemoteCache string
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
	return o
}

// Server is one service instance. Create with New, serve via Handler, stop
// with Close.
type Server struct {
	opts Options
	pool *pool

	// admMu guards the admission state: waiting counts the admitted
	// sub-requests that have not yet started (the queue depth), closed is
	// set once Close has begun.
	admMu   sync.Mutex
	waiting int
	closed  bool
	// run holds one token per running analysis (capacity Workers); stop
	// closes when Close begins, releasing every sub-request still waiting
	// for a token. active counts the admitted sub-requests not yet answered.
	run    chan struct{}
	stop   chan struct{}
	active sync.WaitGroup

	resMu   sync.Mutex
	results map[string]*batch
	order   []string // insertion order, for FIFO eviction
	// evicted remembers ids that were retained and then FIFO-evicted, so
	// /result can answer 410 Gone ("you were too late") instead of the
	// indistinguishable 404 ("never heard of it"). Bounded FIFO itself.
	evicted    map[string]struct{}
	evictOrder []string
	nextID     atomic.Int64

	mRequests, mBatches, mOK, mErr, mShed, mCancelled *obs.Counter
}

const (
	// resultCap bounds retained async batch results; the oldest are evicted
	// first (polling an evicted id returns 410 Gone).
	resultCap = 64
	// evictedCap bounds the remembered-eviction set; beyond it the oldest
	// tombstones decay back into plain 404s.
	evictedCap = 1024
)

// batch tracks one admitted request group (a single request is a batch of
// one). done closes when every sub-request completed.
type batch struct {
	id    string
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
// shared by every pooled analyzer. It starts no goroutine: each admitted
// sub-request gets its own.
func New(tech *mos.Tech, lib *devmodel.Library, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		run:     make(chan struct{}, opts.Workers),
		stop:    make(chan struct{}),
		results: map[string]*batch{},
		evicted: map[string]struct{}{},
		pool: &pool{
			tech: tech, lib: lib,
			cacheDir:   opts.CacheDir,
			cacheBytes: opts.CacheBytes,
			remoteURL:  opts.RemoteCache,
			metrics:    opts.Metrics,
			analyzers:  map[string]*sta.Analyzer{},
		},
	}
	r := opts.Metrics
	s.mRequests = r.Counter("service/requests")
	s.mBatches = r.Counter("service/batches")
	s.mOK = r.Counter("service/analyses_ok")
	s.mErr = r.Counter("service/analyses_err")
	s.mShed = r.Counter("service/rejected_overload")
	s.mCancelled = r.Counter("service/cancelled")
	// Sampled at every snapshot, so a full-but-stuck server (nothing
	// starting) reads truthfully.
	r.GaugeFunc("service/queue/depth", func() int64 { return int64(s.depth()) })
	return s
}

// depth returns the number of admitted sub-requests still waiting to start.
func (s *Server) depth() int {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	return s.waiting
}

// admit reserves waiting slots for every request of a group, all or nothing,
// and starts one goroutine per sub-request. A group larger than the free
// space is refused whole: no batch is ever half admitted. It returns the
// tracking batch, or nil when the server cannot take the group right now
// (back off and retry) or is shutting down. ctx is the submitting client's context for
// synchronous groups; pass context.Background() for async ones.
func (s *Server) admit(ctx context.Context, reqs []v1.AnalyzeRequest, async bool) *batch {
	ref, traced := obs.TraceFrom(ctx)
	var aStart time.Time
	if traced {
		aStart = time.Now()
	}
	s.admMu.Lock()
	admitted := !s.closed && s.waiting+len(reqs) <= s.opts.QueueLen
	if admitted {
		s.waiting += len(reqs)
		s.active.Add(len(reqs))
	}
	s.admMu.Unlock()
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
	b := &batch{
		id:        fmt.Sprintf("b%06d", s.nextID.Add(1)),
		total:     len(reqs),
		responses: make([]v1.AnalyzeResponse, len(reqs)),
		done:      make(chan struct{}),
	}
	if async {
		s.retain(b)
	}
	for i, r := range reqs {
		go s.serve(ctx, b, i, r)
	}
	return b
}

// serve runs one admitted sub-request: it waits for a run token (blocked
// senders are served in arrival order), leaves the waiting count, analyzes
// and completes its slot of the batch. A Close that begins while it waits
// answers it "server shutting down" instead.
func (s *Server) serve(ctx context.Context, b *batch, idx int, req v1.AnalyzeRequest) {
	defer s.active.Done()
	select {
	case s.run <- struct{}{}:
		defer func() { <-s.run }()
	case <-s.stop:
	}
	s.admMu.Lock()
	s.waiting--
	closed := s.closed
	s.admMu.Unlock()
	if closed {
		b.complete(idx, v1.ErrorResponse(req.ID, v1.CodeOverloaded, "server shutting down"))
		return
	}
	// The cheapest analysis is the one nobody is waiting for: a client that
	// hung up while its request waited is shed here, before any engine
	// work, as a counted cancellation.
	if ctx.Err() != nil {
		s.mCancelled.Inc()
		s.mErr.Inc()
		b.complete(idx, v1.ErrorResponse(req.ID, v1.CodeCancelled,
			"client disconnected before analysis started"))
		return
	}
	// Traced requests get a worker span and a derived engine context. The
	// derived context is Background-rooted on purpose: engine cancellation
	// semantics are owned by the start-time shed above, and a traced request
	// must behave identically to an untraced one.
	ref, traced := obs.TraceFrom(ctx)
	var (
		actx   context.Context
		wID    string
		wStart time.Time
	)
	if traced {
		wID = ref.Parent + ".j" + strconv.Itoa(idx)
		wStart = time.Now()
		actx = obs.ContextWithTrace(context.Background(), obs.TraceRef{
			T: ref.T, Parent: wID, Level: obs.LevelWorker, Item: idx,
		})
	}
	resp := s.analyze(actx, req)
	if resp.Status == v1.StatusOK {
		s.mOK.Inc()
	} else {
		s.mErr.Inc()
	}
	if traced {
		// Recorded BEFORE batch.complete: the root span's Finish happens
		// strictly after every worker span of a synchronous request.
		ref.T.Add(obs.ReqSpan{
			ID: wID, Parent: ref.Parent, Name: "worker",
			Level: obs.LevelWorker, Item: idx,
			Start: wStart, Dur: time.Since(wStart),
			Attrs: obs.Attrs{obs.Str("status", string(resp.Status))},
		})
	}
	b.complete(idx, resp)
}

// retain stores an async batch for /result polling, evicting the oldest
// stored batch beyond the cap.
func (s *Server) retain(b *batch) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	s.results[b.id] = b
	s.order = append(s.order, b.id)
	for len(s.order) > resultCap {
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
	if s.depth() >= s.opts.QueueLen {
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
		"queue_depth":    s.depth(),
		"queue_capacity": s.opts.QueueLen,
		"workers":        s.opts.Workers,
		"open_breakers":  open,
	}
}

// Close refuses new work and answers every admitted sub-request that has
// not started with an overloaded error, so synchronous waiters unblock; it
// then waits for the running analyses to finish and flushes and closes every
// pooled store. Calling it again is harmless.
func (s *Server) Close() error {
	s.admMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	s.admMu.Unlock()
	s.active.Wait()
	return s.pool.close()
}
