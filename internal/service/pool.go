package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"qwm/internal/api/v1"
	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/faultinject"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/obs"
	"qwm/internal/reduce"
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
	"qwm/internal/sta/remotecache"
)

// pool keys shared analyzers by their result signature. Each pooled
// analyzer owns one in-memory delay cache and the tiers (sta.Config.Tiers)
// the deployment configured: a remote (replica-shared) cache client, then a
// disk-tier namespace directory named by the FNV-64a hex of the
// signature — the full signature is
// persisted inside by diskcache.Open, so hash collisions are detected, not
// silently merged. The per-signature stores live on the pool itself, shared
// between analyzer wiring and the tier-serving endpoint (TierStoreFor):
// diskcache is single-writer per directory, so both consumers MUST see the
// same *Store.
type pool struct {
	tech       *mos.Tech
	lib        *devmodel.Library
	cacheDir   string
	cacheBytes int64
	remoteURL  string // base URL of a shared remote tier; "" disables
	metrics    *obs.Registry

	mu        sync.Mutex
	analyzers map[string]*sta.Analyzer
	stores    map[string]*diskcache.Store    // per-signature disk namespaces
	memories  map[string]*sta.MemoryTier     // peers' PUTs when no cache dir
	remotes   map[string]*remotecache.Client // per-signature remote clients
}

// storeLocked opens (once) the disk namespace for sig. Caller holds p.mu;
// p.cacheDir must be set.
func (p *pool) storeLocked(sig string) (*diskcache.Store, error) {
	if store, ok := p.stores[sig]; ok {
		return store, nil
	}
	dir := filepath.Join(p.cacheDir, sigDirName(sig))
	store, err := diskcache.Open(dir, sig, diskcache.Options{
		MaxBytes: p.cacheBytes,
		Metrics:  p.metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("service: opening disk cache for %q: %w", sig, err)
	}
	if p.stores == nil {
		p.stores = map[string]*diskcache.Store{}
	}
	p.stores[sig] = store
	return store, nil
}

// get returns the pooled analyzer for cfg, creating it (and its tiers) on
// first use. cfg must not carry Tiers — the pool owns tier wiring.
func (p *pool) get(cfg sta.Config) (*sta.Analyzer, error) {
	sig := cfg.Signature()
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.analyzers[sig]; ok {
		return a, nil
	}
	// The tiers, fastest first: remote → disk. No memory tier heads them:
	// the analyzer's single-flight delay cache sits above every tier under
	// the same keys, never evicts and lives exactly as long as the analyzer,
	// so the tiers are probed at most once per key and a memory tier there
	// could never hit. The disk namespace opens first: the remote client
	// starts a write-behind goroutine, so it is built only once nothing can
	// fail.
	var tiers []sta.TierStore
	if p.cacheDir != "" {
		store, err := p.storeLocked(sig)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, store)
	}
	if p.remoteURL != "" {
		rc := remotecache.New(p.remoteURL, sig, remotecache.Options{Metrics: p.metrics})
		if p.remotes == nil {
			p.remotes = map[string]*remotecache.Client{}
		}
		p.remotes[sig] = rc
		tiers = append([]sta.TierStore{rc}, tiers...)
	}
	cfg.Tiers = tiers
	cfg.Metrics = p.metrics
	a := sta.New(p.tech, p.lib, cfg)
	p.analyzers[sig] = a
	return a, nil
}

// tierStoreFor resolves the store the TIER SERVER serves for one signature:
// the same per-signature disk namespace the local analyzers write through
// or, when the deployment has no cache directory, a memory tier for what
// peers PUT — each backed by the signature's pooled analyzer's own cache.
// So this replica's analyses are what the fleet shares in both modes,
// including entries still in the disk write-behind queue.
func (p *pool) tierStoreFor(sig string) (sta.TierStore, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cacheDir != "" {
		store, err := p.storeLocked(sig)
		if err != nil {
			return nil, err
		}
		return servedStore{TierStore: store, p: p, sig: sig}, nil
	}
	mt, ok := p.memories[sig]
	if !ok {
		mt = sta.NewMemoryTier(0)
		if p.memories == nil {
			p.memories = map[string]*sta.MemoryTier{}
		}
		p.memories[sig] = mt
	}
	return servedStore{TierStore: mt, p: p, sig: sig}, nil
}

// servedStore is what the tier server serves for one signature: the
// backing store, which also takes every Put, and for its misses the
// entries the signature's pooled analyzer holds. The analyzer is looked up
// per read, so one created after the first tier request is served as well.
type servedStore struct {
	sta.TierStore
	p   *pool
	sig string
}

// GetMany implements sta.TierStore.
func (s servedStore) GetMany(ctx context.Context, keys []sta.Key, out []sta.TierEntry, hit []bool) {
	s.TierStore.GetMany(ctx, keys, out, hit)
	s.p.mu.Lock()
	a := s.p.analyzers[s.sig]
	s.p.mu.Unlock()
	if a != nil {
		a.CachedEntries(keys, out, hit)
	}
}

// breakerStates snapshots every remote client's breaker, keyed by signature.
func (p *pool) breakerStates() map[string]remotecache.BreakerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.remotes) == 0 {
		return nil
	}
	out := make(map[string]remotecache.BreakerState, len(p.remotes))
	for sig, rc := range p.remotes {
		out[sig] = rc.BreakerState()
	}
	return out
}

func (p *pool) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	// Remote clients first: their write-behind queues drain into the
	// network, independent of the disk stores.
	for _, rc := range p.remotes {
		rc.Flush()
		if err := rc.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, store := range p.stores {
		store.Flush()
		if err := store.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.analyzers = map[string]*sta.Analyzer{}
	p.stores = nil
	p.memories = nil
	p.remotes = nil
	return first
}

// sigDirName maps a signature to a filesystem-safe namespace directory.
func sigDirName(sig string) string {
	h := fnv.New64a()
	h.Write([]byte(sig))
	return fmt.Sprintf("%016x", h.Sum64())
}

// analyze executes one wire request end to end: validate, parse, route to a
// pooled (or, for chaos, throwaway) analyzer, convert the result. All
// failures come back as v1 error envelopes; nothing panics the server. ctx
// carries the request's trace reference when the request is traced (nil is
// fine: it reaches AnalyzeContext, which treats nil as Background) — it is
// NOT a cancellation signal; shedding happens when the request starts.
func (s *Server) analyze(ctx context.Context, req v1.AnalyzeRequest) v1.AnalyzeResponse {
	if err := v1.Validate(req.SchemaVersion); err != nil {
		return v1.ErrorResponse(req.ID, v1.CodeInvalidRequest, err.Error())
	}
	switch strings.ToLower(req.Tech) {
	case "", "cmos035":
	default:
		return v1.ErrorResponse(req.ID, v1.CodeInvalidRequest,
			fmt.Sprintf("unknown tech %q (this build serves cmos035)", req.Tech))
	}
	if strings.TrimSpace(req.Netlist) == "" {
		return v1.ErrorResponse(req.ID, v1.CodeInvalidRequest, "empty netlist")
	}
	if len(req.Outputs) == 0 {
		return v1.ErrorResponse(req.ID, v1.CodeInvalidRequest, "no outputs requested")
	}
	deck, err := netlist.ParseString(req.Netlist)
	if err != nil {
		return v1.ErrorResponse(req.ID, v1.CodeInvalidNetlist, err.Error())
	}

	cfg := sta.Config{Workers: s.opts.AnalyzerWorkers}
	if f := req.Features; f != nil {
		cfg.Reduction = reduce.Config{TolPct: f.ReduceTolPct}
	}
	if b := req.Budget; b != nil {
		// Each budget value is its own Config.Signature(), so its own pooled
		// analyzer and disk namespace: refuse values that would only
		// re-spell "unlimited" (negative) or overflow the nanosecond wall.
		if b.NRIters < 0 || b.WallMS < 0 || b.WallMS*float64(time.Millisecond) >= math.MaxInt64 {
			return v1.ErrorResponse(req.ID, v1.CodeInvalidRequest,
				"budget: nr_iters and wall_ms must be non-negative and wall_ms below 9.2e12")
		}
		cfg.Budget = b.STA()
	}

	var analyzer *sta.Analyzer
	if c := req.Chaos; c != nil {
		// Chaos traffic: fresh analyzer, no pool, no disk tier — injected
		// faults must never leak into entries production requests share.
		rate := c.Rate
		if rate < 0 || rate > 1 {
			return v1.ErrorResponse(req.ID, v1.CodeInvalidRequest, "chaos: rate must be in (0, 1], or 0 for 1")
		}
		if rate == 0 {
			rate = 1
		}
		inj := faultinject.New(c.Seed)
		for _, name := range c.Classes {
			class, err := faultinject.ParseClass(name)
			if err != nil {
				return v1.ErrorResponse(req.ID, v1.CodeInvalidRequest, err.Error())
			}
			inj.Enable(class, rate)
		}
		cfg.FaultPlan = inj
		cfg.Metrics = nil
		analyzer = sta.New(s.pool.tech, s.pool.lib, cfg)
	} else {
		a, perr := s.pool.get(cfg)
		if perr != nil {
			return v1.ErrorResponse(req.ID, v1.CodeAnalysisFailed, perr.Error())
		}
		analyzer = a
	}

	primary := make(map[string]sta.Arrival, len(req.Inputs))
	for net, ar := range req.Inputs {
		primary[net] = ar.STA()
	}
	outputs := make([]string, len(req.Outputs))
	for i, o := range req.Outputs {
		outputs[i] = circuit.CanonName(o)
	}

	res, err := analyzer.AnalyzeContext(ctx, sta.Request{
		Netlist: deck.Netlist,
		Primary: primary,
		Outputs: outputs,
	})
	if err != nil {
		code := v1.CodeAnalysisFailed
		switch {
		case errors.Is(err, sta.ErrInvalidNetlist):
			code = v1.CodeInvalidNetlist
		case errors.Is(err, sta.ErrInvalidInput):
			code = v1.CodeInvalidRequest
		}
		return v1.ErrorResponse(req.ID, code, err.Error())
	}
	return v1.OKResponse(req.ID, v1.FromResult(res, outputs, req.FullArrivals))
}
