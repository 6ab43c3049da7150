package remotecache

import (
	"sync"
	"sync/atomic"
	"time"

	"qwm/internal/obs"
)

// BreakerState enumerates the circuit breaker's three states.
type BreakerState int32

const (
	// BreakerClosed: requests flow normally; consecutive failures are
	// counted and trip the breaker at the threshold.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: exactly one probe request is in flight; its outcome
	// decides between Closed (success) and Open (failure).
	BreakerHalfOpen
	// BreakerOpen: requests are suppressed without touching the network —
	// each costs one atomic load plus counter bookkeeping, never a timeout.
	BreakerOpen
)

// String returns the canonical state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// breaker is a three-state circuit breaker with DETERMINISTIC, count-based
// probing: it opens after `threshold` consecutive failures, and while open
// every `probeEvery`-th suppressed operation is promoted to a half-open
// probe. A wall-clock cooldown can additionally force a probe (for
// deployments where traffic may stop entirely), but because the count-based
// trigger dominates under steady traffic, a fixed request sequence produces
// a fixed state trajectory — which is what lets
// TestBreakerDeterministicTransitions and TestDeadPeerUnderEngine assert
// exact transition points and network-attempt bounds against a dead peer.
//
// Successes and failures are judged by the CALLER: a transport-level round
// trip that completes (including a 404 miss) is a success; timeouts,
// connection errors and 5xx responses are failures. Data corruption is
// deliberately breaker-neutral — a corrupt frame is a data-plane problem the
// CRC already converts into a miss, and opening the breaker for it would let
// one bad record blind the tier for everyone.
type breaker struct {
	threshold  int
	probeEvery int64
	cooldown   time.Duration
	now        func() time.Time

	state atomic.Int32 // BreakerState; atomic so the closed fast path is lock-free

	mu          sync.Mutex
	consecFails int
	skips       int64 // suppressed ops since the breaker opened / last probe
	openedAt    time.Time

	// Local counters mirrored into the (possibly nil) registry, so Stats
	// works without one — the diskcache counter-pair idiom.
	opens, probes cpair

	reg     *obs.Registry
	mOpens  *obs.Counter // sta/remote/breaker_opens (every transition to Open)
	mProbes *obs.Counter // sta/remote/probes
}

// liveBreakers holds, per registry, the breakers of every client not yet
// closed. The service keeps one client, and so one breaker, per signature,
// all on one registry; its sta/remote/breaker_state gauge (0 closed,
// 1 half-open, 2 open) samples the worst of them, so an open breaker shows
// even when another client's breaker changed after it.
var liveBreakers struct {
	mu  sync.Mutex
	reg map[*obs.Registry]map[*breaker]struct{}
}

func newBreaker(threshold int, probeEvery int64, cooldown time.Duration, r *obs.Registry) *breaker {
	b := &breaker{
		threshold:  threshold,
		probeEvery: probeEvery,
		cooldown:   cooldown,
		now:        time.Now,
		reg:        r,
		mOpens:     r.Counter("sta/remote/breaker_opens"),
		mProbes:    r.Counter("sta/remote/probes"),
	}
	if r == nil {
		return b
	}
	liveBreakers.mu.Lock()
	defer liveBreakers.mu.Unlock()
	if liveBreakers.reg == nil {
		liveBreakers.reg = map[*obs.Registry]map[*breaker]struct{}{}
	}
	set := liveBreakers.reg[r]
	if set == nil {
		set = map[*breaker]struct{}{}
		liveBreakers.reg[r] = set
		r.GaugeFunc("sta/remote/breaker_state", func() int64 { return worstBreaker(r) })
	}
	set[b] = struct{}{}
	return b
}

// worstBreaker is the highest state of r's live breakers (BreakerClosed
// when it has none).
func worstBreaker(r *obs.Registry) int64 {
	liveBreakers.mu.Lock()
	defer liveBreakers.mu.Unlock()
	worst := BreakerClosed
	for b := range liveBreakers.reg[r] {
		worst = max(worst, b.State())
	}
	return int64(worst)
}

// withdraw removes the breaker from its registry's gauge. Idempotent.
func (b *breaker) withdraw() {
	liveBreakers.mu.Lock()
	defer liveBreakers.mu.Unlock()
	set := liveBreakers.reg[b.reg]
	delete(set, b)
	if len(set) == 0 {
		// Keep no registry reachable once its last breaker is gone; the
		// gauge then reads closed.
		delete(liveBreakers.reg, b.reg)
	}
}

func (b *breaker) setState(s BreakerState) { b.state.Store(int32(s)) }

// State returns the current state (lock-free).
func (b *breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// allow decides whether an operation may reach the network. probe is true
// when the operation was promoted to a half-open probe; the caller MUST
// report the outcome via success(probe) or failure(probe).
func (b *breaker) allow() (proceed, probe bool) {
	if BreakerState(b.state.Load()) == BreakerClosed {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed: // raced with a success; proceed normally
		return true, false
	case BreakerHalfOpen: // a probe is already in flight
		b.skips++
		return false, false
	}
	// Open: suppress, unless this op is promoted to a probe.
	b.skips++
	if (b.probeEvery > 0 && b.skips >= b.probeEvery) ||
		(b.cooldown > 0 && b.now().Sub(b.openedAt) >= b.cooldown) {
		b.skips = 0
		b.setState(BreakerHalfOpen)
		b.probes.add(1, b.mProbes)
		return true, true
	}
	return false, false
}

// success records a completed round trip. Any success closes the breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	if BreakerState(b.state.Load()) != BreakerClosed {
		b.skips = 0
		b.setState(BreakerClosed)
	}
}

// failure records a failed round trip. A failed probe re-opens immediately;
// accumulated failures while closed open at the threshold.
func (b *breaker) failure(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe || BreakerState(b.state.Load()) == BreakerHalfOpen {
		b.openLocked()
		return
	}
	b.countFailureLocked()
}

// settle records the outcome of a write-behind send. It acts only while the
// breaker is closed: a send may reset the failure run or count toward the
// threshold, but it never decides a probe or closes an open breaker. Reads
// own the probe schedule, so the breaker's path does not depend on when
// queued writes happen to drain.
func (b *breaker) settle(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if BreakerState(b.state.Load()) != BreakerClosed {
		return
	}
	if ok {
		b.consecFails = 0
		return
	}
	b.countFailureLocked()
}

// countFailureLocked adds one failure to the closed breaker's run and opens
// it at the threshold. Requires b.mu.
func (b *breaker) countFailureLocked() {
	b.consecFails++
	if b.consecFails >= b.threshold && BreakerState(b.state.Load()) == BreakerClosed {
		b.openLocked()
	}
}

// openLocked moves the breaker to Open and restarts the probe schedule.
// Requires b.mu.
func (b *breaker) openLocked() {
	b.consecFails = 0
	b.openedAt = b.now()
	b.skips = 0
	b.setState(BreakerOpen)
	b.opens.add(1, b.mOpens)
}
