package verify

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"time"

	"qwm/internal/devmodel"
	"qwm/internal/faultinject"
	"qwm/internal/mos"
	"qwm/internal/sta"
	"qwm/internal/sta/remotecache"
	"qwm/internal/stages"
)

// RemoteConfig parameterizes the remote-cache differential: the engine runs
// against a live in-process tier server under injected network weather, and
// every answer must stay bit-identical to a remote-disabled baseline — the
// fault-tolerance envelope may only ever convert failures into cache
// misses. The sweep also pins the circuit breaker's deterministic state
// trajectory and the fleet contract (a fresh replica answering warm off a
// shared tier).
type RemoteConfig struct {
	// Seed drives the network fault injectors.
	Seed int64
	// Workers is the analyzer worker count (default 4).
	Workers int
	// Bits sizes the decoder workload (default 3).
	Bits int
	// Rate is the per-class network fault rate (default 0.2).
	Rate float64
	// Progress, when set, receives one line per completed cell.
	Progress func(format string, args ...any)
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Bits <= 0 {
		c.Bits = 3
	}
	if c.Rate <= 0 || c.Rate > 1 {
		c.Rate = 0.2
	}
	return c
}

// RemoteCell is one gated remote-cache experiment.
type RemoteCell struct {
	Name     string   `json:"name"`
	Problems []string `json:"problems,omitempty"`
	Pass     bool     `json:"pass"`
}

// RemoteReport aggregates the remote-cache sweep.
type RemoteReport struct {
	SchemaVersion string       `json:"schema_version"`
	Seed          int64        `json:"seed"`
	Rate          float64      `json:"rate"`
	Cells         []RemoteCell `json:"cells"`
	// RemoteHitRate is the fresh replica's remote hit rate off the warm
	// shared tier (the acceptance bar is 0.9).
	RemoteHitRate float64 `json:"remote_hit_rate"`
	Failures      int     `json:"failures"`
	Pass          bool    `json:"pass"`
}

// JSON renders the report.
func (r *RemoteReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// deadTransport is a RoundTripper standing in for a dead peer: every request
// fails instantly (as a refused connection would) and is counted, so cells
// can assert EXACTLY how much network traffic the breaker let through.
type deadTransport struct{ attempts atomic.Int64 }

func (d *deadTransport) RoundTrip(*http.Request) (*http.Response, error) {
	d.attempts.Add(1)
	return nil, errors.New("verify: dead peer")
}

// remoteQuickOpts are client options for the sweep: deterministic
// count-based breaker, no wall-clock coupling.
func remoteQuickOpts() remotecache.Options {
	return remotecache.Options{
		Timeout:           2 * time.Second,
		Retries:           -1,
		Backoff:           time.Millisecond,
		BreakerThreshold:  3,
		BreakerProbeEvery: 4,
		BreakerCooldown:   -1,
	}
}

// RunRemote executes the remote-cache sweep. The invariants, per cell:
//
//   - warm-replica: a fresh replica over a warm shared tier evaluates zero
//     stages, sees a >=90 % remote hit rate, and answers bit-identically.
//   - net-latency / net-error / net-corrupt at cfg.Rate: results stay
//     bit-identical to the remote-disabled baseline, and the injector must
//     actually fire (a sweep that never injected proves nothing).
//   - breaker: against a dead peer the state trajectory is exactly
//     closed -> open after `threshold` failures, then one probe per
//     `probeEvery` suppressed operations — replayed twice to pin
//     determinism — and an engine run over the dead tier spends at most
//     threshold + 1 probe per breaker window of network attempts.
func RunRemote(cfg RemoteConfig) (*RemoteReport, error) {
	cfg = cfg.withDefaults()
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	nl, ins, outs, err := stages.DecoderNetlist(tech, cfg.Bits, 1e-6, 10e-15)
	if err != nil {
		return nil, fmt.Errorf("verify: decoder workload: %w", err)
	}
	primary := make(map[string]sta.Arrival, len(ins))
	for _, in := range ins {
		primary[in] = sta.Arrival{}
	}
	req := sta.Request{Netlist: nl, Primary: primary, Outputs: outs}

	// The shared tier every cell talks to: an in-process server over
	// per-signature memory stores.
	tierSrv := remotecache.NewServer(remotecache.MemoryStores(0), nil)
	hs := httptest.NewServer(tierSrv.Handler())
	defer hs.Close()

	// Remote-disabled baseline. Every cell must reproduce these bits.
	ref, err := sta.New(tech, lib, sta.Config{Workers: cfg.Workers}).AnalyzeContext(nil, req)
	if err != nil {
		return nil, fmt.Errorf("verify: baseline analyze: %w", err)
	}

	rep := &RemoteReport{SchemaVersion: "qwm-verify-remote/1", Seed: cfg.Seed, Rate: cfg.Rate}
	addCell := func(name string, problems []string) {
		rep.Cells = append(rep.Cells, RemoteCell{Name: name, Problems: problems, Pass: len(problems) == 0})
		if len(problems) == 0 {
			progress("cell %-16s PASS", name)
		} else {
			rep.Failures++
			progress("cell %-16s FAIL: %v", name, problems)
		}
	}
	sameBits := func(label string, got *sta.Result, problems []string) []string {
		if !reflect.DeepEqual(ref.Arrivals, got.Arrivals) {
			problems = append(problems, label+": arrivals diverged from the remote-disabled baseline")
		}
		if !reflect.DeepEqual(ref.Diagnostics, got.Diagnostics) {
			problems = append(problems, label+": diagnostics diverged from the remote-disabled baseline")
		}
		return problems
	}

	// ---- Cell: warm-replica ------------------------------------------------
	// Replica A runs cold through the remote tier, publishing every computed
	// entry; a brand-new replica B then answers entirely off the shared tier.
	{
		var problems []string
		cfgA := sta.Config{Workers: cfg.Workers}
		ca := remotecache.New(hs.URL, cfgA.Signature(), remoteQuickOpts())
		cfgA.Tiers = []sta.TierStore{ca}
		resA, err := sta.New(tech, lib, cfgA).AnalyzeContext(nil, req)
		if err != nil {
			problems = append(problems, "replica A: "+err.Error())
		} else {
			problems = sameBits("replica A", resA, problems)
		}
		ca.Flush()
		if s := ca.Stats(); resA != nil && s.Puts < int64(resA.StagesEvaluated) {
			problems = append(problems, fmt.Sprintf("replica A published %d of %d entries", s.Puts, resA.StagesEvaluated))
		}
		ca.Close()

		cfgB := sta.Config{Workers: cfg.Workers}
		cb := remotecache.New(hs.URL, cfgB.Signature(), remoteQuickOpts())
		cfgB.Tiers = []sta.TierStore{cb}
		resB, err := sta.New(tech, lib, cfgB).AnalyzeContext(nil, req)
		if err != nil {
			problems = append(problems, "replica B: "+err.Error())
		} else {
			if resB.StagesEvaluated != 0 {
				problems = append(problems, fmt.Sprintf("fresh replica evaluated %d stages off a warm shared tier, want 0", resB.StagesEvaluated))
			}
			problems = sameBits("replica B", resB, problems)
		}
		rep.RemoteHitRate = cb.Stats().HitRate()
		if rep.RemoteHitRate < 0.9 {
			problems = append(problems, fmt.Sprintf("remote hit rate %.3f < 0.90 (%+v)", rep.RemoteHitRate, cb.Stats()))
		}
		cb.Close()
		addCell("warm-replica", problems)
	}

	// ---- Cells: network chaos ---------------------------------------------
	// Each class fires at cfg.Rate against the (now warm) shared tier:
	// net-corrupt needs real response bodies to corrupt, which the warm tier
	// provides. Whatever the weather, the bits must not move.
	for _, class := range []faultinject.Class{faultinject.NetLatency, faultinject.NetError, faultinject.NetCorrupt} {
		var problems []string
		inj := faultinject.New(cfg.Seed).Enable(class, cfg.Rate).WithStall(200 * time.Microsecond)
		opts := remoteQuickOpts()
		opts.Fault = inj
		ccfg := sta.Config{Workers: cfg.Workers}
		cc := remotecache.New(hs.URL, ccfg.Signature(), opts)
		ccfg.Tiers = []sta.TierStore{cc}
		res, err := sta.New(tech, lib, ccfg).AnalyzeContext(nil, req)
		if err != nil {
			problems = append(problems, "chaos analyze: "+err.Error())
		} else {
			problems = sameBits("chaos "+class.String(), res, problems)
		}
		if inj.Fired()[class.String()] == 0 {
			problems = append(problems, fmt.Sprintf("injector for %s never fired; the cell is vacuous", class))
		}
		if class == faultinject.NetCorrupt {
			if s := cc.Stats(); s.Corrupt == 0 {
				problems = append(problems, "no corrupt frames counted despite armed net-corrupt")
			} else if st := cc.BreakerState(); st != remotecache.BreakerClosed {
				problems = append(problems, fmt.Sprintf("corruption moved the breaker to %v; corrupt frames are data-plane, not peer death", st))
			}
		}
		cc.Close()
		addCell(class.String(), problems)
	}

	// ---- Cell: breaker -----------------------------------------------------
	{
		var problems []string
		trajectory := func() (states []string, attempts int64) {
			tr := &deadTransport{}
			opts := remoteQuickOpts()
			opts.HTTPClient = &http.Client{Transport: tr}
			c := remotecache.New("http://dead.invalid", "sig", opts)
			defer c.Close()
			var out [1]sta.TierEntry
			var hit [1]bool
			for i := 0; i < 11; i++ {
				c.GetMany(context.Background(), []sta.Key{{byte(i)}}, out[:], hit[:])
				states = append(states, c.BreakerState().String())
			}
			return states, tr.attempts.Load()
		}
		// Threshold 3, probe every 4th suppressed op: one-key reads 1-3
		// fail closed (the 3rd opens), 4-6 are suppressed, 7 probes and
		// re-opens, 8-10 are suppressed, 11 probes and re-opens.
		want := []string{
			"closed", "closed", "open",
			"open", "open", "open", "open",
			"open", "open", "open", "open",
		}
		s1, a1 := trajectory()
		s2, a2 := trajectory()
		if !reflect.DeepEqual(s1, want) {
			problems = append(problems, fmt.Sprintf("state trajectory %v, want %v", s1, want))
		}
		if !reflect.DeepEqual(s1, s2) || a1 != a2 {
			problems = append(problems, fmt.Sprintf("breaker not deterministic: %v/%d vs %v/%d", s1, a1, s2, a2))
		}
		if a1 != 5 { // 3 to open + probe at get 7 + probe at get 11
			problems = append(problems, fmt.Sprintf("dead peer cost %d network attempts over 11 gets, want exactly 5", a1))
		}

		// Dead peer under the engine: the whole analysis may spend at most
		// threshold attempts to open the breaker plus one probe per
		// probeEvery suppressed operations — and the answer must not move.
		tr := &deadTransport{}
		opts := remoteQuickOpts()
		opts.HTTPClient = &http.Client{Transport: tr}
		dcfg := sta.Config{Workers: cfg.Workers}
		dc := remotecache.New("http://dead.invalid", dcfg.Signature(), opts)
		dcfg.Tiers = []sta.TierStore{dc}
		res, err := sta.New(tech, lib, dcfg).AnalyzeContext(nil, req)
		if err != nil {
			problems = append(problems, "dead-peer analyze: "+err.Error())
		} else {
			problems = sameBits("dead peer", res, problems)
		}
		stats := dc.Stats()
		ops := stats.Hits + stats.Misses + stats.Puts + stats.Dropped
		budget := int64(3) + ops/4 + 1
		if got := tr.attempts.Load(); got > budget {
			problems = append(problems, fmt.Sprintf("dead peer cost %d attempts over %d ops; budget threshold+probes = %d", got, ops, budget))
		}
		if stats.FastFails == 0 {
			problems = append(problems, "open breaker never fast-failed; the cell is vacuous")
		}
		dc.Close()
		addCell("breaker", problems)
	}

	rep.Pass = rep.Failures == 0
	return rep, nil
}
