package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"qwm/internal/api/v1"
	"qwm/internal/bench"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/obs"
	"qwm/internal/service"
	"qwm/internal/sta"
	"qwm/internal/sta/remotecache"
)

const (
	// fleetClients is the number of closed-loop client connections.
	fleetClients = 2
	// Heap probe marks for service-fleet (requests completed).
	fleetHeapAt, fleetHeapAt2 = 1500, 3000
	// One request in fleetSampleEvery (seeded) is re-analyzed on a cold
	// analyzer after timing, at most fleetSampleCap of them.
	fleetSampleEvery, fleetSampleCap = 64, 48
	// fleetTolPct is the relative WorstArrival tolerance of that check.
	// Warm delay-cache entries are keyed by a 5 ps input-slew bucket but
	// evaluated at the first slew seen in the bucket, so a warm replica may
	// differ from a cold analyzer in the low digits. Tighten to bit
	// equality once cache entries are a pure function of their key.
	fleetTolPct = 0.5
	// fleetReplayEvery: traced runs replay the parse and codec calls on
	// every fleetReplayEvery-th request's own inputs.
	fleetReplayEvery = 4
	// benchKeepHeader marks a request whose spans the tracer keeps.
	benchKeepHeader = "X-Bench-Req"
)

// replica is one in-process stad-equivalent: disk cache, flight recorder,
// metrics registry, default queue and workers.
type replica struct {
	lib    *devmodel.Library
	reg    *obs.Registry
	flight *obs.FlightRecorder
	svc    *service.Server
	srv    *obs.Server
	url    string
}

// fleet is replica A (serving its tier on a cache plane) and replica B
// (reading through A's plane).
type fleet struct {
	dir      string
	reps     [2]*replica
	tier     *remotecache.Server
	cacheSrv *obs.Server
	hooks    *fleetHooks // nil when untraced
}

// fleetHooks is the traced run's timing middleware state: one timer around
// each replica's service handler and one around the cache plane.
type fleetHooks struct {
	mu      sync.Mutex
	handler [2]durStat
	get     durStat
	put     durStat
	tierN   int64
	tr      *tracer
}

type durStat struct {
	n   int64
	sum time.Duration
}

func (d *durStat) add(x time.Duration) { d.n++; d.sum += x }
func (d durStat) meanUS() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.sum) / 1e3 / float64(d.n)
}

// wrapService times replica idx's service handler.
func (h *fleetHooks) wrapService(idx int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		h.mu.Lock()
		h.handler[idx].add(end.Sub(start))
		h.mu.Unlock()
		if id := r.Header.Get(benchKeepHeader); id != "" {
			h.tr.add(span{Name: fmt.Sprintf("service.Handler replica-%c", 'a'+idx), Start: start, End: end, Parent: -1, Req: id})
		}
	})
}

// wrapTier times the cache plane's tier handler by method.
func (h *fleetHooks) wrapTier(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		h.mu.Lock()
		if r.Method == http.MethodPut {
			h.put.add(end.Sub(start))
		} else {
			h.get.add(end.Sub(start))
		}
		h.tierN++
		keep := h.tierN <= 4*keepTraced
		h.mu.Unlock()
		if keep {
			tid, _, _ := obs.ParseTraceparent(r.Header.Get("Traceparent"))
			h.tr.add(span{Name: "remotecache " + r.Method, Start: start, End: end, Parent: -1, Req: "trace:" + tid})
		}
	})
}

func (h *fleetHooks) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handler = [2]durStat{}
	h.get, h.put = durStat{}, durStat{}
}

// startReplica brings up one replica the way cmd/stad does.
func startReplica(tech *mos.Tech, dir, remote string, idx int, hooks *fleetHooks) (*replica, error) {
	r := &replica{reg: obs.NewRegistry(), flight: obs.NewFlightRecorder(), lib: devmodel.NewLibrary(tech)}
	build := obs.RegisterBuildInfo(r.reg)
	r.svc = service.New(tech, r.lib, service.Options{
		CacheDir:    dir,
		RemoteCache: remote,
		Metrics:     r.reg,
		Flight:      r.flight,
	})
	h := r.svc.Handler()
	if hooks != nil {
		h = hooks.wrapService(idx, h)
	}
	r.srv = &obs.Server{
		Registry: r.reg,
		Health:   r.svc.Healthy,
		Flight:   r.flight,
		HealthDetail: func() map[string]any {
			d := r.svc.HealthInfo()
			d["build"] = build
			return d
		},
		Extra: map[string]http.Handler{"/analyze": h, "/result/": h},
	}
	addr, err := r.srv.Start("127.0.0.1:0")
	if err != nil {
		r.svc.Close()
		r.flight.Close()
		return nil, err
	}
	r.url = "http://" + addr
	return r, nil
}

// startFleet brings up both replicas and the cache plane under a fresh
// directory of out, then sends the warm-up requests.
func startFleet(tech *mos.Tech, out string, warm []byte, hooks *fleetHooks) (*fleet, error) {
	dir, err := os.MkdirTemp(out, "fleet-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, hooks: hooks}
	a, err := startReplica(tech, dir+"/a", "", 0, hooks)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f.reps[0] = a
	f.tier = remotecache.NewServer(a.svc.TierStoreFor, a.reg)
	f.tier.Name = "replica-a"
	th := f.tier.Handler()
	if hooks != nil {
		th = hooks.wrapTier(th)
	}
	f.cacheSrv = &obs.Server{Registry: a.reg, Extra: map[string]http.Handler{"/tier/": th}}
	cacheAddr, err := f.cacheSrv.Start("127.0.0.1:0")
	if err != nil {
		f.stop()
		return nil, err
	}
	if f.reps[1], err = startReplica(tech, dir+"/b", "http://"+cacheAddr, 1, hooks); err != nil {
		f.stop()
		return nil, err
	}
	// Warm-up: A analyzes the base deck cold, B answers it off A's plane.
	for _, r := range f.reps {
		resp, err := http.Post(r.url+"/analyze", "application/json", bytes.NewReader(warm))
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.stop()
			return nil, fmt.Errorf("warm-up: HTTP %d", resp.StatusCode)
		}
	}
	http.DefaultClient.CloseIdleConnections()
	return f, nil
}

// stop tears the fleet down in dependency order: client-facing servers,
// then B (whose write-behind puts still need A's plane), then the plane and
// A, and finally the disk caches.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, r := range f.reps {
		if r != nil {
			r.srv.Shutdown(ctx)
		}
	}
	if b := f.reps[1]; b != nil {
		b.svc.Close()
		b.flight.Close()
	}
	if f.cacheSrv != nil {
		f.cacheSrv.Shutdown(ctx)
	}
	if a := f.reps[0]; a != nil {
		a.svc.Close()
		a.flight.Close()
	}
	os.RemoveAll(f.dir)
}

// snapshot sums both replicas' registries.
func (f *fleet) snapshot() obs.Snapshot {
	s := f.reps[0].reg.Snapshot()
	if err := s.Merge(f.reps[1].reg.Snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: merging replica metrics:", err)
	}
	return s
}

// fleetSample is one response kept for the post-run cold re-analysis.
type fleetSample struct {
	deck  string
	worst float64
}

// fleetAgg sums the traced fleet requests (client side) and turns them,
// with the middleware timers and the registry deltas, into per-layer
// metrics.
type fleetAgg struct {
	m  map[string]metric
	tr *tracer

	mu                    sync.Mutex
	n                     int64
	served                [2]int64
	gen, codec, rtt       time.Duration
	fresh, resub          durStat // n and Σ StagesEvaluated (in Duration units)
	replays               int64
	parse, decode, encode time.Duration
}

// fleetReq is one completed traced request as the client saw it.
type fleetReq struct {
	i                            int64
	id, deck                     string
	replica                      int
	keep, fresh                  bool
	g0, start, encoded, got, end time.Time
	body                         []byte
	resp                         v1.AnalyzeResponse
}

// runFleet drives two replicas in one process, round-robin from two client
// connections, half fresh variants and half resubmissions.
func runFleet(p params) (*report, error) {
	tech := mos.CMOSP35()
	probe, err := newFleetGen(tech, p.seed, 0)
	if err != nil {
		return nil, err
	}
	warm, err := json.Marshal(probe.wireRequest("warm-up", probe.baseDeck()))
	if err != nil {
		return nil, err
	}

	var (
		mu      sync.Mutex
		note    string
		samples []fleetSample
	)
	fail := func(msg string) {
		mu.Lock()
		if note == "" {
			note = msg
		}
		mu.Unlock()
	}

	phase := func(f *fleet, tr *tracer, agg *fleetAgg) (*outcome, error) {
		var gens [fleetClients]*fleetGen
		var clients [fleetClients]*http.Client
		for c := range gens {
			g, err := newFleetGen(tech, p.seed, c)
			if err != nil {
				return nil, err
			}
			gens[c] = g
			clients[c] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
		}
		defer func() {
			for _, c := range clients {
				c.CloseIdleConnections()
			}
		}()
		op := func(c int, i int64) (time.Duration, bool) {
			g0 := time.Now()
			deck, fresh := gens[c].request()
			id := fmt.Sprintf("c%d-%d", c, i)
			wire := gens[c].wireRequest(id, deck)
			start := time.Now()
			body, err := json.Marshal(wire)
			if err != nil {
				fail(err.Error())
				return time.Since(start), false
			}
			encoded := time.Now()
			target := f.reps[(c+int(i))%2]
			req, err := http.NewRequest(http.MethodPost, target.url+"/analyze", bytes.NewReader(body))
			if err != nil {
				fail(err.Error())
				return time.Since(start), false
			}
			req.Header.Set("Content-Type", "application/json")
			keep := tr.keep(i)
			if keep {
				req.Header.Set(benchKeepHeader, id)
			}
			resp, err := clients[c].Do(req)
			if err != nil {
				fail(fmt.Sprintf("%s: %v", id, err))
				return time.Since(start), false
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			got := time.Now()
			var ar v1.AnalyzeResponse
			if err == nil {
				err = json.Unmarshal(data, &ar)
			}
			end := time.Now()
			lat := end.Sub(start)
			switch {
			case err != nil:
				fail(fmt.Sprintf("%s: %v", id, err))
				return lat, false
			case resp.StatusCode != http.StatusOK || ar.Status != v1.StatusOK || ar.Result == nil:
				fail(fmt.Sprintf("%s: HTTP %d status %q", id, resp.StatusCode, ar.Status))
				return lat, false
			case !ar.Result.Diagnostics.Healthy:
				fail(fmt.Sprintf("%s: unhealthy: %s", id, ar.Result.Diagnostics.Summary))
				return lat, false
			}
			if tr == nil && subSeed(p.seed, 3, int64(c), i)%fleetSampleEvery == 0 {
				mu.Lock()
				if len(samples) < fleetSampleCap {
					samples = append(samples, fleetSample{deck: deck, worst: ar.Result.WorstArrival})
				}
				mu.Unlock()
			}
			if tr != nil {
				agg.add(fleetReq{
					i: i, id: id, deck: deck, replica: (c + int(i)) % 2, keep: keep, fresh: fresh,
					g0: g0, start: start, encoded: encoded, got: got, end: end, body: body, resp: ar,
				})
			}
			return lat, true
		}
		before := f.snapshot()
		if f.hooks != nil {
			f.hooks.reset()
		}
		tierBefore := f.tier.Stats()
		o := closedLoop(fleetClients, p.seconds, newHeapProbe(fleetHeapAt, fleetHeapAt2), op)
		if agg != nil {
			agg.finish(f, before, tierBefore)
		}
		return o, nil
	}

	f, setupDurs, err := timedSetups(setupRuns, func() (*fleet, error) {
		return startFleet(tech, p.out, warm, nil)
	}, (*fleet).stop)
	if err != nil {
		return nil, err
	}
	untraced, err := phase(f, nil, nil)
	f.stop()
	if err != nil {
		return nil, err
	}
	summarize("service-fleet", untraced)

	// Post-run check: a seeded sample re-analyzed on a cold analyzer.
	checkLib := devmodel.NewLibrary(tech)
	worstDev := 0.0
	for _, s := range samples {
		deck, err := netlist.ParseString(s.deck)
		if err != nil {
			fail(fmt.Sprintf("re-parse: %v", err))
			continue
		}
		res, err := sta.New(tech, checkLib).AnalyzeContext(context.Background(), sta.Request{Netlist: deck.Netlist, Outputs: probe.outputs})
		if err != nil {
			fail(fmt.Sprintf("cold re-analysis: %v", err))
			continue
		}
		dev := 100 * math.Abs(s.worst-res.WorstArrival) / res.WorstArrival
		worstDev = max(worstDev, dev)
		if dev > fleetTolPct {
			fail(fmt.Sprintf("worst arrival %.6g s vs cold %.6g s (%.3f %% > %.1f %%)", s.worst, res.WorstArrival, dev, fleetTolPct))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: service-fleet: %d sampled responses re-analyzed cold, worst deviation %.4f %% (tolerance %.1f %%)\n",
		len(samples), worstDev, fleetTolPct)

	rep := &report{untraced: untraced, e2e: endToEnd(untraced, setupDurs)}
	if !p.traced {
		rep.correct = note == "" && untraced.failed == 0 && len(samples) > 0
		rep.checkNote = note
		return rep, nil
	}

	tr := newTracer()
	hooks := &fleetHooks{tr: tr}
	tf, err := startFleet(tech, p.out, warm, hooks)
	if err != nil {
		return nil, err
	}
	m := emptyLayers()
	agg := &fleetAgg{m: m, tr: tr}
	traced, err := phase(tf, tr, agg)
	tf.stop()
	if err != nil {
		return nil, err
	}
	rep.correct = note == "" && untraced.failed == 0 && traced.failed == 0 && len(samples) > 0
	rep.checkNote = note

	// Characterization and engine shape, measured apart from the fleet: the
	// replicas characterize lazily inside their warm-up requests.
	var charDurs []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		if _, err := bench.NewHarness(tech); err != nil {
			return nil, err
		}
		charDurs = append(charDurs, time.Since(start).Seconds())
	}
	m["devmodel.characterize_ms"] = metric{1e3 * median(charDurs), "ms"}
	base, err := netlist.ParseString(probe.baseDeck())
	if err != nil {
		return nil, err
	}
	ob := &coldObserver{}
	if _, err := sta.New(tech, checkLib).AnalyzeContext(context.Background(), sta.Request{Netlist: base.Netlist, Outputs: probe.outputs, Observer: ob}); err != nil {
		return nil, err
	}
	m["sta.levels_per_op"] = metric{float64(ob.start.Levels), "count"}
	m["sta.level_width_mean"] = metric{float64(ob.start.Items) / float64(max(ob.start.Levels, 1)), "count"}
	if note := commonLayers(m, untraced, traced, tr, tracePath(p, "service-fleet")); note != "" {
		rep.fail(note)
	}
	rep.perLayer = m
	return rep, nil
}

// add records one traced request. Replays of the parse and codec calls run
// after the request completed, outside its latency.
func (g *fleetAgg) add(q fleetReq) {
	var parse, decode, encode time.Duration
	replay := q.i%fleetReplayEvery == 0
	if replay {
		t0 := time.Now()
		_, perr := netlist.ParseString(q.deck)
		t1 := time.Now()
		var req v1.AnalyzeRequest
		derr := json.Unmarshal(q.body, &req)
		t2 := time.Now()
		_, eerr := json.Marshal(q.resp)
		t3 := time.Now()
		replay = perr == nil && derr == nil && eerr == nil
		parse, decode, encode = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	}
	g.mu.Lock()
	g.n++
	g.served[q.replica]++
	g.gen += q.start.Sub(q.g0)
	g.codec += q.encoded.Sub(q.start) + q.end.Sub(q.got)
	g.rtt += q.got.Sub(q.encoded)
	if q.fresh {
		g.fresh.add(time.Duration(q.resp.Result.StagesEvaluated))
	} else {
		g.resub.add(time.Duration(q.resp.Result.StagesEvaluated))
	}
	if replay {
		g.replays++
		g.parse += parse
		g.decode += decode
		g.encode += encode
	}
	g.mu.Unlock()
	if q.keep {
		root := g.tr.add(span{Name: "client.request", Start: q.start, End: q.end, Parent: -1, Req: q.id})
		g.tr.add(span{Name: "v1.encode (client)", Start: q.start, End: q.encoded, Parent: root, Req: q.id})
		g.tr.add(span{Name: "http.rtt", Start: q.encoded, End: q.got, Parent: root, Req: q.id})
		g.tr.add(span{Name: "v1.decode (client)", Start: q.got, End: q.end, Parent: root, Req: q.id})
	}
}

// finish computes the fleet's per-layer metrics for the phase and charges
// each layer's self time. The layers tile the client latency: client codec
// + transport (rtt − handler) + the handler's parse, codec and analyze
// shares + the rest of the handler (queueing, pool, response writing).
func (g *fleetAgg) finish(f *fleet, before obs.Snapshot, tierBefore remotecache.ServerStats) {
	after := f.snapshot()
	ts := f.tier.Stats()
	dc := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	dh := func(name string) (sum, n float64) {
		a, b := after.Histograms[name], before.Histograms[name]
		return a.Sum - b.Sum, float64(a.Count - b.Count)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	h := f.hooks
	h.mu.Lock()
	handler := h.handler
	get, put := h.get, h.put
	h.mu.Unlock()
	m := g.m
	n := float64(g.n)
	handlerSum := handler[0].sum + handler[1].sum
	m["client.gen_us"] = metric{ratio(us(g.gen), n), "us"}
	m["http.rtt_ms"] = metric{ratio(us(g.rtt), n) / 1e3, "ms"}
	m["service.handler_ms"] = metric{ratio(us(handlerSum), float64(handler[0].n+handler[1].n)) / 1e3, "ms"}
	m["service.handler_a_ms"] = metric{handler[0].meanUS() / 1e3, "ms"}
	m["service.handler_b_ms"] = metric{handler[1].meanUS() / 1e3, "ms"}
	m["http.transport_ms"] = metric{ratio(us(g.rtt-handlerSum), n) / 1e3, "ms"}
	reps := float64(g.replays)
	m["netlist.parse_us"] = metric{ratio(us(g.parse), reps), "us"}
	m["v1.decode_us"] = metric{ratio(us(g.decode), reps), "us"}
	m["v1.encode_us"] = metric{ratio(us(g.encode), reps), "us"}

	gets, hits := float64(ts.Gets-tierBefore.Gets), float64(ts.Hits-tierBefore.Hits)
	m["remotecache.get_us"] = metric{get.meanUS(), "us"}
	m["remotecache.put_us"] = metric{put.meanUS(), "us"}
	m["remotecache.gets_per_req"] = metric{ratio(gets, float64(g.served[1])), "count"}
	m["remotecache.hit_pct"] = metric{100 * ratio(hits, gets), "%"}
	dHits, dMiss := dc("sta/disk/hits"), dc("sta/disk/misses")
	m["diskcache.hit_pct"] = metric{100 * ratio(dHits, dHits+dMiss), "%"}
	m["diskcache.puts_per_req"] = metric{ratio(dc("sta/disk/puts"), n), "count"}
	m["diskcache.drops"] = metric{dc("sta/disk/dropped"), "count"}
	m["sta.stages_evaluated_per_req_fresh"] = metric{ratio(float64(g.fresh.sum), float64(g.fresh.n)), "count"}
	m["sta.stages_evaluated_per_req_resubmit"] = metric{ratio(float64(g.resub.sum), float64(g.resub.n)), "count"}
	m["sta.stages_evaluated_per_op"] = metric{ratio(float64(g.fresh.sum+g.resub.sum), n), "count"}

	cHits, cMiss := dc("sta/cache_hits"), dc("sta/cache_misses")
	anSum, anN := dh(sta.MetricAnalyzeSeconds)
	evSum, _ := dh(sta.MetricEvalSeconds)
	nr := dc("sta/qwm_nr_iters")
	m["sta.cache_hit_pct"] = metric{100 * ratio(cHits, cHits+cMiss), "%"}
	m["sta.degraded_per_op"] = metric{ratio(dc("sta/degraded"), n), "count"}
	m["sta.analyze_ms"] = metric{1e3 * ratio(anSum, anN), "ms"}
	m["sta.eval_share_pct"] = metric{100 * ratio(evSum, anSum), "%"}
	m["sta.engine_self_ms"] = metric{1e3 * ratio(max(0, anSum-evSum), anN), "ms"}
	m["sta.worker_busy_pct"] = metric{100 * ratio(evSum, anSum*float64(runtime.GOMAXPROCS(0))), "%"}
	m["qwm.evaluate_us"] = metric{1e6 * ratio(evSum, cMiss), "us"}
	m["qwm.ns_per_nr_iter"] = metric{1e9 * ratio(evSum, nr), "ns"}
	m["qwm.nr_iters_per_op"] = metric{ratio(nr, n), "count"}
	m["qwm.regions_per_op"] = metric{ratio(dc("sta/qwm_regions"), n), "count"}
	m["qwm.dense_fallbacks_per_op"] = metric{ratio(dc("sta/qwm_dense_fallbacks"), n), "count"}
	m["qwm.cap_resolves_per_op"] = metric{ratio(dc("sta/qwm_cap_resolves"), n), "count"}

	perReq := func(d time.Duration) time.Duration {
		if g.replays == 0 {
			return 0
		}
		return time.Duration(float64(d) / reps * n)
	}
	analyze := time.Duration(anSum * float64(time.Second))
	v1c, parse := perReq(g.decode+g.encode), perReq(g.parse)
	g.tr.addTotals(map[string]time.Duration{
		"client.codec":   g.codec,
		"http.transport": g.rtt - handlerSum,
		"v1.codec":       v1c,
		"netlist.parse":  parse,
		"sta.analyze":    analyze,
		"service.other":  handlerSum - analyze - v1c - parse,
	}, g.n)
}
