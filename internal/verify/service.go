package verify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"qwm/internal/api/v1"
	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/obs"
	"qwm/internal/service"
	"qwm/internal/sta"
	"qwm/internal/stages"
)

// ServiceConfig parameterizes the service-path differential: the same
// workload is pushed through the HTTP/JSON front door (internal/service) and
// through the engine directly, and the two must agree bit for bit. The sweep
// also gates the disk tier's restart guarantee and the chaos contract as
// seen through the wire.
type ServiceConfig struct {
	// Seed drives the chaos injectors (identical seeds reproduce identical
	// wire-level chaos responses).
	Seed int64
	// Workers is the per-analyzer worker count used on both sides of the
	// direct-vs-service comparison (default 4).
	Workers int
	// Bits sizes the decoder workload (default 3: an 8-output decoder).
	Bits int
	// CacheDir roots the persistent tier for the restart cell; "" uses a
	// temporary directory removed when the sweep finishes.
	CacheDir string
	// Progress, when set, receives one line per completed cell.
	Progress func(format string, args ...any)
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Bits <= 0 {
		c.Bits = 3
	}
	return c
}

// ServiceCell is one gated service-path experiment.
type ServiceCell struct {
	Name string `json:"name"`
	// Problems lists every violated invariant; empty means the cell passed.
	Problems []string `json:"problems,omitempty"`
	Pass     bool     `json:"pass"`
}

// ServiceReport aggregates the service-path sweep.
type ServiceReport struct {
	SchemaVersion string        `json:"schema_version"`
	Seed          int64         `json:"seed"`
	Cells         []ServiceCell `json:"cells"`
	// DiskHitRate is the restart cell's warm-disk hit rate (the acceptance
	// bar is 0.9).
	DiskHitRate float64 `json:"disk_hit_rate"`
	Failures    int     `json:"failures"`
	Pass        bool    `json:"pass"`
}

// JSON renders the report.
func (r *ServiceReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// postAnalyze drives one request through the full wire path: JSON encode,
// HTTP handler, JSON response. The HTTP layer is exercised for real — this
// is the differential's point — just without a TCP listener.
func postAnalyze(h http.Handler, req any) (int, []byte) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

func decodeResponse(body []byte) (v1.AnalyzeResponse, error) {
	var resp v1.AnalyzeResponse
	err := json.Unmarshal(body, &resp)
	return resp, err
}

// okResult decodes body and returns its result, appending a problem (and
// returning nil) when the response is not a healthy 200/ok envelope.
func okResult(label string, code int, body []byte, problems *[]string) *v1.AnalyzeResult {
	if code != http.StatusOK {
		*problems = append(*problems, fmt.Sprintf("%s: HTTP %d: %s", label, code, body))
		return nil
	}
	resp, err := decodeResponse(body)
	if err != nil {
		*problems = append(*problems, fmt.Sprintf("%s: undecodable response: %v", label, err))
		return nil
	}
	if resp.Status != v1.StatusOK || resp.Result == nil {
		*problems = append(*problems, fmt.Sprintf("%s: status %q, error %+v", label, resp.Status, resp.Error))
		return nil
	}
	return resp.Result
}

// sameArrivals appends a problem for every net where two wire-level arrival
// maps differ by even one bit.
func sameArrivals(label string, ref, got map[string]v1.Arrival, problems []string) []string {
	if len(ref) != len(got) {
		problems = append(problems, fmt.Sprintf("%s: %d nets, want %d", label, len(got), len(ref)))
	}
	for _, net := range sortedNets(ref) {
		ra := ref[net]
		ga, ok := got[net]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: net %s missing", label, net))
			continue
		}
		if ga != ra {
			problems = append(problems, fmt.Sprintf("%s: net %s arrival %+v, want %+v", label, net, ga, ra))
		}
	}
	return problems
}

// RunService executes the service-path sweep: direct-vs-wire bit identity,
// warm-disk restart, and the chaos contract through the front door.
func RunService(cfg ServiceConfig) (*ServiceReport, error) {
	cfg = cfg.withDefaults()
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)

	nl, _, outs, err := stages.DecoderNetlist(tech, cfg.Bits, 1e-6, 10e-15)
	if err != nil {
		return nil, fmt.Errorf("verify: decoder workload: %w", err)
	}
	deck := netlist.Format(&netlist.Deck{Title: "* verify service decoder", Netlist: nl})

	cacheDir := cfg.CacheDir
	if cacheDir == "" {
		dir, err := os.MkdirTemp("", "qwm-verify-service-")
		if err != nil {
			return nil, fmt.Errorf("verify: cache dir: %w", err)
		}
		defer os.RemoveAll(dir)
		cacheDir = dir
	}

	rep := &ServiceReport{SchemaVersion: v1.SchemaVersion, Seed: cfg.Seed}
	add := func(cell ServiceCell) {
		cell.Pass = len(cell.Problems) == 0
		rep.Cells = append(rep.Cells, cell)
		if !cell.Pass {
			rep.Failures++
		}
		if cfg.Progress != nil {
			mark := "ok"
			if !cell.Pass {
				mark = "FAIL " + cell.Problems[0]
			}
			cfg.Progress("service %s: %s", cell.Name, mark)
		}
	}

	req := v1.AnalyzeRequest{
		SchemaVersion: v1.SchemaVersion,
		Netlist:       deck,
		Outputs:       outs,
		FullArrivals:  true,
	}

	add(runServiceDirectCell(tech, lib, outs, req, cfg))
	restart, hitRate := runServiceRestartCell(tech, lib, cacheDir, req, cfg)
	rep.DiskHitRate = hitRate
	add(restart)
	add(runServiceChaosCell("chaos-cache-stall", req, cfg, true))
	add(runServiceChaosCell("chaos-budget-exhaustion", req, cfg, false))
	add(runServiceTraceCell(tech, lib, req, cfg))

	rep.Pass = rep.Failures == 0
	return rep, nil
}

// runServiceDirectCell gates wire transparency: the HTTP/JSON round trip
// must not perturb a single bit of any arrival relative to calling the
// engine in-process with the same configuration. Go's JSON encoder emits the
// shortest float64 representation that round-trips exactly, so bit equality
// through the wire is a meaningful demand, not a flaky one.
func runServiceDirectCell(tech *mos.Tech, lib *devmodel.Library, outs []string, req v1.AnalyzeRequest, cfg ServiceConfig) ServiceCell {
	cell := ServiceCell{Name: "direct-vs-service"}

	// The direct run analyzes the SAME parsed deck the service sees — the
	// deck text is the shared input; what is under test is everything the
	// service adds on top of the parse (queue, pool, JSON round trip).
	deck, err := netlist.ParseString(req.Netlist)
	if err != nil {
		cell.Problems = append(cell.Problems, "deck parse failed: "+err.Error())
		return cell
	}
	direct := sta.New(tech, lib, sta.Config{Workers: cfg.Workers})
	canon := make([]string, len(outs))
	for i, o := range outs {
		canon[i] = circuit.CanonName(o)
	}
	res, err := direct.AnalyzeContext(nil, sta.Request{Netlist: deck.Netlist, Outputs: canon})
	if err != nil {
		cell.Problems = append(cell.Problems, "direct engine run failed: "+err.Error())
		return cell
	}

	s := service.New(tech, lib, service.Options{AnalyzerWorkers: cfg.Workers})
	defer s.Close()
	code, body := postAnalyze(s.Handler(), req)
	wire := okResult("service run", code, body, &cell.Problems)
	if wire == nil {
		return cell
	}

	ref := v1.FromResult(res, canon, true)
	if wire.WorstArrival != ref.WorstArrival || wire.WorstOutput != ref.WorstOutput {
		cell.Problems = append(cell.Problems,
			fmt.Sprintf("worst path (%s, %.17g) via service, (%s, %.17g) direct",
				wire.WorstOutput, wire.WorstArrival, ref.WorstOutput, ref.WorstArrival))
	}
	if wire.StagesEvaluated != ref.StagesEvaluated {
		cell.Problems = append(cell.Problems,
			fmt.Sprintf("service evaluated %d stages, direct %d", wire.StagesEvaluated, ref.StagesEvaluated))
	}
	cell.Problems = sameArrivals("outputs", ref.Outputs, wire.Outputs, cell.Problems)
	cell.Problems = sameArrivals("arrivals", ref.Arrivals, wire.Arrivals, cell.Problems)
	if wire.Diagnostics.Healthy != ref.Diagnostics.Healthy {
		cell.Problems = append(cell.Problems, "service and direct disagree on health")
	}
	return cell
}

// runServiceRestartCell gates the persistence contract: a NEW server process
// over the same cache directory answers bit-identically to the warm-memory
// run of the old process, evaluating nothing and hitting disk >= 90 %.
func runServiceRestartCell(tech *mos.Tech, lib *devmodel.Library, cacheDir string, req v1.AnalyzeRequest, cfg ServiceConfig) (ServiceCell, float64) {
	cell := ServiceCell{Name: "restart-warm-disk"}

	s1 := service.New(tech, lib, service.Options{CacheDir: cacheDir, AnalyzerWorkers: cfg.Workers})
	h1 := s1.Handler()
	code, body := postAnalyze(h1, req)
	cold := okResult("cold run", code, body, &cell.Problems)
	warmCode, warmBody := postAnalyze(h1, req)
	warmMem := okResult("warm-memory run", warmCode, warmBody, &cell.Problems)
	if err := s1.Close(); err != nil {
		cell.Problems = append(cell.Problems, "first server close: "+err.Error())
	}
	if cold == nil || warmMem == nil {
		return cell, 0
	}
	if cold.StagesEvaluated == 0 {
		cell.Problems = append(cell.Problems, "cold run evaluated nothing — the disk tier was never populated")
	}

	reg := obs.NewRegistry()
	s2 := service.New(tech, lib, service.Options{CacheDir: cacheDir, AnalyzerWorkers: cfg.Workers, Metrics: reg})
	defer s2.Close()
	code2, diskBody := postAnalyze(s2.Handler(), req)
	warmDisk := okResult("warm-disk run", code2, diskBody, &cell.Problems)
	if warmDisk == nil {
		return cell, 0
	}

	// Bit identity at the transport level: the restarted replica's response
	// bytes equal the warm-memory response bytes.
	if !bytes.Equal(warmBody, diskBody) {
		cell.Problems = append(cell.Problems, "warm-disk response bytes differ from warm-memory response")
	}
	if warmDisk.StagesEvaluated != 0 {
		cell.Problems = append(cell.Problems,
			fmt.Sprintf("warm-disk run evaluated %d stages, want 0", warmDisk.StagesEvaluated))
	}

	snap := reg.Snapshot()
	hits, misses := snap.Counters["sta/disk/hits"], snap.Counters["sta/disk/misses"]
	var rate float64
	if total := hits + misses; total > 0 {
		rate = float64(hits) / float64(total)
	}
	if rate < 0.9 {
		cell.Problems = append(cell.Problems,
			fmt.Sprintf("warm-disk hit rate %.3f (%d hits, %d misses), want >= 0.9", rate, hits, misses))
	}
	return cell, rate
}

// runServiceTraceCell gates the tracing determinism contract through the
// front door: the same traced request, analyzed on fresh replicas at engine
// workers 1 and 8, must export byte-identical DETERMINISTIC traces (semantic
// span IDs plus the (Level, Item, ID) sort make scheduling invisible), and
// the response envelope must carry the trace id that retrieves the trace.
func runServiceTraceCell(tech *mos.Tech, lib *devmodel.Library, req v1.AnalyzeRequest, cfg ServiceConfig) ServiceCell {
	cell := ServiceCell{Name: "trace-deterministic"}
	export := func(workers int) []byte {
		fl := obs.NewFlightRecorder()
		defer fl.Close()
		s := service.New(tech, lib, service.Options{AnalyzerWorkers: workers, Flight: fl})
		defer s.Close()
		code, body := postAnalyze(s.Handler(), req)
		label := fmt.Sprintf("traced run (workers=%d)", workers)
		if okResult(label, code, body, &cell.Problems) == nil {
			return nil
		}
		resp, _ := decodeResponse(body) // okResult already proved decodability
		if resp.TraceID == "" {
			cell.Problems = append(cell.Problems, label+": envelope carries no trace_id")
			return nil
		}
		rt := fl.Get(resp.TraceID)
		if rt == nil {
			cell.Problems = append(cell.Problems, label+": flight recorder did not retain trace "+resp.TraceID)
			return nil
		}
		b, err := rt.ChromeJSON(true)
		if err != nil {
			cell.Problems = append(cell.Problems, label+": deterministic export: "+err.Error())
			return nil
		}
		return b
	}
	one := export(1)
	eight := export(8)
	if one == nil || eight == nil {
		return cell
	}
	if !bytes.Equal(one, eight) {
		cell.Problems = append(cell.Problems, "deterministic trace export differs between engine workers 1 and 8")
	}
	return cell
}

// runServiceChaosCell gates the chaos contract through the front door: the
// faulted response is deterministic (same request => same bytes), and either
// bit-equal to the clean response (recoverable classes, recoverable=true) or
// conservative and visibly degraded (degrading classes).
func runServiceChaosCell(name string, req v1.AnalyzeRequest, cfg ServiceConfig, recoverable bool) ServiceCell {
	cell := ServiceCell{Name: name}
	class := "cache-stall"
	if !recoverable {
		class = "budget-exhaustion"
	}

	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	s := service.New(tech, lib, service.Options{AnalyzerWorkers: cfg.Workers})
	defer s.Close()
	h := s.Handler()

	// Warm the pooled analyzer first, then take a WARM clean baseline: a
	// warm response reports stages_evaluated 0, so the post-chaos isolation
	// probe below can demand byte identity.
	if code, body := postAnalyze(h, req); code != http.StatusOK {
		cell.Problems = append(cell.Problems, fmt.Sprintf("warmup run: HTTP %d: %s", code, body))
		return cell
	}
	code, cleanBody := postAnalyze(h, req)
	clean := okResult("clean run", code, cleanBody, &cell.Problems)
	if clean == nil {
		return cell
	}
	if !clean.Diagnostics.Healthy {
		cell.Problems = append(cell.Problems, "clean service run reports unhealthy")
	}

	chaosReq := req
	chaosReq.Chaos = &v1.Chaos{Seed: cfg.Seed, Classes: []string{class}}
	c1, b1 := postAnalyze(h, chaosReq)
	c2, b2 := postAnalyze(h, chaosReq)
	if !bytes.Equal(b1, b2) || c1 != c2 {
		cell.Problems = append(cell.Problems, "chaos responses differ across identical requests (determinism)")
	}
	faulted := okResult("faulted run", c1, b1, &cell.Problems)
	if faulted == nil {
		return cell
	}

	if recoverable {
		// Latency-only fault: the wire result must be bit-equal to clean.
		cell.Problems = sameArrivals("recoverable class", clean.Arrivals, faulted.Arrivals, cell.Problems)
		if !faulted.Diagnostics.Healthy {
			cell.Problems = append(cell.Problems, "recoverable class degraded the analysis")
		}
	} else {
		// Degrading fault: visible in diagnostics, and every arrival stays
		// conservative (never earlier than clean).
		if faulted.Diagnostics.Healthy {
			cell.Problems = append(cell.Problems, "degrading class at rate 1 reported healthy")
		}
		for _, net := range sortedNets(clean.Arrivals) {
			ref := clean.Arrivals[net]
			got, ok := faulted.Arrivals[net]
			if !ok {
				cell.Problems = append(cell.Problems, fmt.Sprintf("completeness: net %s missing from faulted arrivals", net))
				continue
			}
			if got.Rise < ref.Rise*(1-conservativeEps) || got.Fall < ref.Fall*(1-conservativeEps) {
				cell.Problems = append(cell.Problems,
					fmt.Sprintf("conservatism: net %s faulted arrival (r %.6g, f %.6g) below clean (r %.6g, f %.6g)",
						net, got.Rise, got.Fall, ref.Rise, ref.Fall))
			}
		}
	}

	// Isolation: a clean request after the chaos traffic must still be
	// byte-identical to the original clean response — chaos must never
	// poison the pooled analyzer.
	c3, after := postAnalyze(h, req)
	if c3 != http.StatusOK || !bytes.Equal(after, cleanBody) {
		cell.Problems = append(cell.Problems, "clean response changed after chaos traffic (pool poisoned)")
	}
	return cell
}
