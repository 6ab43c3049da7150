package verify

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"qwm/internal/api/v1"
	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/faultinject"
	"qwm/internal/mos"
	"qwm/internal/reduce"
	"qwm/internal/sta"
	"qwm/internal/stages"
)

// ECOConfig parameterizes the randomized edit-sequence differential: a
// netlist is mutated step by step (transistor resizes, load changes, buffer
// insertions) and after every edit the persistent incremental analyzers —
// serial and parallel — are checked bit-for-bit against the from-scratch
// schedule, across the feature matrix (plain, memo, interp, reduce, and a
// rate-1 NR-divergence chaos class that forces the spice tier). Each step
// also gates dirty-cone minimality: the incremental run may not re-evaluate
// more stages than the edit's structural fanout closure, and a no-op re-run
// must re-evaluate nothing.
//
// The from-scratch reference is a PERSISTENT non-incremental analyzer
// running the same edit sequence, not a fresh analyzer per step. Raw
// (non-memo) delay-cache entries are keyed by 5 ps slew bucket but evaluated
// at the first-seen exact slew, so any warm re-analysis — incremental or not
// — can differ from a cold analyzer in low-order bits when an edit moves a
// slew within its bucket; that is a property of the cache, present since
// before ECO existed. Holding the reference's cache history identical to the
// incremental analyzers' isolates exactly what this sweep must prove: the
// Incremental flag changes scheduling only, never results. Memo-mode entries
// are pure functions of their key (bucket-floor snap / boundary interp), so
// memo variants are additionally checked against a cold per-step analyzer.
type ECOConfig struct {
	// Seed drives the edit sequence; identical seeds reproduce identical
	// sweeps.
	Seed int64
	// Edits is the number of mutation steps per (workload, variant)
	// sequence (default 6).
	Edits int
	// Workers is the parallel incremental analyzer's worker count checked
	// against the serial one (default 8).
	Workers int
	// Progress, when set, receives one line per completed step.
	Progress func(format string, args ...any)
}

func (c ECOConfig) withDefaults() ECOConfig {
	if c.Edits <= 0 {
		c.Edits = 6
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// ECOStep is the outcome of one edit step.
type ECOStep struct {
	Edit string `json:"edit"`
	// Dirty/Skipped/EarlyStops are the serial incremental run's ECO stats;
	// ConeBound is the structural fanout-closure size the dirty count is
	// gated against.
	Dirty      int `json:"dirty"`
	Skipped    int `json:"skipped"`
	EarlyStops int `json:"early_stops"`
	ConeBound  int `json:"cone_bound"`
}

// ECOSequence is one (workload, variant) edit sequence.
type ECOSequence struct {
	Workload string    `json:"workload"`
	Variant  string    `json:"variant"`
	Steps    []ECOStep `json:"steps"`
	Problems []string  `json:"problems,omitempty"`
	Pass     bool      `json:"pass"`
}

// ECOReport aggregates an ECO sweep.
type ECOReport struct {
	SchemaVersion string        `json:"schema_version"`
	Seed          int64         `json:"seed"`
	Workers       int           `json:"workers"`
	Sequences     []ECOSequence `json:"sequences"`
	Failures      int           `json:"failures"`
	Pass          bool          `json:"pass"`
}

// JSON renders the report.
func (r *ECOReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// ecoVariant is one feature configuration of the sweep matrix.
type ecoVariant struct {
	name string
	red  reduce.Config
	memo sta.MemoConfig
	// chaos arms a rate-1 NR-divergence injector on every analysis, forcing
	// each evaluation down to the spice tier — the cross-member/replay shape
	// that exposed the PR 6 TierSpice canonicalization residual.
	chaos bool
}

func ecoVariants() []ecoVariant {
	return []ecoVariant{
		{name: "plain"},
		{name: "memo", memo: sta.MemoConfig{Enabled: true}},
		{name: "interp", memo: sta.MemoConfig{Enabled: true, Interp: true}},
		{name: "reduce", red: reduce.Config{Enabled: true}},
		{name: "chaos-divergence", memo: sta.MemoConfig{Enabled: true}, chaos: true},
	}
}

// ecoWorkload builds one editable netlist case by name.
func ecoWorkload(tech *mos.Tech, name string) (*AnalyzeCase, error) {
	var (
		nl   *circuit.Netlist
		ins  []string
		outs []string
		err  error
	)
	switch name {
	case "decoder":
		nl, ins, outs, err = stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	case "wide":
		nl, ins, outs, err = stages.WideNetlist(tech, 4, 6, 1e-6, 10e-15)
	default:
		err = fmt.Errorf("unknown eco workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	primary := map[string]sta.Arrival{}
	for _, in := range ins {
		primary[in] = sta.Arrival{}
	}
	return &AnalyzeCase{Name: name, Netlist: nl, Primary: primary, Outputs: outs}, nil
}

// ecoEdit mutates the netlist in place and returns a label plus the seed
// nets whose stages the edit can structurally touch (device channel nodes,
// moved gate loads, new buffer nets). The seed nets feed the fanout-closure
// bound the dirty count is checked against.
func ecoEdit(nl *circuit.Netlist, r *rand.Rand, tech *mos.Tech, step int) (string, []string) {
	switch r.Intn(3) {
	case 0: // resize
		t := nl.Transistors[r.Intn(len(nl.Transistors))]
		f := 0.7 + 0.8*r.Float64()
		t.W *= f
		return fmt.Sprintf("resize %s x%.3f", t.Name, f),
			[]string{t.Drain, t.Source, t.Gate}
	case 1: // load change
		if len(nl.Capacitors) == 0 {
			return "load-noop", nil
		}
		c := nl.Capacitors[r.Intn(len(nl.Capacitors))]
		f := 0.8 + 0.8*r.Float64()
		c.C *= f
		return fmt.Sprintf("load %s x%.3f", c.Name, f), []string{c.A}
	default: // buffer insert: g -> inv -> inv -> t.Gate
		t := nl.Transistors[r.Intn(len(nl.Transistors))]
		g := t.Gate
		b1 := fmt.Sprintf("eb%d_1", step)
		b2 := fmt.Sprintf("eb%d_2", step)
		addInv := func(in, out string, i int) {
			nl.AddTransistor(&circuit.Transistor{
				Name: fmt.Sprintf("mne%d_%d", step, i), Kind: circuit.KindNMOS,
				Drain: out, Gate: in, Source: "0", Body: "0", W: 1e-6, L: tech.LMin,
			})
			nl.AddTransistor(&circuit.Transistor{
				Name: fmt.Sprintf("mpe%d_%d", step, i), Kind: circuit.KindPMOS,
				Drain: out, Gate: in, Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin,
			})
		}
		addInv(g, b1, 0)
		addInv(b1, b2, 1)
		t.Gate = b2
		return fmt.Sprintf("buffer %s: %s -> %s", t.Name, g, b2),
			[]string{g, b1, b2, t.Drain, t.Source}
	}
}

// coneBound computes the structural fanout closure of the seed nets: every
// stage owning or loading a seed net, plus everything transitively
// downstream. The incremental run must not re-evaluate more stages than
// this (it may re-evaluate fewer — epsilon-free runs still early-stop when
// an arrival reproduces bitwise).
func coneBound(nl *circuit.Netlist, outs []string, seeds []string) int {
	sts := circuit.ExtractStages(nl, outs)
	seed := map[string]bool{}
	for _, s := range seeds {
		seed[circuit.CanonName(s)] = true
	}
	producer := map[string]int{}
	for i, st := range sts {
		for _, o := range st.Outputs {
			producer[o] = i
		}
	}
	dirty := make([]bool, len(sts))
	for i, st := range sts {
		for _, nd := range st.Nodes {
			if seed[nd] {
				dirty[i] = true
			}
		}
	}
	// Transitive fanout: iterate to fixpoint (stage count is small).
	for changed := true; changed; {
		changed = false
		for i, st := range sts {
			if dirty[i] {
				continue
			}
			for _, in := range st.Inputs {
				if p, ok := producer[in]; ok && dirty[p] {
					dirty[i], changed = true, true
					break
				}
			}
		}
	}
	n := 0
	for _, d := range dirty {
		if d {
			n++
		}
	}
	return n
}

// ecoAnalyzer builds one persistent analyzer for a variant; chaos variants
// arm a rate-1 NR-divergence injector seeded with seed.
func ecoAnalyzer(tech *mos.Tech, lib *devmodel.Library, v ecoVariant, workers int, seed int64) *sta.Analyzer {
	cfg := sta.Config{Workers: workers, Reduction: v.red, Memo: v.memo}
	if v.chaos {
		cfg.FaultPlan = faultinject.New(seed).Enable(faultinject.NRDivergence, 1)
	}
	return sta.New(tech, lib, cfg)
}

// runECOSequence drives one (workload, variant) edit sequence.
func runECOSequence(tech *mos.Tech, lib *devmodel.Library, workload string, v ecoVariant, cfg ECOConfig) ECOSequence {
	seq := ECOSequence{Workload: workload, Variant: v.name}
	c, err := ecoWorkload(tech, workload)
	if err != nil {
		seq.Problems = append(seq.Problems, err.Error())
		return seq
	}
	r := rand.New(rand.NewSource(cfg.Seed + int64(len(workload))*7919))

	incSerial := ecoAnalyzer(tech, lib, v, 1, cfg.Seed)
	incParallel := ecoAnalyzer(tech, lib, v, cfg.Workers, cfg.Seed)
	scratch := ecoAnalyzer(tech, lib, v, 1, cfg.Seed)

	analyze := func(a *sta.Analyzer, incremental bool) (*sta.Result, error) {
		return a.AnalyzeContext(nil, sta.Request{
			Netlist: c.Netlist, Primary: c.Primary, Outputs: c.Outputs,
			Incremental: incremental,
		})
	}

	step := func(label string, seeds []string, bound int) bool {
		ref, err := analyze(scratch, false)
		if err != nil {
			seq.Problems = append(seq.Problems, label+": scratch run failed: "+err.Error())
			return false
		}
		s, err := analyze(incSerial, true)
		if err != nil {
			seq.Problems = append(seq.Problems, label+": incremental serial run failed: "+err.Error())
			return false
		}
		p, err := analyze(incParallel, true)
		if err != nil {
			seq.Problems = append(seq.Problems, label+": incremental parallel run failed: "+err.Error())
			return false
		}
		seq.Problems = sameResult(label+": incremental vs scratch", ref, s, seq.Problems)
		if v.memo.Enabled {
			cold, err := analyze(ecoAnalyzer(tech, lib, v, 1, cfg.Seed), false)
			if err != nil {
				seq.Problems = append(seq.Problems, label+": cold scratch run failed: "+err.Error())
				return false
			}
			seq.Problems = sameResult(label+": incremental vs cold scratch", cold, s, seq.Problems)
		}
		seq.Problems = sameResult(fmt.Sprintf("%s: incremental workers 1 vs %d", label, cfg.Workers), s, p, seq.Problems)
		st := ECOStep{Edit: label, Dirty: s.ECO.DirtyStages, Skipped: s.ECO.SkippedStages,
			EarlyStops: s.ECO.EarlyStops, ConeBound: bound}
		seq.Steps = append(seq.Steps, st)
		if seeds != nil && st.Dirty > bound {
			seq.Problems = append(seq.Problems,
				fmt.Sprintf("%s: dirty-cone minimality: %d stages dirty, structural closure is %d", label, st.Dirty, bound))
		}
		if cfg.Progress != nil {
			cfg.Progress("eco %s/%s %s: dirty %d, skipped %d, bound %d",
				workload, v.name, label, st.Dirty, st.Skipped, bound)
		}
		return true
	}

	// Baseline: the first incremental call has no memo — everything dirty.
	if !step("baseline", nil, 0) {
		return seq
	}
	for i := 0; i < cfg.Edits; i++ {
		label, seeds := ecoEdit(c.Netlist, r, tech, i)
		bound := coneBound(c.Netlist, c.Outputs, seeds)
		if !step(fmt.Sprintf("step %d: %s", i, label), seeds, bound) {
			return seq
		}
		// Every other step, a no-op re-run: nothing changed, so nothing may
		// be re-evaluated or re-computed.
		if i%2 == 1 {
			res, err := analyze(incSerial, true)
			if err != nil {
				seq.Problems = append(seq.Problems, "no-op rerun failed: "+err.Error())
				return seq
			}
			if res.ECO.DirtyStages != 0 {
				seq.Problems = append(seq.Problems,
					fmt.Sprintf("no-op rerun after step %d dirtied %d stages", i, res.ECO.DirtyStages))
			}
			if res.StagesEvaluated != 0 {
				seq.Problems = append(seq.Problems,
					fmt.Sprintf("no-op rerun after step %d paid %d cache misses", i, res.StagesEvaluated))
			}
		}
	}
	seq.Pass = len(seq.Problems) == 0
	return seq
}

// RunECO executes the full ECO differential sweep: every workload × variant
// edit sequence.
func RunECO(cfg ECOConfig) (*ECOReport, error) {
	cfg = cfg.withDefaults()
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	rep := &ECOReport{SchemaVersion: v1.SchemaVersion, Seed: cfg.Seed, Workers: cfg.Workers}
	for _, workload := range []string{"decoder", "wide"} {
		for _, v := range ecoVariants() {
			seq := runECOSequence(tech, lib, workload, v, cfg)
			rep.Sequences = append(rep.Sequences, seq)
			if !seq.Pass {
				rep.Failures++
			}
		}
	}
	rep.Pass = rep.Failures == 0
	return rep, nil
}
