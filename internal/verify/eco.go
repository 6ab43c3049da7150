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
// netlist is mutated step by step (transistor resizes, junction-geometry
// changes, load changes, buffer insertions) and re-analyzed after every edit
// on persistent warm analyzers — re-analysis after an edit is a plain re-run
// on a warm analyzer, whose delay cache re-evaluates only the directions
// whose key changed. The sweep runs across the feature matrix (plain,
// reduce, and a rate-1 NR-divergence chaos class that forces the spice tier)
// and gates, per step:
//   - a persistent parallel analyzer matches the persistent serial reference
//     bit for bit, evaluation count included. Entries are keyed by 5 ps slew
//     bucket but evaluated at the first-seen exact slew, so a warm analyzer
//     may differ from a cold one in low-order bits and is checked against
//     the same-history reference only;
//   - an edit evaluates at least one direction (an edit that evaluates
//     nothing was answered from the pre-edit entries: the key omits what the
//     edit changed) and at most the edit's structural evaluation bound;
//   - a no-op re-run evaluates nothing and reproduces the step's result.
type ECOConfig struct {
	// Seed drives the edit sequence; identical seeds reproduce identical
	// sweeps.
	Seed int64
	// Edits is the number of mutation steps per (workload, variant)
	// sequence (default 6).
	Edits int
	// Workers is the parallel analyzer's worker count checked against the
	// serial one (default 8).
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
	// Evaluated is the serial analyzer's StagesEvaluated; EvalBound is the
	// structural bound it is gated against.
	Evaluated int `json:"evaluated"`
	EvalBound int `json:"eval_bound"`
}

// ECOSequence is one (workload, variant) edit sequence.
type ECOSequence struct {
	Workload string    `json:"workload"`
	Variant  string    `json:"variant"`
	Steps    []ECOStep `json:"steps"`
	Problems []string  `json:"problems,omitempty"`
	Pass     bool      `json:"pass"`
}

// ECOReport aggregates an edit-sequence sweep.
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
	// chaos arms a rate-1 NR-divergence injector on every analysis, forcing
	// each evaluation down to the spice tier, whose sub-netlist rename must
	// keep every warm replay bit-identical.
	chaos bool
}

func ecoVariants() []ecoVariant {
	return []ecoVariant{
		{name: "plain"},
		{name: "reduce", red: reduce.Config{Enabled: true}},
		{name: "chaos-divergence", chaos: true},
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
// bound the evaluation count is checked against; nil seeds mark a no-op.
// The edit kinds take turns, so every sequence of four or more steps
// exercises each kind; the device, net and amount are random.
func ecoEdit(nl *circuit.Netlist, r *rand.Rand, tech *mos.Tech, step int) (string, []string) {
	switch step % 4 {
	case 0: // resize
		t := nl.Transistors[r.Intn(len(nl.Transistors))]
		f := 0.7 + 0.8*r.Float64()
		t.W *= f
		return fmt.Sprintf("resize %s x%.3f", t.Name, f),
			[]string{t.Drain, t.Source, t.Gate}
	case 1: // junction geometry: AD/PD/AS/PS
		t := nl.Transistors[r.Intn(len(nl.Transistors))]
		junc := func() mos.Junction {
			return mos.Junction{Area: (0.5 + 19.5*r.Float64()) * 1e-12, Perim: (1 + 19*r.Float64()) * 1e-6}
		}
		t.DrainJunc, t.SourceJunc = junc(), junc()
		return fmt.Sprintf("junction %s AD=%.3g PD=%.3g AS=%.3g PS=%.3g", t.Name,
				t.DrainJunc.Area, t.DrainJunc.Perim, t.SourceJunc.Area, t.SourceJunc.Perim),
			[]string{t.Drain, t.Source}
	case 2: // load change
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

// coneOutputs counts the outputs of the seed nets' structural fanout
// closure: every stage owning or loading a seed net, plus everything
// transitively downstream. Every other stage keeps its content and its
// input slews, so its keys hit; a warm re-run may evaluate at most both
// directions of each closure output.
func coneOutputs(nl *circuit.Netlist, outs []string, seeds []string) int {
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
	for i, d := range dirty {
		if d {
			n += len(sts[i].Outputs)
		}
	}
	return n
}

// ecoAnalyzer builds one persistent analyzer for a variant; chaos variants
// arm a rate-1 NR-divergence injector seeded with seed.
func ecoAnalyzer(tech *mos.Tech, lib *devmodel.Library, v ecoVariant, workers int, seed int64) *sta.Analyzer {
	cfg := sta.Config{Workers: workers, Reduction: v.red}
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

	serial := ecoAnalyzer(tech, lib, v, 1, cfg.Seed)
	parallel := ecoAnalyzer(tech, lib, v, cfg.Workers, cfg.Seed)

	analyze := func(a *sta.Analyzer) (*sta.Result, error) {
		return a.AnalyzeContext(nil, sta.Request{Netlist: c.Netlist, Primary: c.Primary, Outputs: c.Outputs})
	}

	// step re-analyzes after one edit; seeds is nil for the baseline and for
	// a no-op edit. It returns the serial result, nil after a failed run.
	step := func(label string, seeds []string) *sta.Result {
		s, err := analyze(serial)
		if err != nil {
			seq.Problems = append(seq.Problems, label+": serial run failed: "+err.Error())
			return nil
		}
		p, err := analyze(parallel)
		if err != nil {
			seq.Problems = append(seq.Problems, label+": parallel run failed: "+err.Error())
			return nil
		}
		pl := fmt.Sprintf("%s: warm workers 1 vs %d", label, cfg.Workers)
		seq.Problems = sameResult(pl, s, p, seq.Problems)
		if p.StagesEvaluated != s.StagesEvaluated {
			seq.Problems = append(seq.Problems, fmt.Sprintf("%s: %d evaluations, want %d", pl, p.StagesEvaluated, s.StagesEvaluated))
		}
		st := ECOStep{Edit: label, Evaluated: s.StagesEvaluated}
		if seeds != nil {
			st.EvalBound = 2 * coneOutputs(c.Netlist, c.Outputs, seeds)
			if st.Evaluated == 0 {
				seq.Problems = append(seq.Problems,
					label+": the edit evaluated nothing: answered from pre-edit cache entries")
			}
			if st.Evaluated > st.EvalBound {
				seq.Problems = append(seq.Problems,
					fmt.Sprintf("%s: %d evaluations, structural bound is %d", label, st.Evaluated, st.EvalBound))
			}
		}
		seq.Steps = append(seq.Steps, st)
		if cfg.Progress != nil {
			cfg.Progress("eco %s/%s %s: evaluated %d, bound %d",
				workload, v.name, label, st.Evaluated, st.EvalBound)
		}
		return s
	}

	if step("baseline", nil) == nil {
		return seq
	}
	for i := 0; i < cfg.Edits; i++ {
		label, seeds := ecoEdit(c.Netlist, r, tech, i)
		s := step(fmt.Sprintf("step %d: %s", i, label), seeds)
		if s == nil {
			return seq
		}
		// Every other step, a no-op re-run: nothing changed, so nothing may
		// be re-evaluated and the result must repeat bit for bit.
		if i%2 == 1 {
			res, err := analyze(serial)
			if err != nil {
				seq.Problems = append(seq.Problems, "no-op rerun failed: "+err.Error())
				return seq
			}
			seq.Problems = sameResult(fmt.Sprintf("no-op rerun after step %d", i), s, res, seq.Problems)
			if res.StagesEvaluated != 0 {
				seq.Problems = append(seq.Problems,
					fmt.Sprintf("no-op rerun after step %d evaluated %d directions", i, res.StagesEvaluated))
			}
		}
	}
	seq.Pass = len(seq.Problems) == 0
	return seq
}

// RunECO executes the full edit-sequence differential sweep: every workload × variant
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
