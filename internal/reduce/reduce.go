// Package reduce is the model-order-reduction pre-pass of the hot-path
// layer: before a stage path is handed to the QWM solver (or any lower
// degradation tier), long series RC wire runs on the path are collapsed into
// moment-matched equivalent short ladders. The collapse preserves each
// run's total resistance, total capacitance and exit Elmore delay exactly
// (under any external load) and bounds the relative second-moment mismatch
// by the configured tolerance, following the long-chain equivalence scheme
// of arXiv 2508.13159 on top of the moment machinery in internal/awe.
//
// The pre-pass runs inside the delay-cache compute, downstream of the cache
// key: the key is always derived from the UNREDUCED stage content plus
// Config.Signature(), so reduced and unreduced evaluations of the same stage
// can never alias one cache entry (the PR 2 load-digest discipline).
package reduce

import (
	"strconv"

	"qwm/internal/awe"
	"qwm/internal/circuit"
)

// Config is the reduction knob set. The zero value disables the pre-pass
// entirely (Path then returns its inputs untouched).
type Config struct {
	// TolPct is the per-run second-moment mismatch tolerance in percent
	// (|m2' − m2| / m1² × 100 — a fractional waveform-distortion proxy).
	// A positive value turns the pre-pass on; 0 (or any non-positive
	// value) leaves it off.
	TolPct float64
}

// minRun is the shortest series wire run (in segments) worth collapsing;
// shorter runs pass through unchanged.
const minRun = 4

// Signature canonically encodes the configuration for cache-key derivation.
// It is empty exactly when the pre-pass is disabled, so pre-existing cache
// keys (and the bit-for-bit-identical-when-off guarantee) are untouched; any
// enabled configuration yields a distinct non-empty suffix, so two Analyzers
// at different tolerances can never share a delay-cache entry.
func (c Config) Signature() string {
	if !(c.TolPct > 0) {
		return ""
	}
	return "|red:" + strconv.FormatFloat(c.TolPct, 'g', -1, 64) + ":" + strconv.Itoa(minRun)
}

// Stats reports what one Path call removed.
type Stats struct {
	// NodesRemoved counts circuit nodes eliminated (collapsed run interiors).
	NodesRemoved int
	// RunsCollapsed counts series wire runs actually replaced.
	RunsCollapsed int
	// ErrMax is the largest reported second-moment mismatch estimate across
	// the collapsed runs (≤ TolPct/100 by construction).
	ErrMax float64
}

// Path applies the pre-pass to one stage path: eligible series wire runs are
// collapsed via awe.ReduceChain and the load map is rewritten to match (run
// interior entries removed, equivalent caps installed on synthetic nodes
// named "<exit>~r<i>"). When nothing is eligible the inputs are returned
// unchanged (same pointers), so callers can cheaply detect a no-op.
//
// The rewrite never mutates its inputs: st, p and loads are shared with the
// caller (and, through the per-Analyze outEval, with the other direction's
// evaluation), so the reduced path and load map are always fresh values.
func Path(st *circuit.Stage, p *circuit.Path, loads map[string]float64, cfg Config) (*circuit.Path, map[string]float64, Stats) {
	var stats Stats
	if !(cfg.TolPct > 0) || st == nil || p == nil || len(p.Elems) == 0 {
		return p, loads, stats
	}

	// Per-node stage facts: how many wire edges touch each node, and whether
	// any device (non-wire) edge or gate does. A run interior must be a pure
	// degree-2 wire node — anything else (a branch point, a device terminal,
	// a gate net) pins the node in place.
	wireDeg := make(map[string]int)
	devTouch := make(map[string]bool)
	for _, e := range st.Edges {
		if e.Kind == circuit.KindWire {
			wireDeg[e.Src]++
			wireDeg[e.Snk]++
			continue
		}
		devTouch[e.Src] = true
		devTouch[e.Snk] = true
		if e.Gate != "" {
			devTouch[e.Gate] = true
		}
	}
	protected := map[string]bool{
		circuit.GroundNode: true, circuit.SupplyNode: true,
		p.Rail: true, p.Output: true,
	}
	for _, o := range st.Outputs {
		protected[o] = true
	}
	for _, in := range st.Inputs {
		protected[in] = true
	}
	collapsible := func(n string) bool {
		return wireDeg[n] == 2 && !devTouch[n] && !protected[n]
	}

	// Pass 1: find maximal eligible runs [i, j) of consecutive wire elements
	// whose every interior boundary node is collapsible.
	type run struct{ i, j int }
	var runs []run
	elems := p.Elems
	for i := 0; i < len(elems); {
		if elems[i].Edge.Kind != circuit.KindWire {
			i++
			continue
		}
		j := i + 1
		for j < len(elems) && elems[j].Edge.Kind == circuit.KindWire && collapsible(elems[j-1].Upper) {
			j++
		}
		if j-i >= minRun {
			runs = append(runs, run{i, j})
		}
		i = j
	}
	if len(runs) == 0 {
		return p, loads, stats
	}

	// Pass 2: rebuild the element list, replacing each collapsed run. The
	// load map is copy-on-write: copied only once an actual rewrite happens.
	newLoads := loads
	newElems := make([]circuit.PathElem, 0, len(elems))
	changed := false
	next := 0
	for k := 0; k < len(elems); {
		if next < len(runs) && runs[next].i == k {
			i, j := runs[next].i, runs[next].j
			next++
			segs := make([]awe.ChainSeg, j-i)
			for q := i; q < j; q++ {
				segs[q-i].R = elems[q].Edge.R
				if q < j-1 { // exit node cap stays external to the run
					segs[q-i].C = newLoads[elems[q].Upper]
				}
			}
			exit := elems[j-1].Upper
			red, errEst := awe.ReduceChain(segs, newLoads[exit], cfg.TolPct/100)
			if len(red) >= len(segs) {
				newElems = append(newElems, elems[i:j]...)
				k = j
				continue
			}
			if !changed {
				newLoads = make(map[string]float64, len(loads)+4)
				for n, c := range loads {
					newLoads[n] = c
				}
				changed = true
			}
			for q := i; q < j-1; q++ {
				delete(newLoads, elems[q].Upper)
			}
			prev := elems[i].Lower
			for q, s := range red {
				upper := exit
				if q < len(red)-1 {
					upper = exit + "~r" + strconv.Itoa(q)
				}
				edge := &circuit.StageEdge{Kind: circuit.KindWire, Src: prev, Snk: upper, R: s.R}
				newElems = append(newElems, circuit.PathElem{Edge: edge, Lower: prev, Upper: upper})
				if s.C != 0 {
					newLoads[upper] += s.C
				}
				prev = upper
			}
			stats.RunsCollapsed++
			stats.NodesRemoved += (j - i) - len(red)
			if errEst > stats.ErrMax {
				stats.ErrMax = errEst
			}
			k = j
			continue
		}
		newElems = append(newElems, elems[k])
		k++
	}

	if !changed {
		return p, loads, stats
	}
	return &circuit.Path{Rail: p.Rail, Output: p.Output, Elems: newElems}, newLoads, stats
}
