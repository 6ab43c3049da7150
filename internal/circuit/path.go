package circuit

import (
	"fmt"
	"sync"

	"qwm/internal/wave"
)

// PathElem is one element of a series charge/discharge path, oriented so
// Lower is the terminal closer to the rail.
type PathElem struct {
	Edge         *StageEdge
	Lower, Upper string
}

// Path is a series element chain from a rail to an output node:
// Elems[0].Lower is the rail, Elems[k].Upper == Elems[k+1].Lower, and the
// last element's Upper is the output. QWM's "stack of K transistors"
// (paper Fig. 6) is exactly this structure, possibly with resistive wire
// elements interleaved (paper Fig. 3).
type Path struct {
	Rail   string
	Output string
	Elems  []PathElem
}

// Transistors returns the number of transistor elements on the path — the K
// in the paper's "K DC operating point calculations".
func (p *Path) Transistors() int {
	k := 0
	for _, e := range p.Elems {
		if e.Edge.Kind == KindNMOS || e.Edge.Kind == KindPMOS {
			k++
		}
	}
	return k
}

// InternalNodes returns the node names between elements plus the output:
// node k (1-based) is Elems[k-1].Upper.
func (p *Path) InternalNodes() []string {
	out := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		out[i] = e.Upper
	}
	return out
}

// SwitchingInput is the worst-case stimulus of a series path to rail, the
// one every reference and every engine tier measures: the rail-side gate
// turns on at `at` — as an ideal step when slew is zero, otherwise as a
// ramp spanning 1.25 × the 10–90 % slew — while every other path gate is
// held on. It returns the switching waveform, the on-level (NMOS gates
// high, PMOS gates low), which is also the level every path node is
// precharged (discharge) or pre-discharged (charge) to, and the reference
// time delays are measured from: the step, or the ramp's midpoint.
func SwitchingInput(vdd float64, rail string, at, slew float64) (sw wave.Waveform, on, ref float64) {
	on, off := vdd, 0.0
	if rail == SupplyNode {
		on, off = 0, vdd // PMOS conducts with a low gate
	}
	if slew > 0 {
		full := 1.25 * slew
		return wave.Ramp{T0: at, T1: at + full, Low: off, High: on}, on, at + full/2
	}
	return wave.Step{At: at, Low: off, High: on}, on, at
}

// LongestPath returns the path with the most series transistors — the static
// timing analysis worst case the paper analyzes. Ties break toward more
// total elements, then toward the smaller key — the lower node names from
// the rail up, each followed by "/", compared as bytes — and then toward the
// path the search meets first. Paths never pass through the other rail.
//
// One depth-first search from the output meets every simple path to the
// rail, taking each node's edges in stage-edge order, and keeps the best it
// has seen as edge indices in pooled buffers; only the returned Path is
// allocated.
func LongestPath(st *Stage, output, rail string) (*Path, error) {
	output = CanonName(output)
	rail = CanonName(rail)
	if output == rail {
		return &Path{Rail: rail, Output: output, Elems: []PathElem{}}, nil
	}
	bufs := stepPool.Get().(*stepBufs)
	defer stepPool.Put(bufs)
	s := pathSearch{st: st, output: output, rail: rail, other: GroundNode, stepBufs: bufs}
	if rail == GroundNode {
		s.other = SupplyNode
	}
	s.stack, s.best = s.stack[:0], s.best[:0]
	s.visit(output, 0)
	if !s.found {
		return nil, fmt.Errorf("circuit: no path from %q to rail %q in stage %s", output, rail, st.Name)
	}
	elems := make([]PathElem, len(s.best))
	for d, p := range s.best {
		e := st.Edges[p.edge]
		pe := PathElem{Edge: e, Lower: e.Src, Upper: e.Snk}
		if p.snkLower {
			pe.Lower, pe.Upper = e.Snk, e.Src
		}
		elems[len(elems)-1-d] = pe
	}
	return &Path{Rail: rail, Output: output, Elems: elems}, nil
}

// step is one path element: a stage edge and which of its ends is nearer
// the rail.
type step struct {
	edge     int32
	snkLower bool
}

// stepBufs holds the current and the best path, output end first. Pooled
// idle, it holds only integers and flags, so it pins no stage or name.
type stepBufs struct{ stack, best []step }

var stepPool = sync.Pool{New: func() any { return new(stepBufs) }}

// pathSearch is one LongestPath search.
type pathSearch struct {
	st                  *Stage
	output, rail, other string
	*stepBufs
	bestK int // the best path's transistor count
	found bool
}

// lower returns p's end nearer the rail.
func (s *pathSearch) lower(p step) string {
	e := s.st.Edges[p.edge]
	if p.snkLower {
		return e.Snk
	}
	return e.Src
}

// visit extends the current path, which ends at node after k transistors,
// by every edge of node in stage-edge order, and offers each path that
// reaches the rail.
func (s *pathSearch) visit(node string, k int) {
	if node == s.rail {
		s.offer(k)
		return
	}
	for i, e := range s.st.Edges {
		next, snkLower := e.Snk, true
		switch {
		case e.Src == node:
		case e.Snk == node:
			next, snkLower = e.Src, false
		default:
			continue
		}
		if next == node || next == s.other || s.onPath(next) {
			continue
		}
		dk := 0
		if e.Kind == KindNMOS || e.Kind == KindPMOS {
			dk = 1
		}
		s.stack = append(s.stack, step{edge: int32(i), snkLower: snkLower})
		s.visit(next, k+dk)
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// onPath reports whether node is on the current path.
func (s *pathSearch) onPath(node string) bool {
	if node == s.output {
		return true
	}
	for _, p := range s.stack {
		if s.lower(p) == node {
			return true
		}
	}
	return false
}

// offer keeps the current path, which has k transistors, if it beats the
// best so far.
func (s *pathSearch) offer(k int) {
	if s.found && (k < s.bestK || k == s.bestK &&
		(len(s.stack) < len(s.best) || len(s.stack) == len(s.best) && !s.keyLess())) {
		return
	}
	s.found, s.bestK = true, k
	s.best = append(s.best[:0], s.stack...)
}

// keyLess reports whether the current path's key sorts before the best
// path's. The keys are read byte by byte, element by element from the rail
// end, with each name's "/" as its last byte: a name may hold bytes below
// "/" or "/" itself, so two keys can order differently from their first
// differing names.
func (s *pathSearch) keyLess() bool {
	a, b := s.stack, s.best
	i, j := len(a)-1, len(b)-1 // the elements being read
	p, q := 0, 0               // byte offsets into them
	for i >= 0 && j >= 0 {
		x, y := s.lower(a[i]), s.lower(b[j])
		if p == 0 && q == 0 && x == y {
			i, j = i-1, j-1
			continue
		}
		cx, cy := keyByte(x, p), keyByte(y, q)
		if cx != cy {
			return cx < cy
		}
		if p++; p > len(x) {
			i, p = i-1, 0
		}
		if q++; q > len(y) {
			j, q = j-1, 0
		}
	}
	return i < 0 && j >= 0
}

// keyByte returns byte p of name followed by "/".
func keyByte(name string, p int) byte {
	if p == len(name) {
		return '/'
	}
	return name[p]
}
