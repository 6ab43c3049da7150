// Package awe implements the linear-interconnect substrate of the paper's
// related work and its decoder-tree experiment: RC-tree moment computation
// by path tracing, the Elmore delay metric, RC-chain reduction, and the
// O'Brien/Savarino style π-model reduction the paper uses to macro-model
// long wires before handing them to QWM ("We first used AWE approach to
// build a macro π model for the wire", §V-C).
package awe

import "fmt"

// RCTree is a grounded-capacitor RC tree driven at its root by an ideal
// source. Node 0 is the root.
type RCTree struct {
	names  map[string]int
	name   []string
	parent []int
	res    []float64 // resistance from parent to this node
	cap    []float64 // capacitance at this node
}

// NewRCTree creates a tree with just the named root.
func NewRCTree(root string) *RCTree {
	t := &RCTree{names: map[string]int{}}
	t.names[root] = 0
	t.name = []string{root}
	t.parent = []int{-1}
	t.res = []float64{0}
	t.cap = []float64{0}
	return t
}

// AddNode attaches a node below parent through resistance r, with grounded
// capacitance c. Children must be added after their parent.
func (t *RCTree) AddNode(name, parent string, r, c float64) error {
	if _, dup := t.names[name]; dup {
		return fmt.Errorf("awe: duplicate node %q", name)
	}
	p, ok := t.names[parent]
	if !ok {
		return fmt.Errorf("awe: unknown parent %q", parent)
	}
	if r <= 0 {
		return fmt.Errorf("awe: non-positive resistance at %q", name)
	}
	if c < 0 {
		return fmt.Errorf("awe: negative capacitance at %q", name)
	}
	t.names[name] = len(t.name)
	t.name = append(t.name, name)
	t.parent = append(t.parent, p)
	t.res = append(t.res, r)
	t.cap = append(t.cap, c)
	return nil
}

// AddCap adds extra grounded capacitance to an existing node.
func (t *RCTree) AddCap(name string, c float64) error {
	i, ok := t.names[name]
	if !ok {
		return fmt.Errorf("awe: unknown node %q", name)
	}
	t.cap[i] += c
	return nil
}

// N returns the node count including the root.
func (t *RCTree) N() int { return len(t.name) }

// Moments returns the first q transfer-function moments of every node:
// V_i(s) = Σ_k m_k(i)·s^k for a unit source at the root, computed by the
// classic path-tracing recursion. m_0 = 1 everywhere; m_1 is the negative
// Elmore delay. The result is indexed [order][node], order 0..q.
func (t *RCTree) Moments(q int) [][]float64 {
	n := t.N()
	m := make([][]float64, q+1)
	m[0] = make([]float64, n)
	for i := range m[0] {
		m[0][i] = 1
	}
	// Children are always after parents, so downstream sums accumulate by a
	// reverse sweep and moments propagate by a forward sweep.
	for k := 1; k <= q; k++ {
		// I[i] = Σ_{j in subtree(i)} c_j · m_{k-1}(j)
		iacc := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			iacc[i] += t.cap[i] * m[k-1][i]
			if p := t.parent[i]; p >= 0 {
				iacc[p] += iacc[i]
			}
		}
		m[k] = make([]float64, n)
		for i := 1; i < n; i++ {
			m[k][i] = m[k][t.parent[i]] - t.res[i]*iacc[i]
		}
	}
	return m
}

// NodeMoments returns the moments m_1..m_q of one node.
func (t *RCTree) NodeMoments(name string, q int) ([]float64, error) {
	i, ok := t.names[name]
	if !ok {
		return nil, fmt.Errorf("awe: unknown node %q", name)
	}
	all := t.Moments(q)
	out := make([]float64, q)
	for k := 1; k <= q; k++ {
		out[k-1] = all[k][i]
	}
	return out, nil
}

// Elmore returns the Elmore delay of a node: the negated first moment, the
// classic switch-level timing metric (Crystal/IRSIM class, paper §II).
func (t *RCTree) Elmore(name string) (float64, error) {
	m, err := t.NodeMoments(name, 1)
	if err != nil {
		return 0, err
	}
	return -m[0], nil
}

// Pi is a π macro-model of a wire or RC subtree: CNear at the driven end,
// R in series, CFar at the receiving end.
type Pi struct {
	CNear, R, CFar float64
}

// PiFromMoments builds the unique π whose first three driving-point
// admittance moments equal (y1, y2, y3) — the O'Brien/Savarino reduction.
func PiFromMoments(y1, y2, y3 float64) (Pi, error) {
	if y2 >= 0 || y3 <= 0 {
		return Pi{}, fmt.Errorf("awe: admittance moments (%g, %g, %g) not realizable as a π", y1, y2, y3)
	}
	cf := y2 * y2 / y3
	r := -y3 * y3 / (y2 * y2 * y2)
	cn := y1 - cf
	if cf <= 0 || r <= 0 || cn < 0 {
		return Pi{}, fmt.Errorf("awe: non-physical π (CNear=%g R=%g CFar=%g)", cn, r, cf)
	}
	return Pi{CNear: cn, R: r, CFar: cf}, nil
}

// UniformLine returns the exact first three admittance moments of an
// open-ended uniform distributed RC line with total resistance R and total
// capacitance C: y1 = C, y2 = −RC²/3, y3 = 2R²C³/15.
func UniformLine(r, c float64) (y1, y2, y3 float64) {
	return c, -r * c * c / 3, 2 * r * r * c * c * c / 15
}

// PiForWire reduces a uniform wire of total resistance r and capacitance c
// to its moment-matched π model.
func PiForWire(r, c float64) (Pi, error) {
	return PiFromMoments(UniformLine(r, c))
}

// WireRC converts a wire geometry to totals using per-length parasitics.
type WireRC struct {
	ROhmPerM float64 // sheet-derived resistance per meter
	CFPerM   float64 // capacitance per meter
}

// Totals returns the total R and C of a wire of the given length.
func (w WireRC) Totals(length float64) (r, c float64) {
	return w.ROhmPerM * length, w.CFPerM * length
}
