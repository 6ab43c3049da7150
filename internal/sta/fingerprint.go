package sta

import (
	"sort"
	"strconv"
	"sync"

	"qwm/internal/circuit"
	"qwm/internal/mos"
)

// MemoConfig is the equivalence-class memoization knob set. When enabled,
// structurally identical stages — same path topology, device geometry, gate
// wiring pattern, per-node capacitance contributors and load values, with
// node NAMES canonicalized away — share delay-cache entries: one
// representative is evaluated per (class, direction, slew bucket) and every
// other member reuses the result. The zero value disables memoization and
// leaves the raw name-carrying cache keys (and therefore pre-existing
// results, bit for bit) untouched.
type MemoConfig struct {
	// Enabled turns class memoization on. The evaluation slew is then
	// snapped to the 5 ps bucket floor so the shared entry is a pure
	// function of the class key — member- and schedule-independent.
	Enabled bool
	// Interp additionally evaluates the two bounding bucket BOUNDARIES and
	// linearly interpolates delay and slew at the exact input slew (the
	// internal/devmodel table idiom applied to the stage cache). More
	// accurate than floor-snapping for slews far from a boundary, at the
	// cost of up to two evaluations per new bucket. Boundary evaluations
	// share the snap-mode ("|b") key namespace, so a slew sitting exactly on
	// a bucket floor is bit-identical to snap mode and costs one eval.
	Interp bool
	// FPCap bounds the raw-key → class-key memo (fpTable): when an insert
	// would grow the table past the cap, the table is flushed and the
	// flushed entries are counted on the "sta/class/fp_evictions" metric.
	// Resolutions are cheap to recompute, so a rare full flush beats LRU
	// bookkeeping on the gather-phase hot path. 0 means the default
	// (65536 entries); negative means unbounded. FPCap does not affect
	// cache-key namespaces (it is absent from Signature).
	FPCap int
}

// defaultFPCap bounds fpTable when MemoConfig.FPCap is 0. At two entries per
// (stage, output) — one per rail — 65536 covers ~32k live stage outputs,
// far beyond the workloads here, while capping worst-case churn memory.
const defaultFPCap = 65536

// fpCap resolves the effective fpTable bound: cap <= 0 with FPCap < 0 means
// unlimited.
func (m MemoConfig) fpCap() int {
	switch {
	case m.FPCap > 0:
		return m.FPCap
	case m.FPCap < 0:
		return 0
	}
	return defaultFPCap
}

// Signature distinguishes memoized key namespaces; class keys additionally
// carry the "C|" prefix so they can never collide with raw keys.
func (m MemoConfig) Signature() string {
	switch {
	case !m.Enabled:
		return ""
	case m.Interp:
		return "mi"
	}
	return "m"
}

// fpTable memoizes raw-key → canonical-class-key resolutions on the
// Analyzer, so each (stage, output, rail) pays the fingerprint walk once per
// Analyzer lifetime no matter how many Analyzes consult it. The empty string
// is a valid value: it records "no canonical form" (no conducting path), and
// the caller then falls back to the raw key.
type fpTable struct {
	mu sync.RWMutex
	m  map[string]string
}

func (t *fpTable) lookup(raw string) (string, bool) {
	t.mu.RLock()
	s, ok := t.m[raw]
	t.mu.RUnlock()
	return s, ok
}

// lookupB is lookup for a key still in its assembly buffer (the
// map[string(b)] probe does not allocate).
func (t *fpTable) lookupB(raw []byte) (string, bool) {
	t.mu.RLock()
	s, ok := t.m[string(raw)]
	t.mu.RUnlock()
	return s, ok
}

// store inserts one resolution, flushing the whole table first when the
// insert would exceed cap (cap <= 0 means unbounded). It returns the number
// of entries evicted by that flush so the caller can feed the eviction
// metric without holding the lock.
func (t *fpTable) store(raw, canon string, cap int) int {
	t.mu.Lock()
	if t.m == nil {
		t.m = map[string]string{}
	}
	evicted := 0
	if _, exists := t.m[raw]; !exists && cap > 0 && len(t.m) >= cap {
		evicted = len(t.m)
		t.m = make(map[string]string, cap/4)
	}
	t.m[raw] = canon
	t.mu.Unlock()
	return evicted
}

// remove deletes one resolution, reporting whether it was present.
func (t *fpTable) remove(raw string) bool {
	t.mu.Lock()
	_, ok := t.m[raw]
	if ok {
		delete(t.m, raw)
	}
	t.mu.Unlock()
	return ok
}

// invalidateFP drops the fpTable resolutions of a stage whose content digest
// changed (ECO dirty diffing): each per-output content key has one memo entry
// per rail, and after an edit both point at a class the stage no longer
// belongs to. Without this the table accretes one dead entry per edited
// stage for the Analyzer's lifetime. Evictions land on the
// "sta/class/fp_evictions" metric alongside cap flushes.
func (a *Analyzer) invalidateFP(contentKeys []string) {
	n := 0
	for _, ck := range contentKeys {
		if a.fp.remove(ck + "|" + circuit.GroundNode) {
			n++
		}
		if a.fp.remove(ck + "|" + circuit.SupplyNode) {
			n++
		}
	}
	if n > 0 {
		if a.ms != nil {
			a.ms.fpEvictions.Add(int64(n))
		}
	}
}

// classBase resolves the canonical per-direction key base for one (stage,
// output, rail): "C|<reduction-signature>|<fingerprint>|<rail>" when the
// stage has a conducting path, or "" when fingerprinting is impossible and
// the caller must key by raw identity. Resolutions are memoized per
// Analyzer; the walk itself is deterministic, so concurrent resolutions of
// one raw key store identical values.
func (a *Analyzer) classBase(raw string, st *circuit.Stage, out, rail string, loads map[string]float64, redSig string) string {
	if canon, ok := a.fp.lookup(raw); ok {
		return canon
	}
	fp, ok := fingerprint(st, out, rail, loads)
	canon := ""
	if ok {
		canon = "C|" + redSig + "|" + fp + "|" + rail
	}
	if evicted := a.fp.store(raw, canon, a.cfg.Memo.fpCap()); evicted > 0 {
		if a.ms != nil {
			a.ms.fpEvictions.Add(int64(evicted))
		}
	}
	return canon
}

// resolveBases fills the per-direction key bases of one outEval: the raw
// contentKey+rail form by default, or the canonical class base when Memo is
// enabled and the direction fingerprints cleanly. Runs in the sequential
// gather phase; the scratch's classSeen set tallies the distinct direction
// classes (and the members beyond the first) into the Result's diagnostics,
// so the counts are schedule-independent. The raw key is assembled in the
// scratch buffer and only materialized (interned) when actually needed.
func (a *Analyzer) resolveBases(s *analyzeScratch, ev *outEval, st *circuit.Stage, out, redSig string, res *Result) {
	for i, rail := range [2]string{circuit.GroundNode, circuit.SupplyNode} {
		kb := append(s.keyBuf[:0], ev.contentKey...)
		kb = append(kb, '|')
		kb = append(kb, rail...)
		s.keyBuf = kb
		base, memo := "", false
		if a.cfg.Memo.Enabled {
			canon, ok := a.fp.lookupB(kb)
			if !ok {
				canon = a.classBase(a.keys.intern(kb), st, out, rail, ev.loads, redSig)
			}
			if canon != "" {
				base, memo = canon, true
				if s.classSeen[canon] {
					res.ClassHits++
				} else {
					s.classSeen[canon] = true
					res.ClassCount++
				}
			}
		}
		if base == "" {
			base = a.keys.intern(kb)
		}
		if i == 0 {
			ev.baseFall, ev.memoFall = base, memo
		} else {
			ev.baseRise, ev.memoRise = base, memo
		}
	}
}

// fingerprint serializes everything the degradation-ladder evaluation of one
// (stage, output, rail) direction reads, EXCEPT node names and input slew:
// the worst path's element sequence (kind, geometry, wire resistance, gate
// identity pattern), each internal path node's capacitance contributors in
// st.Edges order (the float-summation order the QWM builder uses, so two
// stages with equal fingerprints run bit-identical QWM evaluations), the
// path-node load values positionally, and the off-path load values as a
// sorted multiset (they only feed the spice tier's lumped caps). Numbers are
// encoded at full precision ('x' — exact hex floats), so two stages share a
// class only when their evaluations are genuinely interchangeable.
//
// ok is false when the stage has no conducting path to the rail — the same
// structural condition evalLadder fails on — and the caller then keys the
// (cached) failure by raw identity instead.
func fingerprint(st *circuit.Stage, out, rail string, loads map[string]float64) (string, bool) {
	path, err := circuit.LongestPath(st, out, rail)
	if err != nil {
		return "", false
	}
	b := make([]byte, 0, 256)
	// Gate identity pattern: gates are named by order of first appearance
	// along the path, so "NAND stack driven on its top input" and "… on its
	// bottom input" fingerprint differently while node names drop out.
	gateOrd := map[string]int{}
	onPath := map[string]bool{}
	for _, pe := range path.Elems {
		e := pe.Edge
		onPath[pe.Upper] = true
		if e.Kind == circuit.KindWire {
			b = append(b, 'w')
			b = appendHex(b, e.R)
			b = append(b, ';')
			continue
		}
		ord, seen := gateOrd[e.Gate]
		if !seen {
			ord = len(gateOrd)
			gateOrd[e.Gate] = ord
		}
		b = append(b, e.Kind.String()...)
		b = append(b, 'g')
		b = strconv.AppendInt(b, int64(ord), 10)
		b = append(b, ':')
		b = appendHex(b, e.W)
		b = append(b, ':')
		b = appendHex(b, e.L)
		b = append(b, ';')
	}
	// Per internal path node: load value plus every device-cap contributor,
	// mirroring the touch logic of qwm.Build exactly (Ref terminals when
	// present, Src/Snk otherwise).
	for _, pe := range path.Elems {
		name := pe.Upper
		b = append(b, '(')
		b = appendHex(b, loads[name])
		for _, e := range st.Edges {
			if e.Kind == circuit.KindWire {
				continue
			}
			var junc mos.Junction
			touches := false
			if t := e.Ref; t != nil {
				if t.Drain == name {
					touches, junc = true, t.DrainJunc
				} else if t.Source == name {
					touches, junc = true, t.SourceJunc
				}
			} else if e.Src == name || e.Snk == name {
				touches = true
			}
			if !touches {
				continue
			}
			b = append(b, ',')
			b = append(b, e.Kind.String()...)
			b = append(b, ':')
			b = appendHex(b, e.W)
			b = append(b, ':')
			b = appendHex(b, e.L)
			if junc != (mos.Junction{}) {
				b = append(b, 'j')
				b = appendHex(b, junc.Area)
				b = append(b, ':')
				b = appendHex(b, junc.Perim)
			}
		}
		b = append(b, ')')
	}
	// Off-path loads as a sorted value multiset: the spice tier instantiates
	// them as grounded caps wherever they sit, so their values (not their
	// names) are timing-relevant.
	var off []float64
	for n, c := range loads {
		if !onPath[n] {
			off = append(off, c)
		}
	}
	if len(off) > 0 {
		sort.Float64s(off)
		b = append(b, '[')
		for _, c := range off {
			b = appendHex(b, c)
			b = append(b, ',')
		}
		b = append(b, ']')
	}
	return string(b), true
}

// appendHex appends v in the exact, locale-free hex float format.
func appendHex(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'x', -1, 64)
}
