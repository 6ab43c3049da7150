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
	// share the snap-mode class keys, so a slew sitting exactly on a bucket
	// floor is bit-identical to snap mode and costs one eval.
	Interp bool
}

// defaultFPCap bounds the raw-key → class-key memo (fpTable): when an insert
// would grow the table past it, the table is flushed and the flushed entries
// are counted on the "sta/class/fp_evictions" metric. Resolutions are cheap
// to recompute, so a rare full flush beats LRU bookkeeping on the
// gather-phase hot path. At two entries per (stage, output) — one per rail —
// 65536 covers ~32k live stage outputs, far beyond the workloads here, while
// capping worst-case churn memory. The bound is absent from Signature: it
// never changes a cache key.
const defaultFPCap = 65536

// Signature distinguishes memoized configurations; class keys additionally
// carry the nsClass namespace bit so they can never collide with raw keys.
func (m MemoConfig) Signature() string {
	switch {
	case !m.Enabled:
		return ""
	case m.Interp:
		return "mi"
	}
	return "m"
}

// fpTable memoizes raw-key → class-key resolutions, so each (stage, output,
// rail) pays the fingerprint walk once per Analyzer lifetime no matter how
// many Analyzes consult it. Keys and values have a zero bucket. The zero Key
// is a valid value: it records "no canonical form" (no conducting path), and
// the caller then keeps the raw key.
type fpTable struct {
	mu sync.RWMutex
	m  map[Key]Key
}

func (t *fpTable) lookup(raw *Key) (Key, bool) {
	t.mu.RLock()
	k, ok := t.m[*raw]
	t.mu.RUnlock()
	return k, ok
}

// store inserts one resolution, flushing the whole table first when the
// insert would exceed cap. It returns the number of entries evicted by that
// flush so the caller can feed the eviction metric without holding the lock.
func (t *fpTable) store(raw, canon Key, cap int) int {
	t.mu.Lock()
	if t.m == nil {
		t.m = map[Key]Key{}
	}
	evicted := 0
	if _, exists := t.m[raw]; !exists && len(t.m) >= cap {
		evicted = len(t.m)
		t.m = make(map[Key]Key, cap/4)
	}
	t.m[raw] = canon
	t.mu.Unlock()
	return evicted
}

// classKey resolves the class key for one raw (stage, output, rail) key: the
// digest of the reduction signature and the structural fingerprint, in the
// nsClass namespace, or the zero Key when fingerprinting is impossible and
// the caller must key by raw identity. Resolutions are memoized per
// Analyzer; the walk itself is deterministic, so concurrent resolutions of
// one raw key store identical values.
func (a *Analyzer) classKey(raw *Key, st *circuit.Stage, out, rail string, loads map[string]float64, redSig string) Key {
	if canon, ok := a.fp.lookup(raw); ok {
		return canon
	}
	var canon Key
	if fp, ok := fingerprint(st, out, rail, loads); ok {
		d := classDigest(redSig, fp)
		canon = makeKey(&d, nsClass|raw[nsByte]&nsRise)
	}
	if evicted := a.fp.store(*raw, canon, defaultFPCap); evicted > 0 {
		if a.ms != nil {
			a.ms.fpEvictions.Add(int64(evicted))
		}
	}
	return canon
}

// resolveKeys fills the per-direction keys of one outEval from the output's
// content digest: the raw key by default, or the class key when Memo is
// enabled and the direction fingerprints cleanly. Runs in the sequential
// gather phase; the scratch's classSeen set tallies the distinct direction
// classes (and the members beyond the first) into the Result's diagnostics,
// so the counts are schedule-independent.
func (a *Analyzer) resolveKeys(s *analyzeScratch, ev *outEval, content *digest, st *circuit.Stage, out, redSig string, res *Result) {
	for _, rail := range [2]string{circuit.GroundNode, circuit.SupplyNode} {
		key := makeKey(content, railNS(rail))
		if a.cfg.Memo.Enabled {
			if canon := a.classKey(&key, st, out, rail, ev.loads, redSig); canon != (Key{}) {
				key = canon
				if s.classSeen[canon] {
					res.ClassHits++
				} else {
					s.classSeen[canon] = true
					res.ClassCount++
				}
			}
		}
		if rail == circuit.GroundNode {
			ev.keyFall = key
		} else {
			ev.keyRise = key
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
