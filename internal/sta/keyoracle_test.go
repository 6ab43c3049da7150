package sta

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/reduce"
	"qwm/internal/stages"
)

// This file keeps the text cache keys the engine used before Key as the
// oracle for the key-equivalence tests: for inputs whose node names contain
// none of the text form's separators and whose devices declare no junction
// geometry (the text key aliased both, see TestCacheKeySeparatorInNames and
// TestCacheKeyJunctionGeometry), two digest keys must be equal exactly when
// their text keys are. FuzzCacheKey covers both carve-outs against the
// canonical content instead.

// loadDigest canonically encodes a stage output's load map as sorted
// node:cap pairs, each cap exact (the shortest text that round-trips).
func loadDigest(loads map[string]float64) string {
	var s analyzeScratch
	return string(s.appendLoadDigest(nil, loads))
}

// stageKey is the text stage-content key: the observed output plus every
// edge's kind, connectivity, gate and geometry, sorted.
func stageKey(st *circuit.Stage, out string) string {
	var s analyzeScratch
	return string(s.appendStageKey(nil, st, out))
}

// oracleKey is the full text cache key of one (stage, output, rail, bucket)
// under the analyzer's configuration, in the
// "<stageKey>|<loadDigest><redSig>|<rail>|<bucket>" form.
func (a *Analyzer) oracleKey(st *circuit.Stage, out string, loads map[string]float64, rail string, bucket int) string {
	return stageKey(st, out) + "|" + loadDigest(loads) + a.cfg.Reduction.Signature() + "|" + rail + "|" + strconv.Itoa(bucket)
}

// appendStageKey appends the stage-content key for (st, out): the observed
// output plus every edge's kind, connectivity, gate and geometry, sorted so
// edge declaration order drops out. Byte-identical to the historical
// fmt.Sprintf/sort.Strings formatting, without the per-edge allocations.
func (s *analyzeScratch) appendStageKey(b []byte, st *circuit.Stage, out string) []byte {
	b = append(b, out...)
	b = append(b, '|')
	seg := s.segBuf[:0]
	offs := s.segOffs[:0]
	for _, e := range st.Edges {
		offs = append(offs, len(seg))
		seg = appendEdgeKey(seg, e)
	}
	offs = append(offs, len(seg))
	s.segBuf, s.segOffs = seg, offs
	ne := len(st.Edges)
	ord := s.segOrd[:0]
	for i := 0; i < ne; i++ {
		ord = append(ord, i)
	}
	// Insertion sort: stages have a handful of edges, and the comparisons
	// are plain memcmp over the segment bytes.
	for i := 1; i < ne; i++ {
		for j := i; j > 0 && bytes.Compare(seg[offs[ord[j]]:offs[ord[j]+1]], seg[offs[ord[j-1]]:offs[ord[j-1]+1]]) < 0; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	s.segOrd = ord
	for _, i := range ord {
		b = append(b, seg[offs[i]:offs[i+1]]...)
		b = append(b, ';')
	}
	return b
}

// appendEdgeKey appends one edge in the exact historical format
// "%v:%s>%s@%s:%g:%g:%g" (strconv's shortest 'g' is what %g prints).
func appendEdgeKey(b []byte, e *circuit.StageEdge) []byte {
	b = append(b, e.Kind.String()...)
	b = append(b, ':')
	b = append(b, e.Src...)
	b = append(b, '>')
	b = append(b, e.Snk...)
	b = append(b, '@')
	b = append(b, e.Gate...)
	b = append(b, ':')
	b = strconv.AppendFloat(b, e.W, 'g', -1, 64)
	b = append(b, ':')
	b = strconv.AppendFloat(b, e.L, 'g', -1, 64)
	b = append(b, ':')
	b = strconv.AppendFloat(b, e.R, 'g', -1, 64)
	return b
}

// appendLoadDigest appends the canonical load digest: sorted node:cap pairs,
// each cap exact (see loadDigest for why the digest is part of the
// cache key at all).
func (s *analyzeScratch) appendLoadDigest(b []byte, loads map[string]float64) []byte {
	if len(loads) == 0 {
		return b
	}
	nodes := s.nodeBuf[:0]
	for n := range loads {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	s.nodeBuf = nodes
	for _, n := range nodes {
		b = append(b, n...)
		b = append(b, ':')
		b = strconv.AppendFloat(b, loads[n], 'g', -1, 64)
		b = append(b, ',')
	}
	return b
}

// buildLoadIndex indexes n over a node table of its own.
func buildLoadIndex(n *circuit.Netlist, tech *mos.Tech) *loadIndex {
	nodes := &circuit.NodeTable{}
	nodes.Build(n)
	ix := &loadIndex{}
	ix.build(n, nodes, tech)
	return ix
}

// stageLoads is stageLoadsInto with a fresh map.
func (ix *loadIndex) stageLoads(st *circuit.Stage, out string) map[string]float64 {
	return ix.stageLoadsInto(map[string]float64{}, st, out)
}

// testKey is the engine's key for one (stage, output, loads, rail, bucket),
// derived exactly as the gather phase and the lookup path derive it.
func (a *Analyzer) testKey(s *analyzeScratch, st *circuit.Stage, out string, loads map[string]float64, rail string, bucket int) Key {
	d := s.contentDigest(st, out, loads, a.cfg.Reduction.Signature())
	var ns byte
	if rail == circuit.SupplyNode {
		ns = nsRise
	}
	return makeKey(&d, ns).withBucket(bucket)
}

// keyCase is one stage output under one load map.
type keyCase struct {
	st    *circuit.Stage
	out   string
	loads map[string]float64
}

// keyCorpusCases collects the key-equivalence inputs: every output of every
// stage of the Table I/II workloads, the 2–5-bit decoders, a wide RC
// netlist, the FuzzParse corpus decks and 40 seeded random netlists, each
// under its netlist's own loads and three random load maps; every stage
// also appears a second time with its edges shuffled, so equal keys occur
// across distinct stage values.
func keyCorpusCases(t *testing.T) []keyCase {
	t.Helper()
	var nls []*circuit.Netlist
	var obs [][]string
	add := func(nl *circuit.Netlist, outs []string) {
		for _, tr := range nl.Transistors {
			if tr.DrainJunc != (mos.Junction{}) || tr.SourceJunc != (mos.Junction{}) {
				return // outside the text oracle: it omits junction geometry
			}
		}
		nls = append(nls, nl)
		obs = append(obs, outs)
	}
	for _, gen := range []func() ([]*stages.Workload, error){
		func() ([]*stages.Workload, error) { return stages.TableI(tech) },
		func() ([]*stages.Workload, error) { return stages.TableII(tech) },
	} {
		ws, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			add(w.Netlist, []string{w.Output})
		}
	}
	for bits := 2; bits <= 5; bits++ {
		nl, _, outs, err := stages.DecoderNetlist(tech, bits, 1e-6, 10e-15)
		if err != nil {
			t.Fatal(err)
		}
		add(nl, outs)
	}
	nl, _, outs, err := stages.WideNetlist(tech, 3, 6, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	add(nl, outs)
	for _, deck := range fuzzParseDecks(t) {
		d, err := netlist.ParseString(deck)
		if err != nil {
			continue
		}
		add(d.Netlist, d.Netlist.Nodes())
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		nl := randomKeyNetlist(r)
		add(nl, nl.Nodes())
	}

	caps := []float64{1e-15, 1.0000001e-15, 2e-15, 10e-15, 1.5e-14, 0}
	var cases []keyCase
	for i, nl := range nls {
		ix := buildLoadIndex(nl, tech)
		for _, st := range circuit.ExtractStages(nl, obs[i]) {
			shuffled := *st
			shuffled.Edges = slices.Clone(st.Edges)
			r.Shuffle(len(shuffled.Edges), func(a, b int) {
				shuffled.Edges[a], shuffled.Edges[b] = shuffled.Edges[b], shuffled.Edges[a]
			})
			for _, out := range st.Outputs {
				loadMaps := []map[string]float64{ix.stageLoads(st, out)}
				for j := 0; j < 3; j++ {
					m := map[string]float64{}
					for _, nd := range st.Nodes {
						if r.Intn(2) == 0 {
							m[nd] = caps[r.Intn(len(caps))]
						}
					}
					loadMaps = append(loadMaps, m)
				}
				for _, m := range loadMaps {
					cases = append(cases, keyCase{st, out, m}, keyCase{&shuffled, out, m})
				}
			}
		}
	}
	return cases
}

// randomKeyNetlist builds a small random gate network: series or parallel
// NMOS pull-downs, parallel PMOS pull-ups, occasional wire segments and
// output caps, over widths drawn from a short list so structures repeat.
func randomKeyNetlist(r *rand.Rand) *circuit.Netlist {
	nl := &circuit.Netlist{}
	nets := []string{"a", "b", "c"}
	widths := []float64{0.8e-6, 1e-6, 2e-6}
	dev := 0
	name := func(p string) string { dev++; return p + strconv.Itoa(dev) }
	for g, n := 0, 2+r.Intn(6); g < n; g++ {
		out := "n" + strconv.Itoa(g)
		k := 1 + r.Intn(3)
		series := r.Intn(2) == 0
		src := out
		for i := 0; i < k; i++ {
			snk := "0"
			if series && i < k-1 {
				snk = out + "s" + strconv.Itoa(i)
			}
			in := nets[r.Intn(len(nets))]
			nl.AddTransistor(&circuit.Transistor{Name: name("mn"), Kind: circuit.KindNMOS, Drain: src, Gate: in, Source: snk, Body: "0", W: widths[r.Intn(len(widths))], L: tech.LMin})
			nl.AddTransistor(&circuit.Transistor{Name: name("mp"), Kind: circuit.KindPMOS, Drain: out, Gate: in, Source: "vdd", Body: "vdd", W: 2 * widths[r.Intn(len(widths))], L: tech.LMin})
			if series {
				src = snk
			}
		}
		drive := out
		if r.Intn(3) == 0 {
			drive = out + "w"
			nl.AddResistor(name("r"), out, drive, float64(50+50*r.Intn(3)))
		}
		if r.Intn(2) == 0 {
			nl.AddCapacitor(name("c"), drive, "0", float64(1+r.Intn(3))*5e-15)
		}
		nets = append(nets, drive)
	}
	return nl
}

// fuzzParseDecks returns the netlist package's FuzzParse corpus: the
// parseSeeds literals of its test sources (string literals, named string
// constants and their concatenations) plus the checked-in corpus files.
func fuzzParseDecks(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("../netlist/*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	named := map[string]ast.Expr{}
	var seeds *ast.CompositeLit
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, sp := range gd.Specs {
				vs, ok := sp.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				named[vs.Names[0].Name] = vs.Values[0]
				if cl, ok := vs.Values[0].(*ast.CompositeLit); ok && vs.Names[0].Name == "parseSeeds" {
					seeds = cl
				}
			}
		}
	}
	if seeds == nil {
		t.Fatal("parseSeeds not found in the netlist tests")
	}
	var eval func(ast.Expr) string
	eval = func(e ast.Expr) string {
		switch e := e.(type) {
		case *ast.BasicLit:
			s, err := strconv.Unquote(e.Value)
			if err != nil {
				t.Fatal(err)
			}
			return s
		case *ast.Ident:
			if v, ok := named[e.Name]; ok {
				return eval(v)
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				return eval(e.X) + eval(e.Y)
			}
		}
		t.Fatalf("parseSeeds element %T is not a string constant expression", e)
		return ""
	}
	var decks []string
	for _, e := range seeds.Elts {
		decks = append(decks, eval(e))
	}
	corpus, err := filepath.Glob("../netlist/testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range corpus {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			t.Fatalf("%s: unexpected corpus format", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatal(err)
		}
		decks = append(decks, s)
	}
	return decks
}

// TestCacheKeyMatchesTextOracle is the evidence that the digest keys move no
// result: over the corpus of keyCorpusCases, both rails, several slew
// buckets and reduction off/on, two digest keys are
// equal exactly when their text keys are equal — so every lookup hits, and
// misses, exactly where it did under the text keys.
func TestCacheKeyMatchesTextOracle(t *testing.T) {
	cases := keyCorpusCases(t)
	red := reduce.Config{TolPct: 1}
	for _, cfg := range []Config{{}, {Reduction: red}} {
		// Subtests are named by the signature without its engine tag, so a
		// tag bump does not rename them.
		_, name, _ := strings.Cut(cfg.Signature(), "|")
		t.Run(name, func(t *testing.T) {
			a := New(tech, lib, cfg)
			s := getScratch()
			byText := map[string]Key{}
			byKey := map[Key]string{}
			n := 0
			for _, c := range cases {
				for _, rail := range []string{circuit.GroundNode, circuit.SupplyNode} {
					for _, bucket := range []int{0, 1, 7, 40, 1 << 20} {
						text := a.oracleKey(c.st, c.out, c.loads, rail, bucket)
						k := a.testKey(s, c.st, c.out, c.loads, rail, bucket)
						n++
						if prev, ok := byText[text]; ok && prev != k {
							t.Fatalf("equal text keys, different digest keys:\n%s\n%s vs %s", text, prev, k)
						}
						if prev, ok := byKey[k]; ok && prev != text {
							t.Fatalf("equal digest keys %s, different text keys:\n%s\n%s", k, prev, text)
						}
						byText[text], byKey[k] = k, text
					}
				}
			}
			// Both directions of the equivalence were exercised.
			if len(byKey) == n || len(byKey) < n/100 {
				t.Fatalf("%d keys over %d lookups: the corpus does not exercise both equal and distinct keys", len(byKey), n)
			}
			t.Logf("%d lookups, %d distinct keys", n, len(byKey))
		})
	}
}

// fuzzStage decodes a stage, its output and a load map from fuzz bytes:
// names are raw byte strings (separators, NULs and invalid UTF-8 included),
// geometry, junctions and caps come from short palettes so equal values
// recur, and two caps in the palette print alike at 6 digits. A device edge
// may carry a device with declared junction geometry, its drain on either
// channel end.
func fuzzStage(b []byte) (*circuit.Stage, string, map[string]float64) {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	name := func() string {
		n := min(int(next()%40), len(b))
		s := string(b[:n])
		b = b[n:]
		return s
	}
	kinds := [...]circuit.DeviceKind{circuit.KindNMOS, circuit.KindPMOS, circuit.KindWire}
	vals := [...]float64{1e-6, 2e-6, 3.5e-7, 0, 100, math.Copysign(0, -1)}
	caps := [...]float64{1e-15, 1.0000001e-15, 2e-15, 0, math.Copysign(0, -1), 1e-320}
	juncs := [...]float64{0, 1e-12, 2e-6, math.Copysign(0, -1)}
	out := name()
	st := &circuit.Stage{Outputs: []string{out}}
	for i, n := 0, int(next()%5); i < n; i++ {
		e := &circuit.StageEdge{Kind: kinds[next()%3], Src: name(), Snk: name(), Gate: name()}
		e.W, e.L, e.R = vals[next()%6], vals[next()%6], vals[next()%6]
		if side := next() % 3; side > 0 && e.Kind != circuit.KindWire {
			junc := func() mos.Junction { return mos.Junction{Area: juncs[next()%4], Perim: juncs[next()%4]} }
			t := &circuit.Transistor{Kind: e.Kind, Drain: e.Src, Source: e.Snk, DrainJunc: junc(), SourceJunc: junc()}
			if side == 2 {
				t.Drain, t.Source = e.Snk, e.Src
			}
			e.Ref = t
		}
		st.Edges = append(st.Edges, e)
		for _, nd := range []string{e.Src, e.Snk} {
			if nd != circuit.GroundNode && nd != circuit.SupplyNode && !slices.Contains(st.Nodes, nd) {
				st.Nodes = append(st.Nodes, nd)
			}
		}
	}
	sort.Strings(st.Nodes)
	loads := map[string]float64{}
	for i, n := 0, int(next()%4); i < n; i++ {
		nd := name()
		loads[nd] = caps[next()%6]
	}
	return st, out, loads
}

// canonicalContent renders everything a key must distinguish, in Go-quoted
// (unambiguous) form: the output, the sorted edges with exact float bits
// (plus, for a device declaring junction geometry, its drain side and
// junctions; zero junctions mean the W-derived default), the sorted loads
// with exact cap bits and the rail.
func canonicalContent(st *circuit.Stage, out string, loads map[string]float64, rail string) string {
	edges := make([]string, len(st.Edges))
	for i, e := range st.Edges {
		edges[i] = fmt.Sprintf("%q %q %q %q %x %x %x", e.Kind.String(), e.Src, e.Snk, e.Gate,
			math.Float64bits(e.W), math.Float64bits(e.L), math.Float64bits(e.R))
		if t := e.Ref; t != nil && (t.DrainJunc != (mos.Junction{}) || t.SourceJunc != (mos.Junction{})) {
			edges[i] += fmt.Sprintf(" drain-at-snk=%v %x %x %x %x", t.Drain != e.Src,
				math.Float64bits(t.DrainJunc.Area), math.Float64bits(t.DrainJunc.Perim),
				math.Float64bits(t.SourceJunc.Area), math.Float64bits(t.SourceJunc.Perim))
		}
	}
	sort.Strings(edges)
	var ls []string
	for n, c := range loads {
		ls = append(ls, fmt.Sprintf("%q=%x", n, math.Float64bits(c)))
	}
	sort.Strings(ls)
	return fmt.Sprintf("raw %q %q %q %q", out, edges, ls, rail)
}

// fuzzSeed assembles fuzzStage input for one output and its edges (palette
// indices as fuzzStage reads them), with one load on out at caps[0].
func fuzzSeed(out string, edges ...[4]string) []byte {
	b := append([]byte{byte(len(out))}, out...)
	b = append(b, byte(len(edges)))
	for _, e := range edges {
		kind := map[string]byte{"nmos": 0, "pmos": 1}[e[0]]
		b = append(b, kind)
		for _, s := range e[1:] {
			b = append(b, byte(len(s)))
			b = append(b, s...)
		}
		b = append(b, 0, 2, 3, 0) // W 1e-6, L 3.5e-7, R 0, no junctions
	}
	b = append(b, 1, byte(len(out)))
	b = append(b, out...)
	return append(b, 0)
}

// FuzzCacheKey: two keys are equal exactly when the canonical content they
// stand for is equal — for any node names, including the text key's
// separators, and at both rails and any bucket.
func FuzzCacheKey(f *testing.F) {
	nor := fuzzSeed("out", [4]string{"nmos", "out", "0", "g"}, [4]string{"nmos", "out", "0", "h"})
	alias := fuzzSeed("out", [4]string{"nmos", "out", "0", aliasGate})
	f.Add(nor, alias, int8(0))
	f.Add(nor, alias, int8(3))
	f.Add(nor, nor, int8(-1))
	f.Add(alias, alias, int8(1))
	// One pull-down without and with a declared drain junction
	// (AD=1e-12, PD=2e-6): the edge's last byte before the load selects
	// junctions, followed by four junction palette indices.
	inv := fuzzSeed("out", [4]string{"nmos", "out", "0", "g"})
	side := len(inv) - len("out") - 4
	invAD := slices.Concat(inv[:side], []byte{1, 1, 2, 0, 0}, inv[side+1:])
	f.Add(inv, invAD, int8(0))
	f.Add(invAD, invAD, int8(2))
	f.Fuzz(func(t *testing.T, x, y []byte, bucket int8) {
		a := New(tech, lib)
		s := getScratch()
		stX, outX, lx := fuzzStage(x)
		stY, outY, ly := fuzzStage(y)
		for _, rail := range []string{circuit.GroundNode, circuit.SupplyNode} {
			kx := a.testKey(s, stX, outX, lx, rail, int(bucket))
			ky := a.testKey(s, stY, outY, ly, rail, int(bucket))
			cx := canonicalContent(stX, outX, lx, rail)
			cy := canonicalContent(stY, outY, ly, rail)
			if (kx == ky) != (cx == cy) {
				t.Fatalf("keys equal %v, content equal %v:\n%s\n%s", kx == ky, cx == cy, cx, cy)
			}
		}
	})
}
