package circuit_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

// TestExtractStagesMatchesReference holds the dense-ID ExtractStages to the
// map-based extraction it replaced, kept below as the oracle: identical
// stage names, Nodes, Inputs, Outputs and edges in the same order, on 2–5
// bit decoders, the Table I/II circuits, the wide and Manchester netlists,
// every parseable deck in the repository's fuzz corpora and seeded random
// netlists with resistors and source-driven nodes — both fresh and through
// one reused Extractor.
func TestExtractStagesMatchesReference(t *testing.T) {
	tech := mos.CMOSP35()
	type tc struct {
		name     string
		nl       *circuit.Netlist
		observed []string
	}
	var cases []tc
	for bits := 2; bits <= 5; bits++ {
		nl, _, outs, err := stages.DecoderNetlist(tech, bits, 1e-6, 20e-15)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("decoder%d", bits), nl, outs})
	}
	t1, err := stages.TableI(tech)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := stages.TableII(tech)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(t1, t2...) {
		cases = append(cases, tc{w.Name, w.Netlist, []string{w.Output}})
	}
	if nl, _, outs, err := stages.WideNetlist(tech, 4, 3, 1e-6, 10e-15); err == nil {
		cases = append(cases, tc{"wide", nl, outs})
	} else {
		t.Fatal(err)
	}
	if w, err := stages.ManchesterChain(tech, 4, 1e-6, 2e-6, 10e-15, 0); err == nil {
		cases = append(cases, tc{"manchester", w.Netlist, []string{w.Output}})
	} else {
		t.Fatal(err)
	}
	decks, err := filepath.Glob("../*/testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range decks {
		text, ok := corpusString(t, path)
		if !ok {
			continue
		}
		if d, err := netlist.ParseString(text); err == nil {
			cases = append(cases, tc{path, d.Netlist, nil})
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		cases = append(cases, tc{fmt.Sprintf("random%d", seed), randomNetlist(seed), []string{"N3", "n7", "gnd"}})
	}
	// One Extractor serves every case in turn, so stale slab contents from
	// a larger or differently shaped netlist would show up as a mismatch.
	var x circuit.Extractor
	for _, c := range cases {
		got := circuit.ExtractStages(c.nl, c.observed)
		want := extractStagesRef(c.nl, c.observed)
		x.Nodes.Build(c.nl)
		if reused := x.Extract(c.nl, c.observed); !reflect.DeepEqual(reused, want) {
			t.Errorf("%s: a reused Extractor differs from the reference", c.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ExtractStages differs from the reference", c.name)
			for i := 0; i < len(got) && i < len(want); i++ {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Logf("  stage %d: got %+v\n  want %+v", i, *got[i], *want[i])
					break
				}
			}
		}
	}
}

// corpusString decodes a one-string go fuzz corpus file.
func corpusString(t *testing.T, path string) (string, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(b), "\n", 2)
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
		return "", false
	}
	body := strings.TrimSuffix(strings.TrimSpace(lines[1]), ")")
	s, err := strconv.Unquote(strings.TrimPrefix(body, "string("))
	return s, err == nil
}

// randomNetlist wires transistors and resistors among a small node pool
// that includes both rails and a source-driven node, so components merge,
// touch boundaries and occasionally degenerate to rail-to-rail elements.
func randomNetlist(seed int64) *circuit.Netlist {
	rng := rand.New(rand.NewSource(seed))
	pool := []string{"0", "vdd", "in", "N1", "n2", "N3", "n4", "n5", "n6", "n7", "n8", "a", "b"}
	pick := func() string { return pool[rng.Intn(len(pool))] }
	nl := &circuit.Netlist{}
	nl.AddVSource("vin", "in", "0", wave.DC(1))
	nl.AddVSource("vvdd", "vdd", "0", wave.DC(3.3))
	for i := 0; i < 3+rng.Intn(14); i++ {
		kind := circuit.KindNMOS
		if rng.Intn(2) == 0 {
			kind = circuit.KindPMOS
		}
		nl.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("m%d", i), Kind: kind,
			Drain: pick(), Gate: pick(), Source: pick(), Body: "0", W: 1e-6, L: 0.35e-6,
		})
	}
	for i := 0; i < rng.Intn(6); i++ {
		nl.AddResistor(fmt.Sprintf("r%d", i), pick(), pick(), 100)
	}
	return nl
}

// extractStagesRef is the map-based ExtractStages the dense-ID version
// replaced.
func extractStagesRef(n *circuit.Netlist, observed []string) []*circuit.Stage {
	isBoundary := map[string]bool{circuit.GroundNode: true, circuit.SupplyNode: true}
	for _, v := range n.VSources {
		isBoundary[v.A] = true
	}
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			parent[x] = find(p)
		}
		return parent[x]
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	connect := func(a, b string) {
		switch {
		case isBoundary[a] && isBoundary[b]:
		case isBoundary[a]:
			find(b)
		case isBoundary[b]:
			find(a)
		default:
			union(a, b)
		}
	}
	for _, t := range n.Transistors {
		connect(t.Drain, t.Source)
	}
	for _, r := range n.Resistors {
		connect(r.A, r.B)
	}
	type group struct {
		nodes map[string]bool
		edges []*circuit.StageEdge
	}
	minName := func(g *group) string {
		first := ""
		for nd := range g.nodes {
			if first == "" || nd < first {
				first = nd
			}
		}
		return first
	}
	groups := map[string]*group{}
	groupOf := func(nodes ...string) *group {
		for _, nd := range nodes {
			if !isBoundary[nd] {
				root := find(nd)
				g := groups[root]
				if g == nil {
					g = &group{nodes: map[string]bool{}}
					groups[root] = g
				}
				return g
			}
		}
		return nil
	}
	addNodes := func(g *group, nodes ...string) {
		for _, nd := range nodes {
			if !isBoundary[nd] {
				g.nodes[nd] = true
			}
		}
	}
	for _, t := range n.Transistors {
		g := groupOf(t.Drain, t.Source)
		if g == nil {
			continue
		}
		addNodes(g, t.Drain, t.Source)
		g.edges = append(g.edges, &circuit.StageEdge{
			Kind: t.Kind, Src: t.Drain, Snk: t.Source, Gate: t.Gate,
			W: t.W, L: t.L, Ref: t,
		})
	}
	for _, r := range n.Resistors {
		g := groupOf(r.A, r.B)
		if g == nil {
			continue
		}
		addNodes(g, r.A, r.B)
		g.edges = append(g.edges, &circuit.StageEdge{Kind: circuit.KindWire, Src: r.A, Snk: r.B, R: r.R})
	}
	gateNets := map[string]bool{}
	for _, t := range n.Transistors {
		gateNets[t.Gate] = true
	}
	obs := map[string]bool{}
	for _, o := range observed {
		obs[circuit.CanonName(o)] = true
	}
	roots := make([]string, 0, len(groups))
	for root := range groups {
		roots = append(roots, root)
	}
	sort.Slice(roots, func(i, j int) bool {
		return minName(groups[roots[i]]) < minName(groups[roots[j]])
	})
	var out []*circuit.Stage
	for si, root := range roots {
		g := groups[root]
		st := &circuit.Stage{Name: fmt.Sprintf("stage%d", si)}
		for nd := range g.nodes {
			st.Nodes = append(st.Nodes, nd)
		}
		sort.Strings(st.Nodes)
		st.Edges = g.edges
		inSet := map[string]bool{}
		for _, e := range g.edges {
			if e.Gate != "" {
				inSet[e.Gate] = true
			}
		}
		for in := range inSet {
			st.Inputs = append(st.Inputs, in)
		}
		sort.Strings(st.Inputs)
		for _, nd := range st.Nodes {
			if gateNets[nd] || obs[nd] {
				st.Outputs = append(st.Outputs, nd)
			}
		}
		out = append(out, st)
	}
	return out
}
