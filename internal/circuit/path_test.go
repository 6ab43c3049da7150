package circuit_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/stages"
)

// TestLongestPathMatchesEnumeration holds LongestPath's one search to the
// enumeration it replaced (circuit.LongestPathRef): the same edges in the
// same order with the same Lower and Upper names, or the same error, for
// every stage node × rail of the Table I/II circuits, the 2–5-bit decoders,
// the wide netlist and 200 seeded random series-parallel stages whose node
// names hold bytes below "/" and names that prefix each other.
func TestLongestPathMatchesEnumeration(t *testing.T) {
	tech := mos.CMOSP35()
	var sts []*circuit.Stage
	t1, err := stages.TableI(tech)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := stages.TableII(tech)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(t1, t2...) {
		sts = append(sts, circuit.ExtractStages(w.Netlist, []string{w.Output})...)
	}
	for bits := 2; bits <= 5; bits++ {
		nl, _, outs, err := stages.DecoderNetlist(tech, bits, 1e-6, 20e-15)
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, circuit.ExtractStages(nl, outs)...)
	}
	nl, _, outs, err := stages.WideNetlist(tech, 4, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	sts = append(sts, circuit.ExtractStages(nl, outs)...)
	for seed := int64(1); seed <= 200; seed++ {
		sts = append(sts, seriesParallelStage(rand.New(rand.NewSource(seed))))
	}
	n := 0
	for _, st := range sts {
		for _, out := range append(st.Nodes, "nonexistent", circuit.SupplyNode, circuit.GroundNode) {
			for _, rail := range []string{circuit.GroundNode, circuit.SupplyNode} {
				comparePaths(t, st, out, rail)
				n++
			}
		}
	}
	t.Logf("%d stages, %d searches", len(sts), n)
}

// FuzzLongestPath holds LongestPath to the enumeration oracle on small
// stage graphs with arbitrary node-name bytes. names is split at '|' into a
// node pool that always holds both rails; each byte triple of wiring adds
// an edge (kind, Src, Snk picked from the pool), and the first name of the
// pool is the output. Node names come from client netlists, so none may
// make the search panic or disagree.
func FuzzLongestPath(f *testing.F) {
	f.Add("out|n1", []byte{0, 0, 2, 0, 2, 3})
	f.Add("out|n-1|n.1|n|n/", []byte{0, 0, 2, 1, 2, 3, 0, 0, 4, 0, 4, 3, 2, 0, 5, 0, 5, 3, 1, 0, 1, 1, 1, 0})
	f.Add("OUT|x", []byte{0, 0, 2, 0, 2, 3, 1, 0, 1})
	f.Fuzz(func(t *testing.T, names string, wiring []byte) {
		pool := append(strings.Split(names, "|"), circuit.GroundNode, circuit.SupplyNode)
		if len(pool) > 16 || len(wiring) > 3*16 {
			return
		}
		st := &circuit.Stage{Name: "fuzz"}
		for i := 0; i+2 < len(wiring); i += 3 {
			e := &circuit.StageEdge{
				Kind: circuit.DeviceKind(wiring[i] % 3),
				Src:  pool[int(wiring[i+1])%len(pool)],
				Snk:  pool[int(wiring[i+2])%len(pool)],
			}
			st.Edges = append(st.Edges, e)
		}
		for _, rail := range []string{circuit.GroundNode, circuit.SupplyNode} {
			comparePaths(t, st, pool[0], rail)
		}
	})
}

// comparePaths fails t when LongestPath and the oracle disagree on
// (st, out, rail).
func comparePaths(t *testing.T, st *circuit.Stage, out, rail string) {
	t.Helper()
	got, gotErr := circuit.LongestPath(st, out, rail)
	want, wantErr := circuit.LongestPathRef(st, out, rail)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s %q to %q: error %v, want %v", st.Name, out, rail, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q to %q:\n got %s\nwant %s", st.Name, out, rail, describePath(got), describePath(want))
	}
}

func describePath(p *circuit.Path) string {
	if p == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, e := range p.Elems {
		fmt.Fprintf(&b, "[%v %q-%q %p] ", e.Edge.Kind, e.Lower, e.Upper, e.Edge)
	}
	return b.String()
}

// spNames are random series-parallel node names: several hold bytes below
// "/" ('-', '.', '+') or "/" itself, and some prefix others, so path keys
// order differently from their first differing names.
var spNames = []string{"n", "n-", "n.", "n/", "n/a", "n-1", "n.1", "n1", "na", "n+", "out", "x", "x.y", "x-y", "vdd", "0"}

// seriesParallelStage builds a random series-parallel network between the
// rails, through an output: a pull-down of NMOS and wires below it and a
// pull-up of PMOS and wires above it. Internal nodes take names from
// spNames, sometimes reused, so networks also merge; the rails appear among
// them as well.
func seriesParallelStage(r *rand.Rand) *circuit.Stage {
	st := &circuit.Stage{Name: "sp"}
	fresh := 0
	node := func() string {
		fresh++
		if r.Intn(4) == 0 {
			return spNames[r.Intn(len(spNames))]
		}
		return fmt.Sprintf("%s%d", spNames[r.Intn(len(spNames)-2)], fresh)
	}
	var build func(a, b string, kind circuit.DeviceKind, depth int)
	build = func(a, b string, kind circuit.DeviceKind, depth int) {
		switch c := r.Intn(5); {
		case depth > 3 || c < 2:
			k := kind
			if r.Intn(5) == 0 {
				k = circuit.KindWire
			}
			st.Edges = append(st.Edges, &circuit.StageEdge{Kind: k, Src: a, Snk: b})
		case c < 4: // series
			mid := node()
			build(a, mid, kind, depth+1)
			build(mid, b, kind, depth+1)
		default: // parallel
			build(a, b, kind, depth+1)
			build(a, b, kind, depth+1)
		}
	}
	build("out", circuit.GroundNode, circuit.KindNMOS, 0)
	build(circuit.SupplyNode, "out", circuit.KindPMOS, 0)
	seen := map[string]bool{circuit.GroundNode: true, circuit.SupplyNode: true}
	for _, e := range st.Edges {
		for _, nd := range []string{e.Src, e.Snk} {
			if !seen[nd] {
				seen[nd] = true
				st.Nodes = append(st.Nodes, nd)
			}
		}
	}
	return st
}
