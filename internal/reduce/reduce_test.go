package reduce

import (
	"math"
	"strings"
	"testing"

	"qwm/internal/awe"
	"qwm/internal/circuit"
)

// chainStage builds a single-NMOS pulldown stage whose output hangs at the
// end of an n-segment series wire: 0 —nmos— n1 —w1—…—w(n-1)— out. Each
// internal wire node carries an explicit load cap.
func chainStage(n int) (*circuit.Stage, map[string]float64) {
	st := &circuit.Stage{Name: "chain", Inputs: []string{"g"}, Outputs: []string{"out"}}
	st.Edges = append(st.Edges, &circuit.StageEdge{
		Kind: circuit.KindNMOS, Src: "n1", Snk: "0", Gate: "g", W: 2e-6, L: 0.35e-6,
	})
	loads := map[string]float64{"out": 10e-15}
	prev := "n1"
	nodes := []string{"n1"}
	for i := 1; i <= n; i++ {
		next := "out"
		if i < n {
			next = "w" + string(rune('a'+i-1))
			loads[next] = (1 + 0.1*float64(i)) * 1e-15
		}
		st.Edges = append(st.Edges, &circuit.StageEdge{
			Kind: circuit.KindWire, Src: prev, Snk: next, R: 40 + 5*float64(i),
		})
		nodes = append(nodes, next)
		prev = next
	}
	st.Nodes = nodes
	return st, loads
}

func wireRunMoments(t *testing.T, p *circuit.Path, loads map[string]float64) (m1, m2, rtot, ctot float64) {
	t.Helper()
	var segs []awe.ChainSeg
	for _, pe := range p.Elems {
		if pe.Edge.Kind != circuit.KindWire {
			continue
		}
		c := 0.0
		if pe.Upper != p.Output {
			c = loads[pe.Upper]
		}
		segs = append(segs, awe.ChainSeg{R: pe.Edge.R, C: c})
	}
	if len(segs) == 0 {
		t.Fatal("path has no wire run")
	}
	m1, m2 = awe.ChainMoments(segs, loads[p.Output])
	rtot, ctot = awe.ChainTotals(segs)
	ctot += loads[p.Output]
	return m1, m2, rtot, ctot
}

func TestPathCollapsesLongRun(t *testing.T) {
	st, loads := chainStage(12)
	p, err := circuit.LongestPath(st, "out", "0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TolPct: 1}
	rp, rl, stats := Path(st, p, loads, cfg)
	if rp == p || len(rp.Elems) >= len(p.Elems) {
		t.Fatalf("no collapse: %d -> %d elems", len(p.Elems), len(rp.Elems))
	}
	if stats.RunsCollapsed != 1 || stats.NodesRemoved == 0 {
		t.Fatalf("stats = %+v, want one collapsed run with removed nodes", stats)
	}
	if stats.NodesRemoved != (len(p.Elems) - len(rp.Elems)) {
		t.Fatalf("NodesRemoved = %d, elems shrank by %d", stats.NodesRemoved, len(p.Elems)-len(rp.Elems))
	}
	// The transistor element must be untouched, and the path must still end
	// at the output.
	if rp.Elems[0].Edge.Kind != circuit.KindNMOS || rp.Output != "out" || rp.Elems[len(rp.Elems)-1].Upper != "out" {
		t.Fatalf("reduced path malformed: %+v", rp)
	}
	// Elmore, total R and total C of the wire run (load included) preserved;
	// second moment within tolerance.
	m1, m2, r0, c0 := wireRunMoments(t, p, loads)
	m1r, m2r, r1, c1 := wireRunMoments(t, rp, rl)
	if math.Abs(m1r-m1) > 1e-9*math.Abs(m1) {
		t.Fatalf("Elmore changed: %g -> %g", m1, m1r)
	}
	if math.Abs(r1-r0) > 1e-12*r0 || math.Abs(c1-c0) > 1e-12*c0 {
		t.Fatalf("totals changed: R %g->%g, C %g->%g", r0, r1, c0, c1)
	}
	if got := math.Abs(m2r-m2) / (m1 * m1); got > cfg.TolPct/100 {
		t.Fatalf("m2 mismatch %g exceeds tol", got)
	}
	if stats.ErrMax > cfg.TolPct/100 {
		t.Fatalf("ErrMax %g exceeds tol", stats.ErrMax)
	}
	// Interior load entries must be rewritten onto the synthetic nodes only.
	for n := range rl {
		if strings.HasPrefix(n, "w") {
			t.Fatalf("stale interior load entry %q in reduced loads", n)
		}
	}
	// The caller's maps/paths must be untouched.
	if len(p.Elems) != 13 || loads["wa"] == 0 {
		t.Fatal("inputs were mutated")
	}
}

func TestPathDisabledAndShortRunsPassThrough(t *testing.T) {
	st, loads := chainStage(12)
	p, _ := circuit.LongestPath(st, "out", "0")
	if rp, rl, stats := Path(st, p, loads, Config{}); rp != p || &rl == nil || stats.NodesRemoved != 0 {
		t.Fatal("disabled config must be a no-op returning the same path")
	}
	st3, loads3 := chainStage(3)
	p3, _ := circuit.LongestPath(st3, "out", "0")
	rp, rl, _ := Path(st3, p3, loads3, Config{TolPct: 1})
	if rp != p3 {
		t.Fatalf("run shorter than minRun must pass through, got %d elems", len(rp.Elems))
	}
	for k, v := range loads3 {
		if rl[k] != v {
			t.Fatalf("loads changed on pass-through: %q", k)
		}
	}
}

func TestPathTighterTolKeepsMoreSegments(t *testing.T) {
	st, loads := chainStage(24)
	p, _ := circuit.LongestPath(st, "out", "0")
	loose, _, _ := Path(st, p, loads, Config{TolPct: 20})
	tight, _, _ := Path(st, p, loads, Config{TolPct: 1e-4})
	if len(tight.Elems) < len(loose.Elems) {
		t.Fatalf("tighter tol gave fewer elems: %d < %d", len(tight.Elems), len(loose.Elems))
	}
}

// TestSignature pins the literal cache-key suffixes: they name delay-cache
// entries and disk namespaces, so they must never move.
func TestSignature(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, ""},
		{Config{TolPct: -5}, ""},
		{Config{TolPct: 1}, "|red:1:4"},
		{Config{TolPct: 5}, "|red:5:4"},
		{Config{TolPct: 0.5}, "|red:0.5:4"},
	} {
		if got := tc.cfg.Signature(); got != tc.want {
			t.Errorf("%+v.Signature() = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}
