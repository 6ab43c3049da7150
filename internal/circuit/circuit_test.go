package circuit

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"qwm/internal/mos"
)

// nand2 builds a 2-input NAND netlist: two series NMOS to ground, two
// parallel PMOS to VDD, output node "out", internal node "n1".
func nand2() *Netlist {
	n := &Netlist{}
	n.AddTransistor(&Transistor{Name: "mn1", Kind: KindNMOS, Drain: "n1", Gate: "a", Source: "0", Body: "0", W: 1e-6, L: 0.35e-6})
	n.AddTransistor(&Transistor{Name: "mn2", Kind: KindNMOS, Drain: "out", Gate: "b", Source: "n1", Body: "0", W: 1e-6, L: 0.35e-6})
	n.AddTransistor(&Transistor{Name: "mp1", Kind: KindPMOS, Drain: "out", Gate: "a", Source: "vdd", Body: "vdd", W: 2e-6, L: 0.35e-6})
	n.AddTransistor(&Transistor{Name: "mp2", Kind: KindPMOS, Drain: "out", Gate: "b", Source: "vdd", Body: "vdd", W: 2e-6, L: 0.35e-6})
	return n
}

func TestCanonName(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"GND", "0"}, {"Vss", "0"}, {"ground", "0"}, {"0", "0"},
		{"VDD", "vdd"}, {" N1 ", "n1"},
	} {
		if got := CanonName(c.in); got != c.want {
			t.Errorf("CanonName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNetlistNodes(t *testing.T) {
	n := nand2()
	nodes := n.Nodes()
	want := []string{"0", "a", "b", "n1", "out", "vdd"}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
}

func TestNetlistValidate(t *testing.T) {
	n := nand2()
	if err := n.Validate(); err != nil {
		t.Fatalf("valid netlist rejected: %v", err)
	}
	bad := &Netlist{}
	bad.AddTransistor(&Transistor{Name: "mx", Kind: KindNMOS, Drain: "x", Gate: "g", Source: "x", Body: "0", W: 1e-6, L: 1e-6})
	if err := bad.Validate(); err == nil {
		t.Error("drain==source not caught")
	}
	bad2 := &Netlist{}
	bad2.AddTransistor(&Transistor{Name: "my", Kind: KindNMOS, Drain: "a", Gate: "g", Source: "b", Body: "0", W: 0, L: 1e-6})
	if err := bad2.Validate(); err == nil {
		t.Error("zero width not caught")
	}
	bad3 := &Netlist{}
	bad3.AddResistor("r1", "a", "a", 100)
	if err := bad3.Validate(); err == nil {
		t.Error("resistor self-loop not caught")
	}
	bad4 := &Netlist{}
	bad4.AddResistor("r1", "a", "b", -5)
	if err := bad4.Validate(); err == nil {
		t.Error("negative resistance not caught")
	}
}

func TestExtractStagesSingleGate(t *testing.T) {
	st := ExtractStages(nand2(), []string{"out"})
	if len(st) != 1 {
		t.Fatalf("got %d stages, want 1", len(st))
	}
	s := st[0]
	if len(s.Edges) != 4 {
		t.Errorf("edges = %d, want 4", len(s.Edges))
	}
	if len(s.Inputs) != 2 || s.Inputs[0] != "a" || s.Inputs[1] != "b" {
		t.Errorf("inputs = %v", s.Inputs)
	}
	if len(s.Outputs) != 1 || s.Outputs[0] != "out" {
		t.Errorf("outputs = %v", s.Outputs)
	}
}

func TestExtractStagesTwoGatesSplitAtGateBoundary(t *testing.T) {
	// Inverter driving an inverter: two stages, split at the gate net.
	n := &Netlist{}
	n.AddTransistor(&Transistor{Name: "mn1", Kind: KindNMOS, Drain: "mid", Gate: "in", Source: "0", Body: "0", W: 1e-6, L: 0.35e-6})
	n.AddTransistor(&Transistor{Name: "mp1", Kind: KindPMOS, Drain: "mid", Gate: "in", Source: "vdd", Body: "vdd", W: 2e-6, L: 0.35e-6})
	n.AddTransistor(&Transistor{Name: "mn2", Kind: KindNMOS, Drain: "out", Gate: "mid", Source: "0", Body: "0", W: 1e-6, L: 0.35e-6})
	n.AddTransistor(&Transistor{Name: "mp2", Kind: KindPMOS, Drain: "out", Gate: "mid", Source: "vdd", Body: "vdd", W: 2e-6, L: 0.35e-6})
	stages := ExtractStages(n, []string{"out"})
	if len(stages) != 2 {
		t.Fatalf("got %d stages, want 2", len(stages))
	}
	// "mid" drives a gate, so it must be an output of its stage.
	var midStage *Stage
	for _, s := range stages {
		for _, o := range s.Outputs {
			if o == "mid" {
				midStage = s
			}
		}
	}
	if midStage == nil {
		t.Fatal("no stage outputs 'mid'")
	}
}

func TestExtractStagesPassTransistorMerges(t *testing.T) {
	// NAND output channel-connected through a pass transistor (paper Fig. 1):
	// one stage spanning both.
	n := nand2()
	n.AddTransistor(&Transistor{Name: "mpass", Kind: KindNMOS, Drain: "w1", Gate: "en", Source: "out", Body: "0", W: 1e-6, L: 0.35e-6})
	stages := ExtractStages(n, []string{"w1"})
	if len(stages) != 1 {
		t.Fatalf("got %d stages, want 1 merged stage", len(stages))
	}
	if got := len(stages[0].Edges); got != 5 {
		t.Errorf("edges = %d, want 5", got)
	}
	found := false
	for _, in := range stages[0].Inputs {
		if in == "en" {
			found = true
		}
	}
	if !found {
		t.Errorf("inputs = %v, want to include en", stages[0].Inputs)
	}
}

func TestExtractStagesResistorJoins(t *testing.T) {
	// Two NMOS joined by a wire resistor: single stage (decoder-tree shape).
	n := &Netlist{}
	n.AddTransistor(&Transistor{Name: "m1", Kind: KindNMOS, Drain: "x", Gate: "g1", Source: "0", Body: "0", W: 1e-6, L: 0.35e-6})
	n.AddResistor("rw", "x", "y", 500)
	n.AddTransistor(&Transistor{Name: "m2", Kind: KindNMOS, Drain: "out", Gate: "g2", Source: "y", Body: "0", W: 1e-6, L: 0.35e-6})
	stages := ExtractStages(n, []string{"out"})
	if len(stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(stages))
	}
	if len(stages[0].Edges) != 3 {
		t.Errorf("edges = %d, want 3", len(stages[0].Edges))
	}
}

func TestEnumerateAndLongestPath(t *testing.T) {
	stages := ExtractStages(nand2(), []string{"out"})
	s := stages[0]

	down := EnumeratePathsRef(s, "out", GroundNode)
	if len(down) != 1 {
		t.Fatalf("pull-down paths = %d, want 1", len(down))
	}
	p := down[0]
	if p.Transistors() != 2 {
		t.Errorf("pull-down length = %d, want 2", p.Transistors())
	}
	if p.Elems[0].Lower != "0" || p.Elems[0].Upper != "n1" ||
		p.Elems[1].Lower != "n1" || p.Elems[1].Upper != "out" {
		t.Errorf("path orientation wrong: %+v", p.Elems)
	}

	up := EnumeratePathsRef(s, "out", SupplyNode)
	if len(up) != 2 {
		t.Fatalf("pull-up paths = %d, want 2 (parallel PMOS)", len(up))
	}

	lp, err := LongestPath(s, "out", GroundNode)
	if err != nil {
		t.Fatal(err)
	}
	if lp.Transistors() != 2 {
		t.Errorf("longest path K = %d", lp.Transistors())
	}
	// n1 reaches vdd only through out, over either parallel PMOS; the two
	// paths tie on every count and key, so the first in edge order wins.
	lp, err = LongestPath(s, "n1", "vdd")
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Elems) != 2 ||
		lp.Elems[0].Edge.Ref.Name != "mp1" || lp.Elems[0].Lower != "vdd" || lp.Elems[0].Upper != "out" ||
		lp.Elems[1].Edge.Ref.Name != "mn2" || lp.Elems[1].Lower != "out" || lp.Elems[1].Upper != "n1" {
		t.Errorf("n1 to vdd: %+v, want mp1 (vdd to out) then mn2 (out to n1)", lp.Elems)
	}
	if _, err := LongestPath(s, "nonexistent", GroundNode); err == nil {
		t.Error("expected error for unknown output node")
	}
}

func TestPathInternalNodes(t *testing.T) {
	stages := ExtractStages(nand2(), []string{"out"})
	p, err := LongestPath(stages[0], "out", GroundNode)
	if err != nil {
		t.Fatal(err)
	}
	nodes := p.InternalNodes()
	if len(nodes) != 2 || nodes[0] != "n1" || nodes[1] != "out" {
		t.Errorf("internal nodes = %v", nodes)
	}
}

func TestPathThroughWire(t *testing.T) {
	n := &Netlist{}
	n.AddTransistor(&Transistor{Name: "m1", Kind: KindNMOS, Drain: "x", Gate: "g1", Source: "0", Body: "0", W: 1e-6, L: 0.35e-6})
	n.AddResistor("rw", "x", "y", 500)
	n.AddTransistor(&Transistor{Name: "m2", Kind: KindNMOS, Drain: "out", Gate: "g2", Source: "y", Body: "0", W: 1e-6, L: 0.35e-6})
	stages := ExtractStages(n, []string{"out"})
	p, err := LongestPath(stages[0], "out", GroundNode)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Elems) != 3 || p.Transistors() != 2 {
		t.Errorf("elems = %d, K = %d; want 3, 2", len(p.Elems), p.Transistors())
	}
	if p.Elems[1].Edge.Kind != KindWire {
		t.Errorf("middle element should be the wire, got %v", p.Elems[1].Edge.Kind)
	}
}

// TestAppendTerminals pins the stage parasitic inventory: every device
// channel terminal on a node in edge order, wires and gate connections
// excluded, each with its device's own junction on that node (drain or
// source, whichever end sits there) or the W-derived default.
func TestAppendTerminals(t *testing.T) {
	tech := mos.CMOSP35()
	n := nand2()
	n.Transistors[1].DrainJunc = mos.Junction{Area: 7e-12, Perim: 9e-6}  // mn2: drain on out
	n.Transistors[1].SourceJunc = mos.Junction{Area: 5e-12, Perim: 8e-6} // mn2: source on n1
	n.AddResistor("r1", "out", "w", 10)
	st := ExtractStages(n, []string{"out"})[0]

	check := func(node string, want []Terminal) {
		t.Helper()
		got := st.AppendTerminals(nil, tech, node)
		if len(got) != len(want) {
			t.Fatalf("%s: %d terminals, want %d", node, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Edge.Ref != w.Edge.Ref || got[i].P != w.P || got[i].Junc != w.Junc || got[i].Fixed != w.Fixed {
				t.Errorf("%s[%d] = %+v, want %+v", node, i, got[i], w)
			}
		}
	}
	term := func(d *Transistor, j mos.Junction) Terminal {
		p := &tech.N
		if d.Kind == KindPMOS {
			p = &tech.P
		}
		if j == (mos.Junction{}) {
			j = p.DefaultJunction(d.W)
		}
		src, _ := p.ChannelCapSplit(d.W, d.L)
		return Terminal{Edge: &StageEdge{Ref: d}, P: p, Junc: j, Fixed: p.OverlapCap(d.W) + src}
	}
	mn1, mn2, mp1, mp2 := n.Transistors[0], n.Transistors[1], n.Transistors[2], n.Transistors[3]
	check("out", []Terminal{term(mn2, mn2.DrainJunc), term(mp1, mos.Junction{}), term(mp2, mos.Junction{})})
	check("n1", []Terminal{term(mn1, mos.Junction{}), term(mn2, mn2.SourceJunc)})
	check("w", nil)
	check("a", nil)
}

func TestDeviceKindString(t *testing.T) {
	if KindNMOS.String() != "nmos" || KindPMOS.String() != "pmos" ||
		KindWire.String() != "wire" || KindCap.String() != "cap" || KindVSrc.String() != "vsrc" {
		t.Error("DeviceKind strings wrong")
	}
	if DeviceKind(99).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

// Property: stage extraction is a partition — every transistor with a
// non-rail channel terminal appears in exactly one stage, and no two stages
// share an internal node.
func TestExtractStagesPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := &Netlist{}
		nNodes := 4 + r.Intn(10)
		nodeName := func(i int) string {
			switch i {
			case 0:
				return "0"
			case 1:
				return "vdd"
			default:
				return fmt.Sprintf("n%d", i)
			}
		}
		nDev := 3 + r.Intn(12)
		for i := 0; i < nDev; i++ {
			d := nodeName(r.Intn(nNodes))
			s := nodeName(r.Intn(nNodes))
			if d == s {
				continue
			}
			kind := KindNMOS
			if r.Intn(2) == 1 {
				kind = KindPMOS
			}
			n.AddTransistor(&Transistor{
				Name: fmt.Sprintf("m%d", i), Kind: kind,
				Drain: d, Gate: fmt.Sprintf("g%d", r.Intn(4)), Source: s,
				Body: "0", W: 1e-6, L: 0.35e-6,
			})
		}
		if len(n.Transistors) == 0 {
			return true
		}
		stages := ExtractStages(n, nil)
		// Count edge occurrences across stages.
		edgeCount := map[*Transistor]int{}
		nodeOwner := map[string]string{}
		for _, st := range stages {
			for _, e := range st.Edges {
				if e.Ref != nil {
					edgeCount[e.Ref]++
				}
			}
			for _, nd := range st.Nodes {
				if owner, dup := nodeOwner[nd]; dup && owner != st.Name {
					return false // node in two stages
				}
				nodeOwner[nd] = st.Name
			}
		}
		for _, tr := range n.Transistors {
			// Devices whose both channel terminals are rails belong to no
			// stage; all others must appear exactly once.
			railD := tr.Drain == "0" || tr.Drain == "vdd"
			railS := tr.Source == "0" || tr.Source == "vdd"
			want := 1
			if railD && railS {
				want = 0
			}
			if edgeCount[tr] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
