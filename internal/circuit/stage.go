package circuit

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Stage is the paper's Definition 1: a CMOS logic stage as a polar directed
// graph. Vertices are circuit nodes (with VDD as source pole and ground as
// sink pole); edges are the channel terminals of transistors and resistive
// wire segments. Inputs are the gate nets of the stage's transistors;
// outputs are the nodes observed by downstream logic.
type Stage struct {
	Name    string
	Nodes   []string // internal + boundary nodes, sorted, excluding rails
	Edges   []*StageEdge
	Inputs  []string // gate net names, sorted
	Outputs []string // observed node names
}

// StageEdge is one element of the stage graph.
type StageEdge struct {
	Kind DeviceKind // KindNMOS, KindPMOS or KindWire
	Src  string     // node closer to the supply pole by convention
	Snk  string
	Gate string  // input net for transistors, "" for wires
	W, L float64 // transistor geometry
	R    float64 // wire resistance (KindWire)
	Ref  *Transistor
}

// ExtractStages partitions a netlist into logic stages by channel-connected
// components: transistors whose source/drain terminals are transitively
// connected through non-rail nodes belong to the same stage (the paper's
// "set of channel-connected transistors and wire segments"). Resistors join
// components the same way wires do. Gate terminals do NOT connect stages —
// that is the partition boundary that makes per-stage analysis possible.
//
// driven lists nets driven by sources (rails and primary inputs); they act
// as partition boundaries like rails. Outputs of each stage are the nodes
// that appear as gate inputs of some *other* component or are listed in
// observed.
//
// Every non-boundary channel node gets a dense ID once; the union-find and
// the grouping then run over slices indexed by it.
func ExtractStages(n *Netlist, observed []string) []*Stage {
	// Dense IDs for the non-boundary channel terminals; boundary nodes map
	// to −1. ends[2e], ends[2e+1] are element e's two terminals,
	// transistors first, then resistors.
	ids := map[string]int32{GroundNode: -1, SupplyNode: -1}
	for _, v := range n.VSources {
		ids[v.A] = -1
	}
	var names []string
	id := func(nd string) int32 {
		if i, ok := ids[nd]; ok {
			return i
		}
		i := int32(len(names))
		ids[nd] = i
		names = append(names, nd)
		return i
	}
	nt := len(n.Transistors)
	ends := make([]int32, 0, 2*(nt+len(n.Resistors)))
	for _, t := range n.Transistors {
		ends = append(ends, id(t.Drain), id(t.Source))
	}
	for _, r := range n.Resistors {
		ends = append(ends, id(r.A), id(r.B))
	}

	// Union-find over the IDs.
	parent := make([]int32, len(names))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for e := 0; e < len(ends); e += 2 {
		if a, b := ends[e], ends[e+1]; a >= 0 && b >= 0 {
			if ra, rb := find(a), find(b); ra != rb {
				parent[ra] = rb
			}
		}
	}

	// One group per component, numbered in order of first element.
	groupOf := make([]int32, len(names))
	for i := range groupOf {
		groupOf[i] = -1
	}
	var stages []*Stage
	var members [][]int32 // node IDs per group
	edges := make([]StageEdge, len(ends)/2)
	for e := 0; e < len(ends); e += 2 {
		nd := ends[e]
		if nd < 0 {
			nd = ends[e+1]
		}
		if nd < 0 {
			continue // degenerate: both channel terminals on rails
		}
		root := find(nd)
		if groupOf[root] < 0 {
			groupOf[root] = int32(len(stages))
			stages = append(stages, &Stage{})
			members = append(members, nil)
		}
		st := stages[groupOf[root]]
		k := e / 2
		se := &edges[k]
		if k < nt {
			t := n.Transistors[k]
			*se = StageEdge{
				Kind: t.Kind, Src: t.Drain, Snk: t.Source, Gate: t.Gate,
				W: t.W, L: t.L, Ref: t,
			}
		} else {
			r := n.Resistors[k-nt]
			*se = StageEdge{Kind: KindWire, Src: r.A, Snk: r.B, R: r.R}
		}
		st.Edges = append(st.Edges, se)
	}

	// Nodes that feed gates anywhere, or are observed, are outputs.
	isOut := make([]bool, len(names))
	for _, t := range n.Transistors {
		if i, ok := ids[t.Gate]; ok && i >= 0 {
			isOut[i] = true
		}
	}
	for _, o := range observed {
		if i, ok := ids[CanonName(o)]; ok && i >= 0 {
			isOut[i] = true
		}
	}
	for i := range names {
		g := groupOf[find(int32(i))]
		members[g] = append(members[g], int32(i))
	}

	// Sorted node and input lists per stage.
	for g, st := range stages {
		nodes := members[g]
		slices.SortFunc(nodes, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
		st.Nodes = make([]string, len(nodes))
		for k, nd := range nodes {
			st.Nodes[k] = names[nd]
			if isOut[nd] {
				st.Outputs = append(st.Outputs, names[nd])
			}
		}
		for _, e := range st.Edges {
			if e.Gate != "" {
				st.Inputs = append(st.Inputs, e.Gate)
			}
		}
		sort.Strings(st.Inputs)
		st.Inputs = slices.Compact(st.Inputs)
	}
	// Deterministic ordering of stages by their smallest node name; the
	// components are disjoint, so the names never tie.
	sort.Slice(stages, func(i, j int) bool { return stages[i].Nodes[0] < stages[j].Nodes[0] })
	for si, st := range stages {
		st.Name = "stage" + strconv.Itoa(si)
	}
	return stages
}
