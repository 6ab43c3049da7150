package circuit

import (
	"slices"
	"strconv"
	"strings"

	"qwm/internal/slab"
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
// ExtractStages allocates fresh stages; Extractor.Extract is the same
// extraction over reusable buffers.
func ExtractStages(n *Netlist, observed []string) []*Stage {
	var x Extractor
	x.Nodes.Build(n)
	return x.Extract(n, observed)
}

// Extractor holds the reusable state of stage extraction: the netlist's node
// table, the union-find over its IDs, and the slabs that stages, their edges
// and their name lists are carved from. The zero value is ready to use. The
// stages Extract returns alias the Extractor: they stay valid until its next
// Extract or Reset.
type Extractor struct {
	// Nodes must hold the netlist's table (Nodes.Build) before Extract.
	Nodes NodeTable

	boundary, isOut  []bool
	parent, groupOf  []int32
	elemGroup        []int32
	edgeOff, nodeOff []int32 // per-group starts in edgePtrs and members
	members          []int32
	stages           []Stage
	ptrs             []*Stage
	edges            []StageEdge
	edgePtrs         []*StageEdge
	names            []string
	stageNames       []string // "stage0", "stage1", …: not netlist data, kept across uses
}

// Extract partitions n into stages exactly as ExtractStages does. Every node
// already has its ID in x.Nodes; the union-find, the grouping and the output
// marks run over slices indexed by it, and each stage's edges and name lists
// are capped sub-slices of shared slabs, so appending to one never
// overwrites another.
func (x *Extractor) Extract(n *Netlist, observed []string) []*Stage {
	nt := &x.Nodes
	nn := len(nt.Names)
	nmos := len(n.Transistors)
	nElem := nmos + len(n.Resistors)

	// Boundary nodes — the rails and source-driven nets — split components.
	x.boundary = slab.Resize(x.boundary, nn)
	clear(x.boundary)
	for _, rail := range [2]string{GroundNode, SupplyNode} {
		if id, ok := nt.Lookup(rail); ok {
			x.boundary[id] = true
		}
	}
	for i := range n.VSources {
		a, _ := nt.VSourceEnds(i)
		x.boundary[a] = true
	}
	// ends returns element e's two channel terminals (transistors first,
	// then resistors), −1 for a boundary node.
	ends := func(e int) (int32, int32) {
		var a, b int32
		if e < nmos {
			a, b = nt.Drain(e), nt.Source(e)
		} else {
			a, b = nt.ResistorEnds(e - nmos)
		}
		if x.boundary[a] {
			a = -1
		}
		if x.boundary[b] {
			b = -1
		}
		return a, b
	}

	// Union-find over the IDs.
	x.parent = slab.Resize(x.parent, nn)
	parent := x.parent
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for e := 0; e < nElem; e++ {
		if a, b := ends(e); a >= 0 && b >= 0 {
			if ra, rb := find(a), find(b); ra != rb {
				parent[ra] = rb
			}
		}
	}

	// One group per component, numbered in order of first element;
	// edgeOff[g+1] counts group g's edges.
	x.groupOf = slab.Resize(x.groupOf, nn)
	for i := range x.groupOf {
		x.groupOf[i] = -1
	}
	x.elemGroup = slab.Resize(x.elemGroup, nElem)
	x.edgeOff = append(x.edgeOff[:0], 0)
	for e := 0; e < nElem; e++ {
		a, b := ends(e)
		if a < 0 {
			a = b
		}
		if a < 0 {
			x.elemGroup[e] = -1 // degenerate: both channel terminals on rails
			continue
		}
		root := find(a)
		if x.groupOf[root] < 0 {
			x.groupOf[root] = int32(len(x.edgeOff) - 1)
			x.edgeOff = append(x.edgeOff, 0)
		}
		x.elemGroup[e] = x.groupOf[root]
		x.edgeOff[x.groupOf[root]+1]++
	}
	ng := len(x.edgeOff) - 1
	if ng == 0 {
		return nil
	}

	// Edges in element order, each group's contiguous.
	x.edges = slab.Resize(x.edges, nElem)
	toStarts(x.edgeOff)
	x.edgePtrs = slab.Resize(x.edgePtrs, int(x.edgeOff[ng]))
	for e := 0; e < nElem; e++ {
		se := &x.edges[e]
		g := x.elemGroup[e]
		switch {
		case g < 0:
			*se = StageEdge{}
			continue
		case e < nmos:
			t := n.Transistors[e]
			*se = StageEdge{
				Kind: t.Kind, Src: t.Drain, Snk: t.Source, Gate: t.Gate,
				W: t.W, L: t.L, Ref: t,
			}
		default:
			r := n.Resistors[e-nmos]
			*se = StageEdge{Kind: KindWire, Src: r.A, Snk: r.B, R: r.R}
		}
		x.edgePtrs[x.edgeOff[g]] = se
		x.edgeOff[g]++
	}
	rewind(x.edgeOff)

	// Each group's members are its non-boundary channel terminals, in ID
	// order for now.
	x.nodeOff = slab.Resize(x.nodeOff, ng+1)
	clear(x.nodeOff)
	for i := 0; i < nn; i++ {
		if g := x.groupOf[find(int32(i))]; g >= 0 && !x.boundary[i] {
			x.nodeOff[g+1]++
		}
	}
	toStarts(x.nodeOff)
	x.members = slab.Resize(x.members, int(x.nodeOff[ng]))
	for i := 0; i < nn; i++ {
		if g := x.groupOf[find(int32(i))]; g >= 0 && !x.boundary[i] {
			x.members[x.nodeOff[g]] = int32(i)
			x.nodeOff[g]++
		}
	}
	rewind(x.nodeOff)

	// Nodes that feed gates anywhere, or are observed, are outputs.
	x.isOut = slab.Resize(x.isOut, nn)
	clear(x.isOut)
	for i := range n.Transistors {
		x.isOut[nt.Gate(i)] = true
	}
	for _, o := range observed {
		if id, ok := nt.Lookup(CanonName(o)); ok {
			x.isOut[id] = true
		}
	}

	// Sorted node, output and input lists per stage, carved from one name
	// slab: a stage holds at most its members twice (nodes and outputs) plus
	// one input per edge.
	x.names = slab.Resize(x.names, 2*len(x.members)+len(x.edgePtrs))
	x.stages = slab.Resize(x.stages, ng)
	x.ptrs = slab.Resize(x.ptrs, ng)
	pos := 0
	carve := func(from int) []string {
		if pos == from {
			return nil
		}
		return x.names[from:pos:pos]
	}
	for g := range x.stages {
		st := &x.stages[g]
		*st = Stage{Edges: x.edgePtrs[x.edgeOff[g]:x.edgeOff[g+1]:x.edgeOff[g+1]]}
		mem := x.members[x.nodeOff[g]:x.nodeOff[g+1]]
		slices.SortFunc(mem, func(a, b int32) int { return strings.Compare(nt.Names[a], nt.Names[b]) })
		from := pos
		for _, id := range mem {
			x.names[pos] = nt.Names[id]
			pos++
		}
		st.Nodes = carve(from)
		from = pos
		for _, id := range mem {
			if x.isOut[id] {
				x.names[pos] = nt.Names[id]
				pos++
			}
		}
		st.Outputs = carve(from)
		from = pos
		for _, e := range st.Edges {
			if e.Gate != "" {
				x.names[pos] = e.Gate
				pos++
			}
		}
		slices.Sort(x.names[from:pos])
		pos = from + len(slices.Compact(x.names[from:pos]))
		st.Inputs = carve(from)
		x.ptrs[g] = st
	}

	// Deterministic ordering of stages by their smallest node name; the
	// components are disjoint, so the names never tie.
	stages := x.ptrs[:ng:ng]
	slices.SortFunc(stages, func(a, b *Stage) int { return strings.Compare(a.Nodes[0], b.Nodes[0]) })
	for i := len(x.stageNames); i < ng; i++ {
		x.stageNames = append(x.stageNames, "stage"+strconv.Itoa(i))
	}
	for si, st := range stages {
		st.Name = x.stageNames[si]
	}
	return stages
}

// Reset drops every reference the extractor holds into the netlists it
// saw, keeping all capacity.
func (x *Extractor) Reset() {
	x.Nodes.reset()
	clear(x.stages)
	clear(x.ptrs)
	clear(x.edges)
	clear(x.edgePtrs)
	clear(x.names)
}

// toStarts turns per-group counts held in off[g+1] into group starts in
// off[g]; off[len(off)-1] becomes the total. Filling group g then advances
// off[g], and rewind restores the starts.
func toStarts(off []int32) {
	off[0] = 0
	for g := 1; g < len(off); g++ {
		off[g] += off[g-1]
	}
}

// rewind undoes the fill cursors toStarts set up: after filling, off[g]
// holds group g's end, which is group g+1's start.
func rewind(off []int32) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}
