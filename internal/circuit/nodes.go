package circuit

import "slices"

// NodeTable gives every node a netlist's devices touch a dense ID, once, and
// records each device terminal's ID, so the passes that follow (pre-flight
// checks, stage extraction, load accounting) index slices instead of hashing
// node names again. Body terminals are not numbered: no pass reads them.
//
// Terminal IDs are read through Drain, Gate, Source and the *Ends
// accessors; how they are laid out is this file's business alone. Build
// numbers the terminals' nodes first; IDs past those are names a caller
// added with ID afterwards (the pre-flight checks add canonical spellings no
// terminal uses), which no terminal refers to.
//
// A table is reusable: Build replaces its contents and keeps its map buckets
// and slice capacity. Names holds the netlist's own strings; a table kept
// past its netlist lets them go through Extractor.Reset.
type NodeTable struct {
	ids map[string]int32
	// Names maps an ID back to its node name.
	Names []string
	// Terminal IDs in device order: three per transistor (drain, gate,
	// source) and two per resistor, source and capacitor (A, B).
	mos, res, src, caps []int32
}

// Build numbers n's nodes in device order: transistors, resistors, sources,
// then capacitors.
func (t *NodeTable) Build(n *Netlist) {
	t.reset()
	if t.ids == nil {
		t.ids = make(map[string]int32, len(n.Transistors))
	}
	// Sized once, so a first Build allocates each slice once rather than
	// doubling it up to size.
	t.Names = slices.Grow(t.Names, len(n.Transistors)+len(n.Capacitors))
	t.mos = slices.Grow(t.mos, 3*len(n.Transistors))
	t.res = slices.Grow(t.res, 2*len(n.Resistors))
	t.src = slices.Grow(t.src, 2*len(n.VSources))
	t.caps = slices.Grow(t.caps, 2*len(n.Capacitors))
	for _, tr := range n.Transistors {
		t.mos = append(t.mos, t.ID(tr.Drain), t.ID(tr.Gate), t.ID(tr.Source))
	}
	for _, r := range n.Resistors {
		t.res = append(t.res, t.ID(r.A), t.ID(r.B))
	}
	for _, v := range n.VSources {
		t.src = append(t.src, t.ID(v.A), t.ID(v.B))
	}
	for _, c := range n.Capacitors {
		t.caps = append(t.caps, t.ID(c.A), t.ID(c.B))
	}
}

// Drain, Gate and Source return the terminal IDs of the netlist's i-th
// transistor.
func (t *NodeTable) Drain(i int) int32  { return t.mos[3*i] }
func (t *NodeTable) Gate(i int) int32   { return t.mos[3*i+1] }
func (t *NodeTable) Source(i int) int32 { return t.mos[3*i+2] }

// ResistorEnds, VSourceEnds and CapacitorEnds return the (A, B) terminal IDs
// of the netlist's i-th resistor, voltage source and capacitor.
func (t *NodeTable) ResistorEnds(i int) (a, b int32)  { return t.res[2*i], t.res[2*i+1] }
func (t *NodeTable) VSourceEnds(i int) (a, b int32)   { return t.src[2*i], t.src[2*i+1] }
func (t *NodeTable) CapacitorEnds(i int) (a, b int32) { return t.caps[2*i], t.caps[2*i+1] }

// ID returns name's ID, numbering it first if the table lacks it.
func (t *NodeTable) ID(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = map[string]int32{}
	}
	id := int32(len(t.Names))
	t.ids[name] = id
	t.Names = append(t.Names, name)
	return id
}

// Lookup returns name's ID, if the table has one.
func (t *NodeTable) Lookup(name string) (int32, bool) {
	id, ok := t.ids[name]
	return id, ok
}

// reset empties the table and drops every name it held, keeping capacity.
func (t *NodeTable) reset() {
	clear(t.ids)
	clear(t.Names)
	t.Names = t.Names[:0]
	t.mos, t.res, t.src, t.caps = t.mos[:0], t.res[:0], t.src[:0], t.caps[:0]
}
