package circuit

import (
	"fmt"
	"reflect"
	"testing"
)

// The path enumeration LongestPath's one search replaced, kept as the
// oracle of TestLongestPathMatchesEnumeration and FuzzLongestPath: every
// simple path from the output to the rail, found by a DFS over
// string-keyed adjacency, and the best of them picked with the tie-break on
// the concatenated lower node names.

// EnumeratePathsRef returns every simple path through the stage from the
// given output node to the given rail ("0" or "vdd"), in DFS order.
func EnumeratePathsRef(st *Stage, output, rail string) []*Path {
	output = CanonName(output)
	rail = CanonName(rail)
	adj := map[string][]*StageEdge{}
	for _, e := range st.Edges {
		adj[e.Src] = append(adj[e.Src], e)
		adj[e.Snk] = append(adj[e.Snk], e)
	}
	other := SupplyNode
	if rail != GroundNode {
		other = GroundNode
	}
	var paths []*Path
	visited := map[string]bool{output: true}
	var stack []PathElem
	var dfs func(node string)
	dfs = func(node string) {
		if node == rail {
			// stack runs output→rail; reverse into rail→output order.
			elems := make([]PathElem, len(stack))
			for i, pe := range stack {
				elems[len(stack)-1-i] = pe
			}
			paths = append(paths, &Path{Rail: rail, Output: output, Elems: elems})
			return
		}
		for _, e := range adj[node] {
			next := e.Src
			if next == node {
				next = e.Snk
			}
			if next == node || next == other || visited[next] {
				continue
			}
			visited[next] = true
			// Upper is the side away from the rail: while descending from the
			// output, the current node is Upper.
			stack = append(stack, PathElem{Edge: e, Lower: next, Upper: node})
			dfs(next)
			stack = stack[:len(stack)-1]
			visited[next] = false
		}
	}
	dfs(output)
	return paths
}

// LongestPathRef picks LongestPath's answer from EnumeratePathsRef.
func LongestPathRef(st *Stage, output, rail string) (*Path, error) {
	paths := EnumeratePathsRef(st, output, rail)
	if len(paths) == 0 {
		return nil, fmt.Errorf("circuit: no path from %q to rail %q in stage %s", CanonName(output), CanonName(rail), st.Name)
	}
	best := paths[0]
	for _, p := range paths[1:] {
		switch {
		case p.Transistors() > best.Transistors():
			best = p
		case p.Transistors() == best.Transistors() && len(p.Elems) > len(best.Elems):
			best = p
		case p.Transistors() == best.Transistors() && len(p.Elems) == len(best.Elems) && pathKey(p) < pathKey(best):
			best = p
		}
	}
	return best, nil
}

func pathKey(p *Path) string {
	s := ""
	for _, e := range p.Elems {
		s += e.Lower + "/"
	}
	return s
}

// TestIdlePathSearchPinsNothing holds the path search's pooling promise:
// its pooled buffers reach no string, stage or edge, only integers and
// flags, through every slice's capacity — so buffers outliving a search pin
// none of the netlist's names.
func TestIdlePathSearchPinsNothing(t *testing.T) {
	st := ExtractStages(nand2(), []string{"out"})[0]
	for try := 0; try < 20; try++ {
		if _, err := LongestPath(st, "out", SupplyNode); err != nil {
			t.Fatal(err)
		}
		bufs := stepPool.Get().(*stepBufs)
		if cap(bufs.best) == 0 {
			continue // the pool dropped the buffers (the race detector does so at random)
		}
		var walk func(v reflect.Value, path string)
		walk = func(v reflect.Value, path string) {
			switch v.Kind() {
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					walk(v.Field(i), path+"."+v.Type().Field(i).Name)
				}
			case reflect.Slice:
				v = v.Slice3(0, v.Cap(), v.Cap())
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), path+"[]")
				}
			case reflect.Bool, reflect.Int32:
			default:
				t.Errorf("%s is a %s: idle search buffers may hold only integers and flags", path, v.Type())
			}
		}
		walk(reflect.ValueOf(bufs).Elem(), "bufs")
		return
	}
	t.Fatal("the pool never returned used buffers")
}
