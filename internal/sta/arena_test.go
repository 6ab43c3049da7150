package sta

import (
	"reflect"
	"testing"
	"unsafe"

	"qwm/internal/netlist"
	"qwm/internal/stages"
)

// TestIdleArenaPinsNothing holds the arena's promise: once AnalyzeContext
// returns, the pooled arena keeps nothing of the request. The deck is parsed
// copy-free, so every node name is a substring of it; the test walks all the
// memory the idle arena reaches — every slice through its capacity, since
// per-level slabs and the load-name sort buffer shrink and grow within a
// request — and fails on any string inside the deck or any pointer to a
// stage, edge or device.
func TestIdleArenaPinsNothing(t *testing.T) {
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	// A cap inside the first NAND stack gives that output a two-node load
	// map and the outputs after it one-node maps, so the sort buffer shrinks.
	nl.AddCapacitor("cx", "w0_s0", "0", 1e-15)
	text := netlist.Format(&netlist.Deck{Title: "* decoder3", Netlist: nl})
	deck, err := netlist.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	primary := map[string]Arrival{}
	for _, in := range ins {
		primary[in] = Arrival{}
	}
	a := New(tech, lib, Config{Workers: 1})
	for try := 0; try < 20; try++ {
		if _, err := a.AnalyzeContext(nil, Request{Netlist: deck.Netlist, Primary: primary, Outputs: outs}); err != nil {
			t.Fatal(err)
		}
		s := getScratch()
		if cap(s.ex.Nodes.Names) == 0 {
			continue // the pool dropped the arena (the race detector does so at random)
		}
		walkArena(reflect.ValueOf(s).Elem(), "s", map[uintptr]bool{}, func(path string, v reflect.Value) {
			switch v.Kind() {
			case reflect.String:
				if p := uintptr(unsafe.Pointer(unsafe.StringData(v.String()))); v.Len() > 0 && p >= lo && p < hi {
					t.Errorf("%s = %q points into the deck", path, v.String())
				}
			case reflect.Pointer:
				switch v.Type().Elem().Name() {
				case "Stage", "StageEdge", "Transistor", "outEval", "flight":
					t.Errorf("%s holds a %s", path, v.Type())
				}
			}
		})
		return
	}
	t.Fatal("the pool never returned a used arena")
}

// walkArena calls fn on every string and non-nil pointer reachable from v,
// reading unexported fields and slices through their capacity.
func walkArena(v reflect.Value, path string, seen map[uintptr]bool, fn func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.String:
		fn(path, v)
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		fn(path, v)
		walkArena(v.Elem(), path, seen, fn)
	case reflect.Interface:
		if !v.IsNil() {
			walkArena(v.Elem(), path, seen, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkArena(v.Field(i), path+"."+v.Type().Field(i).Name, seen, fn)
		}
	case reflect.Slice:
		v = v.Slice3(0, v.Cap(), v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkArena(v.Index(i), path+"[]", seen, fn)
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			walkArena(it.Key(), path+"{key}", seen, fn)
			walkArena(it.Value(), path+"{}", seen, fn)
		}
	}
}
