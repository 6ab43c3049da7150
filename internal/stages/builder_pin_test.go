package stages_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"qwm/internal/bench"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/stages"
	"qwm/internal/verify"
)

// builderPins are FNV-1a digests of every generator's numeric output: the
// workload's SwitchAt, TStop, Rising, IC and Loads values (in sorted-name
// order), the QWM delay, slew and Newton count, and the 10 ps SPICE delay,
// slew, step and Newton counts. Net and device labels are not hashed, so a
// rename that keeps every element's order and every net's sorted position
// leaves them unchanged; any moved bit does not. The -v log lines are the
// pin literals, for re-pinning after a deliberate change.
var builderPins = map[string]uint64{
	"inv":          0x283befb17c07121e,
	"nand2":        0x43f3208786138619,
	"nand3":        0x6f67901067b969c5,
	"nand4":        0xfbb25ba36d3642f2,
	"nor2":         0x8057dd0e33a202fa,
	"nor3":         0xff5a401a2a202c81,
	"nor4":         0xd3ffc1f3a75acdd0,
	"stack3":       0x0a41ba5b9239c946,
	"carry6":       0xfe3eca6015e92fec,
	"stack5-s50":   0xbd28c4a2366e7112,
	"stack6-s60":   0xcb2a0afc0e0660e3,
	"stack7-s70":   0xa6a1c93d521bca12,
	"stack8-s80":   0x865125f1b19cf14a,
	"stack9-s90":   0x1ec10a42d89eb70a,
	"stack10-s100": 0x18eaa14b447610ec,
	"nstack3":      0x9fbe8723bddd6765,
	"pstack2":      0x8def7ff257b3e4ba,
	"case000":      0xcf38e25a3f5c48ab,
	"case001":      0x6df6056ffb8cdf4e,
	"case002":      0x2362c41458e8dbde,
	"case003":      0x6c7a3c443debbde3,
	"case004":      0x6bbccb9372213cbe,
	"case005":      0x1dc654e43aa378ac,
	"case006":      0x034048a73f8f043e,
	"case007":      0xf613b3e4e5828871,
	"case008":      0xae9c5f9e91c4366c,
	"case009":      0x0a527e2dde6b3eda,
	"case010":      0x6eae9c6324a822bf,
	"case011":      0xb1b1784364c20b7b,
}

// pinnedWorkloads builds every generator the pins cover: the Table I gates,
// NORs, a plain and the carry-chain stack, Table II random stacks, NMOS and
// PMOS custom stacks (lengths, node caps, an input ramp, a late switch), and
// the first verify cases of seed 1. Each is keyed by its pin name.
func pinnedWorkloads(t *testing.T, tech *mos.Tech) (keys []string, ws []*stages.Workload) {
	t.Helper()
	add := func(key string, w *stages.Workload, err error) {
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		keys, ws = append(keys, key), append(ws, w)
	}
	w, err := stages.Inverter(tech, 0.8e-6, 1.6e-6, 15e-15, 0)
	add("inv", w, err)
	for n := 2; n <= 4; n++ {
		w, err := stages.NAND(tech, n, 0.8e-6, 1.6e-6, 15e-15, 0)
		add(fmt.Sprintf("nand%d", n), w, err)
	}
	for n := 2; n <= 4; n++ {
		w, err := stages.NOR(tech, n, 0.8e-6, 1.6e-6, 15e-15, 0)
		add(fmt.Sprintf("nor%d", n), w, err)
	}
	w, err = stages.Stack(tech, []float64{1e-6, 2e-6, 1.5e-6}, 10e-15, 10e-12)
	add("stack3", w, err)
	w, err = stages.CarryChainStack(tech)
	add("carry6", w, err)
	for k := 5; k <= 10; k++ {
		w, err := stages.RandomStack(tech, k, int64(10*k))
		add(fmt.Sprintf("stack%d-s%d", k, 10*k), w, err)
	}
	w, err = stages.CustomStack(tech, stages.StackSpec{
		Widths: []float64{2e-6, 1.5e-6, 1e-6}, Lengths: []float64{tech.LMin, 1.4 * tech.LMin, tech.LMin},
		NodeCaps: []float64{2e-15, 0, 1e-15}, CL: 20e-15, At: 10e-12, InSlew: 80e-12,
	})
	add("nstack3", w, err)
	w, err = stages.CustomStack(tech, stages.StackSpec{
		PMOS: true, Widths: []float64{3e-6, 2e-6}, Lengths: []float64{1.2 * tech.LMin, tech.LMin},
		NodeCaps: []float64{1.5e-15, 0}, CL: 15e-15, At: 10e-12, InSlew: 80e-12,
	})
	add("pstack2", w, err)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		c, err := verify.GenStageCase(tech, r, i)
		if err != nil {
			t.Fatalf("verify case %d: %v", i, err)
		}
		add(fmt.Sprintf("case%03d", i), c.W, nil)
	}
	return keys, ws
}

// digest is the FNV-1a hash of a sequence of 64-bit words.
type digest struct{ b []byte }

func (d *digest) u64(v uint64)  { d.b = binary.LittleEndian.AppendUint64(d.b, v) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

// sorted appends a map's values in sorted-key order.
func (d *digest) sorted(m map[string]float64) {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	d.u64(uint64(len(ks)))
	for _, k := range ks {
		d.f64(m[k])
	}
}

func (d *digest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.b)
	return h.Sum64()
}

// TestGeneratorsMatchBitPins pins every stage generator bit for bit through
// both engines. It pins amd64 only: other architectures may fuse
// multiply-adds and move the low bits.
func TestGeneratorsMatchBitPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit pins are for amd64, not %s", runtime.GOARCH)
	}
	tech := mos.CMOSP35()
	h, err := bench.NewHarness(tech)
	if err != nil {
		t.Fatal(err)
	}
	keys, ws := pinnedWorkloads(t, tech)
	if len(ws) != len(builderPins) {
		t.Fatalf("%d workloads, %d pins", len(ws), len(builderPins))
	}
	for i, w := range ws {
		key := keys[i]
		q, err := h.RunQWM(w, qwm.Options{})
		if err != nil {
			t.Fatalf("%s: qwm: %v", key, err)
		}
		s, err := h.RunSpice(w, 10e-12)
		if err != nil {
			t.Fatalf("%s: spice: %v", key, err)
		}
		var d digest
		d.f64(w.SwitchAt)
		d.f64(w.TStop)
		if w.Rising {
			d.u64(1)
		} else {
			d.u64(0)
		}
		d.sorted(w.IC)
		d.sorted(w.Loads)
		d.f64(q.Delay)
		d.f64(q.Slew)
		d.u64(uint64(q.NRIters))
		d.f64(s.Delay)
		d.f64(s.Slew)
		d.u64(uint64(s.Steps))
		d.u64(uint64(s.NRIters))
		got := d.sum()
		t.Logf("%q: %#016x, // qwm %.6g s, spice %.6g s", key, got, q.Delay, s.Delay)
		pin, ok := builderPins[key]
		if !ok {
			t.Errorf("%s: no pin", key)
		} else if got != pin {
			t.Errorf("%s: digest %#016x, pinned %#016x", key, got, pin)
		}
	}
}
