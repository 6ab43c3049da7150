package devmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strconv"
	"testing"

	"qwm/internal/mos"
)

// tablePins are the SHA-256 digests of characterized tables: every Entry
// field's float bits in grid order, per polarity and channel length, and
// each junction table's grid. Re-pin from the -v log lines only after a
// deliberate change to the golden model or the fits.
var tablePins = map[string]string{
	"nmos/L=3.5e-07": "23e6e41f11f5d32c28559e1a0a27a8fdc125e639f3e267744a5e28f34fde0894",
	"nmos/L=1e-06":   "ffefb03bf8fd5ceb5bb79e0a052e5066e4c42ff8abc906581a4cd52d97c21237",
	"nmos/L=3.3e-06": "1ab5dcb4517674eb37b5b29be711afdee7954861199fd943acbbd95ead1f1fde",
	"pmos/L=3.5e-07": "b516cbb0343599f0e83430fced6208750244eb80dbe48cf81f06ada477d8b17b",
	"pmos/L=1e-06":   "cda6118a6b748dab17c2b1be77212ef2f7aea70341b38c0691c0b4774d748926",
	"pmos/L=3.3e-06": "a0cfa8c435559465f986819a398ee2a6a717af722c714d68e618c5db30dea90a",
	"nmos/junction":  "7fc3ca96f2e9fbc2c1c1b85f2036489dc25e097f9931f38b7b33b214238682e1",
	"pmos/junction":  "d5988baf9179d58187a18e0499f0c71cb5b467b7ea7a2303a6d2ffb9c1677d13",
}

func hashFloats(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestCharacterizedTablesMatchPins holds every characterized table bit for
// bit. It pins amd64 only: other architectures may fuse multiply-adds and
// move the low bits.
func TestCharacterizedTablesMatchPins(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit pins are for amd64, not %s", runtime.GOARCH)
	}
	check := func(key string, sum []byte) {
		t.Helper()
		got := hex.EncodeToString(sum)
		t.Logf("%q: %q,", key, got)
		if want := tablePins[key]; got != want {
			t.Errorf("%s: digest %s, pinned %s", key, got, want)
		}
	}
	for _, pol := range []mos.Polarity{mos.NMOS, mos.PMOS} {
		p := &tech.N
		if pol == mos.PMOS {
			p = &tech.P
		}
		for _, l := range []float64{tech.LMin, 1e-6, 3.3e-6} {
			tab, err := Characterize(p, tech, l, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, e := range tab.flat {
				h.Write(hashFloats(e.S1, e.S2, e.T0, e.T1, e.T2, e.Vth, e.Vdsat))
			}
			check(pol.String()+"/L="+strconv.FormatFloat(l, 'g', -1, 64), h.Sum(nil))
		}
		j := CharacterizeJunction(p, tech.VDD)
		h := sha256.New()
		h.Write(hashFloats(j.lo, j.hi, j.invH, j.hPB, j.kA, j.kS, j.fLo))
		h.Write(hashFloats(j.pts[:]...))
		check(pol.String()+"/junction", h.Sum(nil))
	}
}
