package devmodel

import (
	"sync"

	"qwm/internal/mos"
)

// IVModel is the paper's Definition 2 device model restricted to the queries
// the QWM engine performs, in folded (discharge-normal) coordinates. Both
// the characterized Table and the direct Analytic adapter implement it, so
// the table-vs-analytic ablation swaps implementations freely.
type IVModel interface {
	// IV returns the channel current from the upper to the lower chain node
	// and its partial derivatives with respect to the gate, upper, and lower
	// node voltages.
	IV(w, vg, vd, vs float64) (i, dvg, dvd, dvs float64)
	// Threshold returns the body-effect threshold for a device whose lower
	// node sits at vs.
	Threshold(vs float64) float64
	// Vdsat returns the saturation voltage at (vg, vs).
	Vdsat(vg, vs float64) float64
	// Params exposes the underlying golden parameters for capacitance
	// queries.
	Params() *mos.Params
}

// Analytic evaluates the golden model directly instead of through the
// characterized table — the "no table" ablation arm, and the accuracy
// reference for table tests.
type Analytic struct {
	P    *mos.Params
	L    float64
	VDD  float64
	body float64
}

// NewAnalytic builds a direct adapter for one polarity and channel length.
func NewAnalytic(p *mos.Params, tech *mos.Tech, l float64) *Analytic {
	body := 0.0
	if p.Pol == mos.PMOS {
		body = tech.VDD
	}
	return &Analytic{P: p, L: l, VDD: tech.VDD, body: body}
}

// IV implements IVModel.
func (a *Analytic) IV(w, vg, vd, vs float64) (i, dvg, dvd, dvs float64) {
	if a.P.Pol == mos.PMOS {
		// Fold: negate both the arguments and the current. The two sign
		// flips cancel in every derivative.
		iv := a.P.Ids(w, a.L, a.VDD-vg, a.VDD-vd, a.VDD-vs, a.body)
		return -iv.I, iv.DVg, iv.DVd, iv.DVs
	}
	iv := a.P.Ids(w, a.L, vg, vd, vs, a.body)
	return iv.I, iv.DVg, iv.DVd, iv.DVs
}

// Threshold implements IVModel.
func (a *Analytic) Threshold(vs float64) float64 {
	if a.P.Pol == mos.PMOS {
		return a.P.Vth(a.VDD-vs, a.body)
	}
	return a.P.Vth(vs, a.body)
}

// Vdsat implements IVModel.
func (a *Analytic) Vdsat(vg, vs float64) float64 {
	if a.P.Pol == mos.PMOS {
		return a.P.VdsatValue(a.L, a.VDD-vg, a.VDD-vs, a.body)
	}
	return a.P.VdsatValue(a.L, vg, vs, a.body)
}

// Params implements IVModel.
func (a *Analytic) Params() *mos.Params { return a.P }

// Library caches characterized tables per (polarity, channel length), and
// junction tables per polarity, so repeated analyses share the one-time
// characterization cost, mirroring how a production flow characterizes a
// technology once. Each table is built once, by its first caller and
// outside any lock; only other callers of that key wait for it, so a
// lookup of a built table never waits behind a characterization.
type Library struct {
	Tech  *mos.Tech
	StepV float64 // grid pitch; 0.1 V default

	// characterize builds a table: Characterize, or a test's stand-in.
	characterize func(p *mos.Params, tech *mos.Tech, l, step float64) (*Table, error)

	tables    sync.Map       // libKey → *libTable
	junctions [2]libJunction // indexed by mos.Polarity
}

type libKey struct {
	pol mos.Polarity
	l   float64
}

// libTable is one key's table. A characterization error is kept like a
// table: the same inputs fail the same way.
type libTable struct {
	once sync.Once
	t    *Table
	err  error
}

type libJunction struct {
	once sync.Once
	t    *JunctionTable
}

// NewLibrary creates an empty table cache with the paper's 0.1 V pitch.
func NewLibrary(tech *mos.Tech) *Library {
	return &Library{Tech: tech, StepV: 0.1, characterize: Characterize}
}

// Table returns the characterized table for a polarity and channel length,
// building it on first use.
func (lib *Library) Table(pol mos.Polarity, l float64) (*Table, error) {
	k := libKey{pol, l}
	v, ok := lib.tables.Load(k)
	if !ok {
		v, _ = lib.tables.LoadOrStore(k, new(libTable))
	}
	e := v.(*libTable)
	e.once.Do(func() { e.t, e.err = lib.characterize(lib.params(pol), lib.Tech, l, lib.StepV) })
	return e.t, e.err
}

// Junction returns the characterized junction table for a polarity,
// building it on first use.
func (lib *Library) Junction(pol mos.Polarity) *JunctionTable {
	j := &lib.junctions[pol]
	j.once.Do(func() { j.t = CharacterizeJunction(lib.params(pol), lib.Tech.VDD) })
	return j.t
}

func (lib *Library) params(pol mos.Polarity) *mos.Params {
	if pol == mos.PMOS {
		return &lib.Tech.P
	}
	return &lib.Tech.N
}
