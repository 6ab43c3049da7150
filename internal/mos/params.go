// Package mos implements the "golden" analytic MOSFET device model that
// substitutes for Hspice/BSIM3 in this reproduction. It is a smooth
// single-expression long/short-channel model with body effect,
// channel-length modulation, mobility degradation, velocity saturation and
// sub-threshold conduction, plus voltage-dependent junction and gate
// capacitances. Both simulation engines (the SPICE-class baseline and QWM's
// characterized table) ultimately draw their currents from this model, so
// algorithm comparisons are apples-to-apples.
package mos

// Polarity distinguishes NMOS from PMOS devices.
type Polarity int

const (
	NMOS Polarity = iota
	PMOS
)

func (p Polarity) String() string {
	if p == PMOS {
		return "pmos"
	}
	return "nmos"
}

// Params is the per-polarity technology parameter set. Units are SI
// (volts, amps, meters, farads).
type Params struct {
	Pol Polarity

	Vth0   float64 // zero-bias threshold magnitude (V)
	Gamma  float64 // body-effect coefficient (√V)
	Phi    float64 // surface potential 2φF (V)
	KP     float64 // process transconductance µ·Cox (A/V²)
	Lambda float64 // channel-length modulation (1/V)
	Theta  float64 // vertical-field mobility degradation (1/V)
	ESat   float64 // lateral critical field for velocity saturation (V/m)
	NSub   float64 // sub-threshold slope factor n
	LD     float64 // lateral diffusion per side (m)

	Cox   float64 // gate oxide capacitance per area (F/m²)
	CGDO  float64 // gate-drain overlap capacitance per width (F/m)
	CGSO  float64 // gate-source overlap capacitance per width (F/m)
	CJ    float64 // zero-bias junction area capacitance (F/m²)
	CJSW  float64 // zero-bias junction sidewall capacitance (F/m)
	PB    float64 // junction built-in potential (V)
	MJ    float64 // area junction grading coefficient
	MJSW  float64 // sidewall junction grading coefficient
	LDiff float64 // source/drain diffusion extent used for default junction geometry (m)
}

// Tech bundles the two device polarities with the supply, mimicking the
// CMOSP35 technology used in the paper (0.35 µm, 3.3 V supply,
// characterization sweep 0–3.3 V).
type Tech struct {
	VDD    float64
	Lambda float64 // layout lambda: half the minimum feature (m)
	LMin   float64 // minimum drawn channel length (m)
	WMin   float64 // minimum drawn width (m)
	N, P   Params
	Temp   float64 // kelvin
}

// CMOSP18 returns a parameter set representative of a 0.18 µm, 1.8 V bulk
// CMOS process — a second technology node exercising the same machinery at
// lower voltage headroom and stronger velocity saturation. The values are
// textbook-level, not foundry data.
func CMOSP18() *Tech {
	return &Tech{
		VDD:    1.8,
		Lambda: 0.1e-6,
		LMin:   0.18e-6,
		WMin:   0.24e-6,
		Temp:   300.15,
		N: Params{
			Pol:    NMOS,
			Vth0:   0.42,
			Gamma:  0.47,
			Phi:    0.86,
			KP:     300e-6,
			Lambda: 0.08,
			Theta:  0.35,
			ESat:   5.0e6,
			NSub:   1.35,
			LD:     0.015e-6,
			Cox:    8.4e-3,
			CGDO:   3.7e-10,
			CGSO:   3.7e-10,
			CJ:     1.0e-3,
			CJSW:   2.0e-10,
			PB:     0.8,
			MJ:     0.36,
			MJSW:   0.10,
			LDiff:  0.48e-6,
		},
		P: Params{
			Pol:    PMOS,
			Vth0:   0.45,
			Gamma:  0.42,
			Phi:    0.82,
			KP:     75e-6,
			Lambda: 0.10,
			Theta:  0.25,
			ESat:   1.4e7,
			NSub:   1.40,
			LD:     0.015e-6,
			Cox:    8.4e-3,
			CGDO:   3.3e-10,
			CGSO:   3.3e-10,
			CJ:     1.1e-3,
			CJSW:   2.2e-10,
			PB:     0.8,
			MJ:     0.45,
			MJSW:   0.24,
			LDiff:  0.48e-6,
		},
	}
}

// CMOSP35 returns a parameter set representative of a 0.35 µm, 3.3 V bulk
// CMOS process. The values are textbook-level, not foundry data — see
// DESIGN.md on the BSIM3 substitution.
func CMOSP35() *Tech {
	const (
		lam  = 0.2e-6  // layout lambda (m)
		lmin = 0.35e-6 // minimum channel length (m)
	)
	return &Tech{
		VDD:    3.3,
		Lambda: lam,
		LMin:   lmin,
		WMin:   2 * lam,
		Temp:   300.15,
		N: Params{
			Pol:    NMOS,
			Vth0:   0.55,
			Gamma:  0.58,
			Phi:    0.84,
			KP:     170e-6,
			Lambda: 0.06,
			Theta:  0.20,
			ESat:   4.0e6,
			NSub:   1.40,
			LD:     0.03e-6,
			Cox:    4.54e-3,
			CGDO:   3.1e-10,
			CGSO:   3.1e-10,
			CJ:     9.4e-4,
			CJSW:   2.8e-10,
			PB:     0.9,
			MJ:     0.36,
			MJSW:   0.10,
			LDiff:  0.85e-6,
		},
		P: Params{
			Pol:    PMOS,
			Vth0:   0.65,
			Gamma:  0.48,
			Phi:    0.80,
			KP:     58e-6,
			Lambda: 0.08,
			Theta:  0.15,
			ESat:   1.2e7,
			NSub:   1.45,
			LD:     0.03e-6,
			Cox:    4.54e-3,
			CGDO:   2.7e-10,
			CGSO:   2.7e-10,
			CJ:     1.4e-3,
			CJSW:   3.2e-10,
			PB:     0.9,
			MJ:     0.45,
			MJSW:   0.24,
			LDiff:  0.85e-6,
		},
	}
}
