package netlist

import (
	"sort"
	"strconv"

	"qwm/internal/circuit"
	"qwm/internal/wave"
)

// Format serializes a deck back to SPICE-card text. Sources render as DC or
// PWL cards; Step and Ramp waveforms become equivalent two-point PWLs (with
// a 1 fs rise for the ideal step). Parse(Format(d)) reproduces the circuit.
// Every card is appended to one byte buffer.
func Format(d *Deck) string {
	title := d.Title
	if title == "" {
		title = "* untitled"
	}
	n := d.Netlist
	b := make([]byte, 0, 64*(1+len(n.VSources)+len(n.Transistors)+len(n.Resistors)+len(n.Capacitors)))
	b = append(b, title...)
	b = append(b, '\n')
	for _, v := range n.VSources {
		b = appendFields(b, v.Name, v.A, v.B)
		b = append(b, ' ')
		b = appendSource(b, v.Wave)
		b = append(b, '\n')
	}
	for _, t := range n.Transistors {
		kind := "NMOS"
		if t.Kind == circuit.KindPMOS {
			kind = "PMOS"
		}
		b = appendFields(b, t.Name, t.Drain, t.Gate, t.Source, t.Body, kind)
		b = appendParam(b, " W=", t.W)
		b = appendParam(b, " L=", t.L)
		if t.DrainJunc.Area > 0 {
			b = appendParam(b, " AD=", t.DrainJunc.Area)
			b = appendParam(b, " PD=", t.DrainJunc.Perim)
		}
		if t.SourceJunc.Area > 0 {
			b = appendParam(b, " AS=", t.SourceJunc.Area)
			b = appendParam(b, " PS=", t.SourceJunc.Perim)
		}
		b = append(b, '\n')
	}
	for _, r := range n.Resistors {
		b = appendFields(b, r.Name, r.A, r.B)
		b = appendParam(b, " ", r.R)
		b = append(b, '\n')
	}
	for _, c := range n.Capacitors {
		b = appendFields(b, c.Name, c.A, c.B)
		b = appendParam(b, " ", c.C)
		b = append(b, '\n')
	}
	if len(d.IC) > 0 {
		b = append(b, ".ic"...)
		// Deterministic order.
		keys := make([]string, 0, len(d.IC))
		for k := range d.IC {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = append(b, " V("...)
			b = append(b, k...)
			b = appendParam(b, ")=", d.IC[k])
		}
		b = append(b, '\n')
	}
	if d.TranStep > 0 && d.TranStop > 0 {
		b = appendParam(b, ".tran ", d.TranStep)
		b = appendParam(b, " ", d.TranStop)
		b = append(b, '\n')
	}
	b = append(b, ".end\n"...)
	return string(b)
}

// appendFields appends space-separated fields.
func appendFields(b []byte, fields ...string) []byte {
	for i, f := range fields {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, f...)
	}
	return b
}

// appendParam appends a separator or key prefix and a formatted value.
func appendParam(b []byte, prefix string, v float64) []byte {
	return appendValue(append(b, prefix...), v)
}

// appendSource appends a source's DC or PWL specification.
func appendSource(b []byte, w wave.Waveform) []byte {
	switch s := w.(type) {
	case nil:
		return append(b, "DC 0"...)
	case wave.DC:
		return appendParam(b, "DC ", float64(s))
	case wave.Step:
		// An ideal step becomes a 1 fs PWL ramp at the switching instant.
		t0 := s.At
		if t0 < 0 {
			t0 = 0
		}
		return appendPWL(b, t0, s.Low, t0+1e-15, s.High)
	case wave.Ramp:
		return appendPWL(b, s.T0, s.Low, s.T1, s.High)
	case *wave.PWL:
		b = append(b, "PWL("...)
		for i := range s.T {
			if i > 0 {
				b = append(b, ' ')
			}
			b = appendValue(b, s.T[i])
			b = appendParam(b, " ", s.V[i])
		}
		return append(b, ')')
	default:
		// Sample unknown waveforms at t = 0 as a DC approximation.
		return appendParam(b, "DC ", w.Eval(0))
	}
}

// appendPWL appends a two-point PWL specification.
func appendPWL(b []byte, t0, v0, t1, v1 float64) []byte {
	b = appendParam(b, "PWL(", t0)
	b = appendParam(b, " ", v0)
	b = appendParam(b, " ", t1)
	b = appendParam(b, " ", v1)
	return append(b, ')')
}

// FormatValue renders a number with the natural SPICE suffix.
func FormatValue(v float64) string {
	var buf [32]byte
	return string(appendValue(buf[:0], v))
}

// appendValue appends v with the natural SPICE suffix: six significant
// digits of the scaled value in %g form.
func appendValue(b []byte, v float64) []byte {
	abs := v
	if abs < 0 {
		abs = -abs
	}
	x, suffix := v, ""
	switch {
	case v == 0:
		return append(b, '0')
	case abs >= 1e9:
		x, suffix = v/1e9, "g"
	case abs >= 1e6:
		x, suffix = v/1e6, "meg"
	case abs >= 1e3:
		x, suffix = v/1e3, "k"
	case abs >= 1:
	case abs >= 1e-3:
		x, suffix = v*1e3, "m"
	case abs >= 1e-6:
		x, suffix = v*1e6, "u"
	case abs >= 1e-9:
		x, suffix = v*1e9, "n"
	case abs >= 1e-12:
		x, suffix = v*1e12, "p"
	default:
		x, suffix = v*1e15, "f"
	}
	return append(strconv.AppendFloat(b, x, 'g', 6, 64), suffix...)
}
