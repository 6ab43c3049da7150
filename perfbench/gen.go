package main

import (
	"fmt"
	"math/rand"

	"qwm/internal/api/v1"
	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/sta"
	"qwm/internal/stages"
)

// This file holds the seeded input generators. The program under test only
// ever receives what these return; the same seed gives the same inputs.

// subSeed derives an independent stream seed from the run seed and labels.
func subSeed(seed int64, labels ...int64) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, l := range labels {
		h ^= uint64(l) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
	}
	return int64(h >> 1)
}

// tableIIStacks returns the 18 stage-qwm stacks: K = 5…10 × 3 width
// configurations. Seed 0 reproduces the paper-reproduction Table II stacks
// exactly (cmd/tables -table 2); any other seed draws fresh widths and loads
// over the same K range.
func tableIIStacks(tech *mos.Tech, seed int64) ([]*stages.Workload, error) {
	var ws []*stages.Workload
	for k := 5; k <= 10; k++ {
		for cfg := 0; cfg < 3; cfg++ {
			s := int64(k*10 + cfg)
			if seed != 0 {
				s = subSeed(seed, int64(k), int64(cfg))
			}
			w, err := stages.RandomStack(tech, k, s)
			if err != nil {
				return nil, err
			}
			w.Name = fmt.Sprintf("%d/ckt%d", k, cfg+1)
			ws = append(ws, w)
		}
	}
	return ws, nil
}

// coldVariant is one sta-cold input: a 3-bit decoder with seeded device
// widths and row loads, plus seeded primary arrivals.
type coldVariant struct {
	nl      *circuit.Netlist
	primary map[string]sta.Arrival
	outputs []string
}

// coldPoolSize is the number of sta-cold variants one seed draws. Every
// variant has the same devices and stages, so every op has the same shape.
const coldPoolSize = 16

// coldPool draws the sta-cold inputs: widths scaled per device by
// U(0.75, 1.5), row loads U(10, 30) fF, address arrivals U(0, 40) ps with
// slews U(20, 60) ps.
func coldPool(tech *mos.Tech, seed int64) ([]coldVariant, error) {
	r := rand.New(rand.NewSource(subSeed(seed, 1)))
	pool := make([]coldVariant, coldPoolSize)
	for i := range pool {
		nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 20e-15)
		if err != nil {
			return nil, err
		}
		for _, t := range nl.Transistors {
			t.W *= 0.75 + 0.75*r.Float64()
		}
		for _, c := range nl.Capacitors {
			c.C = (10 + 20*r.Float64()) * 1e-15
		}
		primary := map[string]sta.Arrival{}
		for _, in := range ins {
			primary[in] = sta.Arrival{
				Rise: 40e-12 * r.Float64(), Fall: 40e-12 * r.Float64(),
				RiseSlew: (20 + 40*r.Float64()) * 1e-12, FallSlew: (20 + 40*r.Float64()) * 1e-12,
			}
		}
		pool[i] = coldVariant{nl: nl, primary: primary, outputs: outs}
	}
	return pool, nil
}

// fleetHistory is how many recent variants a fleet client may resubmit.
const fleetHistory = 64

// fleetGen generates one fleet client's request stream when each request
// is due: half fresh 4-bit decoder variants with two devices resized to
// continuous random widths, half resubmissions of one of the client's last
// fleetHistory variants. Nothing is pre-built beyond the base deck and the
// history ring.
type fleetGen struct {
	r       *rand.Rand
	base    *circuit.Netlist
	outputs []string
	hist    []string
	next    int // ring cursor into hist
}

func newFleetGen(tech *mos.Tech, seed int64, client int) (*fleetGen, error) {
	nl, _, outs, err := stages.DecoderNetlist(tech, 4, 1e-6, 20e-15)
	if err != nil {
		return nil, err
	}
	return &fleetGen{
		r:       rand.New(rand.NewSource(subSeed(seed, 2, int64(client)))),
		base:    nl,
		outputs: outs,
	}, nil
}

// baseDeck is the unmodified decoder deck (set-up warm-up traffic).
func (g *fleetGen) baseDeck() string {
	return netlist.Format(&netlist.Deck{Title: "* decoder4", Netlist: g.base})
}

// request returns the next deck text and whether it is a fresh variant.
func (g *fleetGen) request() (string, bool) {
	if len(g.hist) > 0 && g.r.Intn(2) == 1 {
		return g.hist[g.r.Intn(len(g.hist))], false
	}
	nl := &circuit.Netlist{
		Resistors:  g.base.Resistors,
		Capacitors: g.base.Capacitors,
		VSources:   g.base.VSources,
	}
	nl.Transistors = make([]*circuit.Transistor, len(g.base.Transistors))
	copy(nl.Transistors, g.base.Transistors)
	for k := 0; k < 2; k++ {
		i := g.r.Intn(len(nl.Transistors))
		t := *nl.Transistors[i]
		t.W = (0.8 + 2.4*g.r.Float64()) * 1e-6
		nl.Transistors[i] = &t
	}
	deck := netlist.Format(&netlist.Deck{Title: "* decoder4 variant", Netlist: nl})
	if len(g.hist) < fleetHistory {
		g.hist = append(g.hist, deck)
	} else {
		g.hist[g.next] = deck
		g.next = (g.next + 1) % fleetHistory
	}
	return deck, true
}

// wireRequest wraps a deck in the v1 request the fleet clients send.
func (g *fleetGen) wireRequest(id, deck string) v1.AnalyzeRequest {
	return v1.AnalyzeRequest{
		SchemaVersion: v1.SchemaVersion,
		ID:            id,
		Netlist:       deck,
		Outputs:       g.outputs,
	}
}
