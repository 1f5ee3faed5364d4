package spice

import (
	"math"
	"testing"

	"vstat/internal/vsmodel"
)

// A sweep may hold repeated, descending and unevenly spaced values, as a
// spicecli deck's may. The extrapolating predictor must land every point
// on the operating point an independent solve finds, DCSweepObserve must
// match DCSweep bit for bit, and the swept source's waveform comes back.
func TestDCSweepMatchesIndependentSolves(t *testing.T) {
	build := func() (*Circuit, int, int) {
		c := New()
		vdd := c.Node("vdd")
		in := c.Node("in")
		out := c.Node("out")
		c.AddV("VDD", vdd, Gnd, DC(0.9))
		vin := c.AddV("VIN", in, Gnd, DC(0.123))
		n := vsmodel.NMOS40(300e-9)
		p := vsmodel.PMOS40(600e-9)
		c.AddMOS("MN", out, in, Gnd, Gnd, &n)
		c.AddMOS("MP", out, in, vdd, vdd, &p)
		return c, vin, out
	}
	values := []float64{0, 0.1, 0.1, 0.45, 0.44, 0.9, 0.2, 0.2, 0.2, 0.3, 0.301, 0.7, 0.35, 0.4, 0.42}
	c, vin, out := build()
	ops, err := c.DCSweep(vin, values)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.vs[vin].wave.At(0); got != 0.123 {
		t.Fatalf("swept source reads %g after the sweep, want 0.123", got)
	}
	obs := make([]float64, len(values))
	if err := c.DCSweepObserve(vin, values, out, obs, false); err != nil {
		t.Fatal(err)
	}
	for k, v := range values {
		ref, _, refOut := build()
		ref.SetVSource(vin, DC(v))
		op, err := ref.OP()
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range op.Raw()[:len(ref.nodeNames)] {
			if d := math.Abs(ops[k].Raw()[i] - want); d > tolV {
				t.Fatalf("point %d (%g V): node %d is %g V from an independent solve", k, v, i, d)
			}
		}
		if math.Float64bits(obs[k]) != math.Float64bits(ops[k].V(refOut)) {
			t.Fatalf("point %d (%g V): DCSweepObserve %.17g, DCSweep %.17g", k, v, obs[k], ops[k].V(refOut))
		}
	}
}
