package spice

import (
	"math"
	"testing"

	"vstat/internal/device"
)

// stepCond is a drain-source conductance whose current comes in whole
// steps: Id = Step·round(G·(vd−vs)/Step), with the slope G in its
// derivatives. It stands for a model that returns its current only to
// within a tolerance, as the VS series solve does.
type stepCond struct{ G, Step float64 }

func (d *stepCond) Kind() device.Kind { return device.NMOS }
func (d *stepCond) Width() float64    { return 1e-6 }
func (d *stepCond) Length() float64   { return 1e-6 }
func (d *stepCond) Eval(vd, vg, vs, vb float64) device.Eval {
	return device.Eval{Id: d.Step * math.Round(d.G*(vd-vs)/d.Step)}
}
func (d *stepCond) EvalDerivs4(vd, vg, vs, vb float64) device.Derivs {
	return device.Derivs{Eval: d.Eval(vd, vg, vs, vb), GId: [4]float64{d.G, 0, -d.G, 0}}
}

// A current source drives a stepCond whose current steps by 2^-43 A
// (1.1e-13 A) at a slope of 2^-15 S (3.1e-5 S), with the source halfway
// between two steps. Near the root every residual is half a step, far
// inside tolI, and every Newton update is 2^-29 V (1.9 nV), above tolV, so
// the iterate alternates bit for bit between the two points around the
// root. Newton accepts the cycle instead of spending the iteration budget
// on it, and on every rescue rung after it. Powers of two keep every
// update exact, so the cycle does not depend on rounding.
func TestNewtonNoiseFloorCycle(t *testing.T) {
	const (
		g    = 1.0 / (1 << 15)
		step = 1.0 / (1 << 43)
	)
	c := New()
	c.Gmin = 0
	n := c.Node("n")
	c.AddI("I0", Gnd, n, DC(step*((1<<27)+0.5)))
	c.AddMOS("G", n, Gnd, Gnd, Gnd, &stepCond{G: g, Step: step})
	op, err := c.OP()
	if err != nil {
		t.Fatalf("OP: %v", err)
	}
	root := 0.5 + 1.0/(1<<29)
	if d := math.Abs(op.V(n) - root); d > 1.0/(1<<28) {
		t.Fatalf("V(n) = %.17g, %g V from the root %.17g", op.V(n), d, root)
	}
	if got := c.Stats().RescueCounts()["newton-cycle"]; got != 1 {
		t.Fatalf("newton-cycle count %d, want 1 (stats %+v)", got, c.Stats())
	}
}
