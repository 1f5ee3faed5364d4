package spice

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vstat/internal/vsmodel"
)

// Property: for random resistive ladder networks the MNA solution matches
// the analytic series/parallel reduction.
func TestResistiveLadderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		rs := make([]float64, n) // series arms
		gs := make([]float64, n) // shunt arms
		for i := range rs {
			rs[i] = 100 + 10000*rng.Float64()
			gs[i] = 100 + 10000*rng.Float64()
		}
		// Build ladder: src - R0 - n1 - R1 - n2 ... each ni has shunt to gnd.
		c := New()
		prev := c.Node("in")
		c.AddV("V", prev, Gnd, DC(1))
		for i := 0; i < n; i++ {
			ni := c.Node("n" + string(rune('0'+i)))
			c.AddR("Rs"+string(rune('0'+i)), prev, ni, rs[i])
			c.AddR("Rg"+string(rune('0'+i)), ni, Gnd, gs[i])
			prev = ni
		}
		op, err := c.OP()
		if err != nil {
			return false
		}
		// Analytic: fold from the far end.
		rEq := math.Inf(1)
		for i := n - 1; i >= 0; i-- {
			// shunt gs[i] parallel with (rs[i+1]+rEq tail) handled iteratively
			tail := gs[i]
			if !math.IsInf(rEq, 1) {
				tail = 1 / (1/gs[i] + 1/rEq)
			}
			rEq = rs[i] + tail
		}
		iIn := 1 / rEq
		// Compare input current.
		got := -op.SourceI(0)
		return math.Abs(got-iIn) < 1e-6*(1+iIn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transient charge conservation — the integral of source current
// equals the capacitor charge change in a source-R-C loop.
func TestTransientChargeConservation(t *testing.T) {
	for _, trap := range []bool{false, true} {
		c := New()
		in := c.Node("in")
		out := c.Node("out")
		R, C := 2000.0, 0.5e-9
		c.AddV("V", in, Gnd, PWL{T: []float64{0, 1e-6}, V: []float64{0, 1}})
		c.AddR("R", in, out, R)
		c.AddC("C", out, Gnd, C)
		h := 2e-9
		res, err := c.Transient(TranOpts{Stop: 2e-6, Step: h, Trap: trap, UIC: true})
		if err != nil {
			t.Fatal(err)
		}
		iSrc := res.SourceI(0)
		// Trapezoidal integral of the branch current (flows p→n inside the
		// source, so the current delivered into the circuit is −iSrc).
		qIn := 0.0
		for k := 1; k < len(iSrc); k++ {
			qIn += -0.5 * (iSrc[k] + iSrc[k-1]) * h
		}
		vOut := res.VName("out")
		qCap := C * (vOut[len(vOut)-1] - vOut[0])
		if math.Abs(qIn-qCap) > 0.02*math.Abs(qCap) {
			t.Fatalf("trap=%v: injected charge %g vs cap charge %g", trap, qIn, qCap)
		}
	}
}

// A floating-gate circuit exercises the gmin path: a MOSFET whose gate has
// no DC path must still converge.
func TestFloatingGateGminConvergence(t *testing.T) {
	c := New()
	vdd := c.Node("vdd")
	gate := c.Node("gate")
	out := c.Node("out")
	c.AddV("VDD", vdd, Gnd, DC(0.9))
	n := vsmodel.NMOS40(300e-9)
	c.AddMOS("MN", out, gate, Gnd, Gnd, &n)
	c.AddR("RL", vdd, out, 10000)
	c.AddC("CG", gate, Gnd, 1e-15) // gate floats in DC
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	// Gate pulled to ground by gmin → device off → out ≈ vdd.
	if op.V(out) < 0.85 {
		t.Fatalf("out = %g", op.V(out))
	}
}

// Source stepping: a cross-coupled bistable pair with a poor initial guess
// still finds an operating point through the convergence aids.
func TestBistableOPConverges(t *testing.T) {
	c := New()
	vdd := c.Node("vdd")
	a := c.Node("a")
	b := c.Node("b")
	c.AddV("VDD", vdd, Gnd, DC(0.9))
	n1 := vsmodel.NMOS40(300e-9)
	p1 := vsmodel.PMOS40(600e-9)
	n2 := vsmodel.NMOS40(300e-9)
	p2 := vsmodel.PMOS40(600e-9)
	c.AddMOS("MN1", b, a, Gnd, Gnd, &n1)
	c.AddMOS("MP1", b, a, vdd, vdd, &p1)
	c.AddMOS("MN2", a, b, Gnd, Gnd, &n2)
	c.AddMOS("MP2", a, b, vdd, vdd, &p2)
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	va, vb := op.V(a), op.V(b)
	// Any self-consistent point is acceptable: rails or metastable midpoint.
	if va < -0.01 || va > 0.91 || vb < -0.01 || vb > 0.91 {
		t.Fatalf("unphysical OP: a=%g b=%g", va, vb)
	}
}

func TestTransientInvalidOpts(t *testing.T) {
	c := New()
	c.AddR("R", c.Node("a"), Gnd, 100)
	if _, err := c.Transient(TranOpts{Stop: 0, Step: 1e-12}); err == nil {
		t.Fatal("expected error for Stop<=0")
	}
	if _, err := c.Transient(TranOpts{Stop: 1e-9, Step: 0}); err == nil {
		t.Fatal("expected error for Step<=0")
	}
}

func TestSetVSourceReplacesWaveform(t *testing.T) {
	c := New()
	in := c.Node("in")
	src := c.AddV("V", in, Gnd, DC(1))
	c.AddR("R", in, Gnd, 100)
	c.SetVSource(src, DC(2))
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.V(in)-2) > 1e-9 {
		t.Fatalf("SetVSource did not take: %g", op.V(in))
	}
}
