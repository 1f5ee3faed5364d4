package spice

import (
	"math"
	"testing"

	"vstat/internal/vsmodel"
)

func TestVoltageDividerOP(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	c.AddV("V1", in, Gnd, DC(3))
	c.AddR("R1", in, mid, 1000)
	c.AddR("R2", mid, Gnd, 2000)
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.V(mid)-2) > 1e-8 {
		t.Fatalf("divider mid = %g want 2", op.V(mid))
	}
	// Source current: 3V over 3k = 1 mA flowing out of the source's +.
	if math.Abs(op.SourceI(0)+1e-3) > 1e-8 {
		t.Fatalf("source current %g want -1e-3", op.SourceI(0))
	}
	if op.VName("mid") != op.V(mid) {
		t.Fatal("VName mismatch")
	}
}

func TestCurrentSourceOP(t *testing.T) {
	c := New()
	n1 := c.Node("n1")
	c.AddI("I1", Gnd, n1, DC(1e-3)) // 1 mA into n1
	c.AddR("R1", n1, Gnd, 1000)
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.V(n1)-1) > 1e-6 {
		t.Fatalf("V(n1) = %g want 1", op.V(n1))
	}
}

func TestKCLResidualAtSolution(t *testing.T) {
	// Property: at a converged OP the assembled residual is ~0.
	c := New()
	vdd := c.Node("vdd")
	out := c.Node("out")
	c.AddV("VDD", vdd, Gnd, DC(0.9))
	c.AddV("VIN", c.Node("in"), Gnd, DC(0.45))
	n := vsmodel.NMOS40(300e-9)
	p := vsmodel.PMOS40(600e-9)
	c.AddMOS("MN", out, c.Node("in"), Gnd, Gnd, &n)
	c.AddMOS("MP", out, c.Node("in"), vdd, vdd, &p)
	op, err := c.OP()
	if err != nil {
		t.Fatal(err)
	}
	// Residual check via re-assembly.
	f := make([]float64, c.unknowns())
	jac := newZeroMatrix(c.unknowns())
	ctx := assembleCtx{srcScale: 1}
	c.assemble(op.x, f, jac, &ctx, true)
	for i := 0; i < c.NumNodes(); i++ {
		if math.Abs(f[i]) > 1e-9 {
			t.Fatalf("KCL residual at node %s = %g", c.NodeName(i), f[i])
		}
	}
}

func TestRCTransientMatchesAnalytic(t *testing.T) {
	// Step response of RC low-pass: v(t) = V·(1 − e^{−t/RC}).
	for _, trap := range []bool{false, true} {
		c := New()
		in := c.Node("in")
		out := c.Node("out")
		R, C := 1000.0, 1e-9 // τ = 1 µs
		c.AddV("VIN", in, Gnd, Pulse{V0: 0, V1: 1, Delay: 0, Rise: 1e-12, Fall: 1e-12, Width: 1})
		c.AddR("R", in, out, R)
		c.AddC("C", out, Gnd, C)
		res, err := c.Transient(TranOpts{Stop: 5e-6, Step: 5e-9, Trap: trap, UIC: true})
		if err != nil {
			t.Fatal(err)
		}
		tau := R * C
		worst := 0.0
		for k, tm := range res.Time {
			if tm < 5e-9 {
				continue
			}
			want := 1 - math.Exp(-tm/tau)
			got := nv(res.xs[k], out)
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
		}
		lim := 0.005
		if trap {
			lim = 0.002
		}
		if worst > lim {
			t.Fatalf("trap=%v: worst RC error %g", trap, worst)
		}
	}
}

// TestIntegratorConvergenceOrder fits the global error order of both
// integrators on an RC discharge from v(out) = 1 V (UIC), v = e^(−t/τ),
// over a step sweep h = τ/10 … τ/160 across 3τ: the log–log slope of
// max |v − e^(−t/τ)| against h must be 1 for backward Euler and 2 for
// trapezoidal, each within 0.1. The smallest error is far above the Newton
// voltage tolerance, so the fit sees the integrator, not the solver.
func TestIntegratorConvergenceOrder(t *testing.T) {
	const R, C = 1000.0, 1e-9
	tau := R * C
	maxErr := func(trap bool, h float64) float64 {
		c := New()
		out := c.Node("out")
		c.AddR("R", out, Gnd, R)
		c.AddC("C", out, Gnd, C)
		res, err := c.Transient(TranOpts{Stop: 3 * tau, Step: h, Trap: trap, UIC: true,
			IC: map[int]float64{out: 1}})
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for k, tm := range res.Time {
			if d := math.Abs(nv(res.xs[k], out) - math.Exp(-tm/tau)); d > worst {
				worst = d
			}
		}
		return worst
	}
	for _, tc := range []struct {
		name  string
		trap  bool
		order float64
	}{{"BE", false, 1}, {"trap", true, 2}} {
		// Least-squares slope of log(err) against log(h).
		var sx, sy, sxx, sxy float64
		var errs []float64
		const pts = 5
		for i := 0; i < pts; i++ {
			h := tau / (10 * float64(int(1)<<i))
			e := maxErr(tc.trap, h)
			if !(e > 1e3*tolV) {
				t.Fatalf("%s h=τ/%d: error %g is too close to the solver tolerance to fit", tc.name, 10<<i, e)
			}
			errs = append(errs, e)
			x, y := math.Log(h), math.Log(e)
			sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
		}
		slope := (pts*sxy - sx*sy) / (pts*sxx - sx*sx)
		if math.Abs(slope-tc.order) > 0.1 {
			t.Fatalf("%s: fitted order %.3f, want %g ± 0.1 (errors %g)", tc.name, slope, tc.order, errs)
		}
		t.Logf("%s: fitted order %.3f (errors %g)", tc.name, slope, errs)
	}
}

func TestTrapMoreAccurateThanBE(t *testing.T) {
	// On a sine-driven RC, trapezoidal at the same step must beat BE.
	run := func(trap bool) float64 {
		c := New()
		in := c.Node("in")
		out := c.Node("out")
		R, C := 1000.0, 1e-9
		pts := 2001
		T := make([]float64, pts)
		V := make([]float64, pts)
		for i := range T {
			T[i] = 5e-6 * float64(i) / float64(pts-1)
			V[i] = math.Sin(2 * math.Pi * 1e6 * T[i])
		}
		c.AddV("VIN", in, Gnd, PWL{T: T, V: V})
		c.AddR("R", in, out, R)
		c.AddC("C", out, Gnd, C)
		res, err := c.Transient(TranOpts{Stop: 5e-6, Step: 2.5e-9, Trap: trap, UIC: true})
		if err != nil {
			t.Fatal(err)
		}
		// Analytic steady-state after a few τ.
		w := 2 * math.Pi * 1e6
		tau := R * C
		amp := 1 / math.Sqrt(1+(w*tau)*(w*tau))
		ph := math.Atan(w * tau)
		worst := 0.0
		for k, tm := range res.Time {
			if tm < 2e-6 {
				continue
			}
			want := amp * math.Sin(w*tm-ph)
			if d := math.Abs(nv(res.xs[k], out) - want); d > worst {
				worst = d
			}
		}
		return worst
	}
	be := run(false)
	tr := run(true)
	if tr >= be {
		t.Fatalf("TRAP error %g not better than BE %g", tr, be)
	}
}

func TestInverterVTC(t *testing.T) {
	c := New()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.AddV("VDD", vdd, Gnd, DC(0.9))
	vin := c.AddV("VIN", in, Gnd, DC(0))
	n := vsmodel.NMOS40(300e-9)
	p := vsmodel.PMOS40(600e-9)
	c.AddMOS("MN", out, in, Gnd, Gnd, &n)
	c.AddMOS("MP", out, in, vdd, vdd, &p)

	var vins []float64
	for v := 0.0; v <= 0.9001; v += 0.0225 {
		vins = append(vins, v)
	}
	ops, err := c.DCSweep(vin, vins)
	if err != nil {
		t.Fatal(err)
	}
	// Endpoints rail-to-rail, monotone falling.
	if ops[0].V(out) < 0.88 {
		t.Fatalf("VTC(0) = %g", ops[0].V(out))
	}
	last := ops[len(ops)-1].V(out)
	if last > 0.02 {
		t.Fatalf("VTC(Vdd) = %g", last)
	}
	prev := math.Inf(1)
	for i, op := range ops {
		v := op.V(out)
		if v > prev+1e-7 {
			t.Fatalf("VTC not monotone at %g: %g > %g", vins[i], v, prev)
		}
		prev = v
	}
	// Switching threshold near midrail for this P/N sizing.
	var vm float64
	for i := 1; i < len(ops); i++ {
		if ops[i].V(out) < vins[i] { // crossing V(out)=Vin
			f := (vins[i-1] - ops[i-1].V(out)) /
				((ops[i].V(out) - ops[i-1].V(out)) - (vins[i] - vins[i-1]))
			_ = f
			vm = vins[i]
			break
		}
	}
	if vm < 0.3 || vm > 0.6 {
		t.Fatalf("switching threshold %g far from midrail", vm)
	}
}

func TestInverterTransientSwitches(t *testing.T) {
	for _, trap := range []bool{false, true} {
		c := New()
		vdd := c.Node("vdd")
		in := c.Node("in")
		out := c.Node("out")
		c.AddV("VDD", vdd, Gnd, DC(0.9))
		c.AddV("VIN", in, Gnd, Pulse{V0: 0, V1: 0.9, Delay: 20e-12, Rise: 10e-12, Fall: 10e-12, Width: 150e-12, Period: 400e-12})
		n := vsmodel.NMOS40(300e-9)
		p := vsmodel.PMOS40(600e-9)
		c.AddMOS("MN", out, in, Gnd, Gnd, &n)
		c.AddMOS("MP", out, in, vdd, vdd, &p)
		c.AddC("CL", out, Gnd, 1e-15)

		res, err := c.Transient(TranOpts{Stop: 400e-12, Step: 0.5e-12, Trap: trap})
		if err != nil {
			t.Fatalf("trap=%v: %v", trap, err)
		}
		v := res.VName("out")
		// Starts high (input low), falls after input rises, recovers.
		if v[0] < 0.85 {
			t.Fatalf("trap=%v: initial out %g", trap, v[0])
		}
		minV := 1.0
		for _, x := range v {
			if x < minV {
				minV = x
			}
		}
		if minV > 0.05 {
			t.Fatalf("trap=%v: output never pulled low (min %g)", trap, minV)
		}
		if end := v[len(v)-1]; end < 0.85 {
			t.Fatalf("trap=%v: output did not recover: %g", trap, end)
		}
	}
}

func TestPulseWaveform(t *testing.T) {
	p := Pulse{V0: 0, V1: 1, Delay: 1, Rise: 1, Fall: 1, Width: 2, Period: 10}
	cases := map[float64]float64{
		0: 0, 1: 0, 1.5: 0.5, 2: 1, 3.9: 1, 4.5: 0.5, 5: 0, 11.5: 0.5,
	}
	for tm, want := range cases {
		if got := p.At(tm); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Pulse.At(%g) = %g want %g", tm, got, want)
		}
	}
}

func TestPWLWaveform(t *testing.T) {
	p := PWL{T: []float64{0, 1, 2}, V: []float64{0, 2, 0}}
	cases := map[float64]float64{-1: 0, 0.5: 1, 1: 2, 1.5: 1, 3: 0}
	for tm, want := range cases {
		if got := p.At(tm); math.Abs(got-want) > 1e-12 {
			t.Fatalf("PWL.At(%g) = %g want %g", tm, got, want)
		}
	}
	if (PWL{}).At(1) != 0 {
		t.Fatal("empty PWL")
	}
}

func TestTranAtInterpolation(t *testing.T) {
	c := New()
	in := c.Node("in")
	c.AddV("VIN", in, Gnd, PWL{T: []float64{0, 1e-9}, V: []float64{0, 1}})
	c.AddR("R", in, Gnd, 1000)
	res, err := c.Transient(TranOpts{Stop: 1e-9, Step: 0.25e-9, UIC: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.At(in, 0.5e-9); math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("At(0.5ns) = %g", got)
	}
	if got := res.At(in, 2e-9); math.Abs(got-1) > 1e-6 {
		t.Fatalf("At beyond end = %g", got)
	}
}

func TestNodeReuseAndNames(t *testing.T) {
	c := New()
	a := c.Node("x")
	b := c.Node("x")
	if a != b {
		t.Fatal("Node must be idempotent")
	}
	if c.Node("0") != Gnd || c.Node("gnd") != Gnd {
		t.Fatal("ground aliases")
	}
	if c.NodeName(Gnd) != "gnd" || c.NodeName(a) != "x" {
		t.Fatal("NodeName")
	}
	if c.VSourceIndex("nope") != -1 {
		t.Fatal("VSourceIndex missing should be -1")
	}
}

func TestBadElements(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for R<=0")
		}
	}()
	c.AddR("R", c.Node("a"), Gnd, 0)
}

func newZeroMatrix(n int) *matrixAlias { return newMatrixForTest(n) }
