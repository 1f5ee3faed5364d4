package vsmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vstat/internal/device"
)

// solve runs the series solve of a card at an n-equivalent,
// source-referred bias through a temporary Instance, as a group of one, as
// the card's Eval does. A card without a channel gets vdsi = vds and zeros.
func (p *Params) solve(vgs, vds, vbs float64, st *seriesState) {
	var ls [1]laneSolve
	l := &ls[0]
	l.in, l.b = p.Bind(), bias{vgs: vgs, vds: vds, vbs: vbs}
	if l.in.weff <= 0 {
		*st = seriesState{vdsi: vds}
		return
	}
	solveLanes(ls[:])
	*st = l.st
}

// solveSeries returns the card's converged drain current (A), charge
// density, saturation measure and internal drain-source voltage.
func (p *Params) solveSeries(vgs, vds, vbs float64) (id, qixo, fsat, vdsi float64) {
	var st seriesState
	p.solve(vgs, vds, vbs, &st)
	return st.id, st.co.q, st.co.s, st.vdsi
}

// coreBias computes the intrinsic (post-series-resistance) drain current per
// unit width for an n-equivalent device with source-referred internal
// voltages vgsi, vdsi (vdsi ≥ 0) and body vbsi. It also returns the virtual
// source charge density and the saturation function value for the charge
// model.
func (p *Params) coreBias(vgsi, vdsi, vbsi float64) (idPerW, qixo, fsat float64) {
	var co coreOut
	p.Bind().coreAt(vgsi, vdsi, vbsi, &co)
	return co.f, co.q, co.s
}

// coreAt runs the kernel's core at one internal bias, as a group of one,
// into co.
func (in *Instance) coreAt(vgsi, vdsi, vbsi float64, co *coreOut) {
	var ls [1]laneSolve
	l := &ls[0]
	l.in, l.vgsi, l.vdsi, l.vbsi = in, vgsi, vdsi, vbsi
	core(ls[:], []int{0})
	*co = l.st.co
}

// solveSeriesD is the series solve in its one-device form, the oracle that
// FuzzInstanceMatchesCard holds every lane of the kernel to bit for bit:
// the control flow and acceptance rules of solveLanes and step written as
// one loop, evaluating the core through coreSerial. It fills st, which it
// resets first.
func (in *Instance) solveSeriesD(vgs, vds, vbs float64, st *seriesState) {
	*st = seriesState{}
	w := in.weff
	if w <= 0 {
		st.vdsi = vds
		return
	}
	rs, rd := in.rs, in.rd

	// eval writes the core evaluation straight into st.co ("last evaluation
	// wins").
	eval := func(i float64) (f, df, vdsiOut float64) {
		st.evals++
		vgsi := vgs - i*rs
		vdsiOut = vds - i*(rs+rd)
		dvd := -(rs + rd) // d vdsi / dI, zero once the clamp engages
		if vdsiOut < 0 {
			vdsiOut = 0
			dvd = 0
		}
		vbsi := vbs - i*rs
		in.p.coreSerial(vgsi, vdsiOut, vbsi, in.delta, in.vdsats, &st.co)
		f = w * st.co.f
		df = w * (st.co.fG*(-rs) + st.co.fD*dvd + st.co.fB*(-rs))
		return f, df, vdsiOut
	}

	f0, df0, v0 := eval(0)
	st.id, st.vdsi = f0, v0
	if rs == 0 && rd == 0 {
		return
	}
	tol := 1e-13 + 1e-9*f0
	if f0 <= tol {
		return
	}

	a, b := 0.0, f0
	x := f0 / (1 - df0) // Newton step from I=0: g(0) = −F(0), g'(0) = 1 − F'(0)
	prev := x           // the last Newton step; 0 after a bisection step
	if !(x > a && x < b) {
		x = 0.5 * (a + b)
		prev = 0
	} else if firstIterateConverged(w*st.co.q*in.p.Vxo, in.p.PhiT, rs+rd, x, df0, tol) {
		st.id, st.vdsi = x, acceptMove(&st.co, x, 0, vds, rs, rd)
		return
	}
	for it := 0; it < 60; it++ {
		fx, dfx, vx := eval(x)
		gx := x - fx
		st.id, st.vdsi = fx, vx
		if math.Abs(gx) <= tol || b-a <= 1e-15*(1+b) {
			st.id = x
			return
		}
		if gx > 0 {
			b = x
		} else {
			a = x
		}
		xn := x - gx/(1-dfx)
		if !(xn > a && xn < b) {
			xn = 0.5 * (a + b)
			prev = 0
		} else if newtonConverged(xn-x, prev, tol) {
			st.id, st.vdsi = xn, acceptMove(&st.co, xn, x, vds, rs, rd)
			return
		} else {
			prev = xn - x
		}
		x = xn
	}
}

// Property: the series-resistance solution satisfies its own implicit
// equation — re-evaluating the core at the degraded internal bias must give
// back the solved current.
func TestSeriesSolveSelfConsistency(t *testing.T) {
	n := NMOS40(600e-9)
	f := func(a, b uint8) bool {
		vgs := float64(a) / 255 * 0.9
		vds := float64(b) / 255 * 0.9
		id, _, _, _ := n.solveSeries(vgs, vds, 0)
		w := n.Weff()
		rs := n.Rs0 / w
		rd := n.Rd0 / w
		vgsi := vgs - id*rs
		vdsi := vds - id*(rs+rd)
		if vdsi < 0 {
			vdsi = 0
		}
		perW, _, _ := n.coreBias(vgsi, vdsi, -id*rs)
		back := w * perW
		return math.Abs(back-id) <= 1e-12+1e-6*math.Abs(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The solved current must never exceed the undegraded core current, and the
// degradation must deepen with larger access resistance.
func TestSeriesDegradationMonotoneInRs(t *testing.T) {
	base := NMOS40(600e-9)
	prev := math.Inf(1)
	for _, rs := range []float64{0, 50e-6, 100e-6, 200e-6} {
		n := base
		n.Rs0, n.Rd0 = rs, rs
		id := n.Eval(0.9, 0.9, 0, 0).Id
		if id > prev {
			t.Fatalf("Id should fall with Rs: %g after %g (Rs=%g)", id, prev, rs)
		}
		prev = id
	}
}

// Smoothness of the solved current: the series solver's tolerance must not
// introduce kinks visible to the simulator's finite differences.
func TestSeriesSolveSmoothness(t *testing.T) {
	n := NMOS40(600e-9)
	h := 1e-4
	for vg := 0.2; vg < 0.9; vg += 0.007 {
		i0 := n.Eval(0.9, vg-h, 0, 0).Id
		i1 := n.Eval(0.9, vg, 0, 0).Id
		i2 := n.Eval(0.9, vg+h, 0, 0).Id
		// Relative jump of the forward difference between adjacent steps.
		d1 := i1 - i0
		d2 := i2 - i1
		if math.Abs(d2-d1) > 0.05*math.Abs(d1)+1e-12 {
			t.Fatalf("gm kink at Vg=%g: %g vs %g", vg, d1, d2)
		}
	}
}

func TestFsatBounds(t *testing.T) {
	n := NMOS40(600e-9)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		vgs := rng.Float64() * 0.9
		vds := rng.Float64() * 0.9
		_, _, fsat, _ := n.solveSeries(vgs, vds, 0)
		if fsat < 0 || fsat >= 1 {
			t.Fatalf("Fsat = %g out of [0,1) at (%g,%g)", fsat, vgs, vds)
		}
	}
	if _, _, fsat, _ := n.solveSeries(0.9, 0, 0); fsat != 0 {
		t.Fatalf("Fsat(Vds=0) = %g", fsat)
	}
}

func TestAppliedDeltasRecorded(t *testing.T) {
	n := NMOS40(600e-9)
	d := n.ApplyDeltas(deltaVT(0.01))
	if d.Applied.DVT0 != 0.01 {
		t.Fatalf("Applied not recorded: %+v", d.Applied)
	}
}

func TestZeroWidthDegenerate(t *testing.T) {
	n := NMOS40(600e-9)
	n.DWg = n.W // Weff = 0
	e := n.Eval(0.9, 0.9, 0, 0)
	if e.Id != 0 {
		t.Fatalf("zero-width device conducts: %g", e.Id)
	}
	// A card with no effective width has no channel and no overlap: both
	// evaluation paths return all zeros, charges included, for either
	// polarity at zero and negative Weff.
	for _, p := range []Params{NMOS40(600e-9), PMOS40(600e-9)} {
		for _, dw := range []float64{0, 1e-9} {
			p.DWg = p.W + dw
			if got := p.Eval(0.9, 0.9, 0, 0); got != (device.Eval{}) {
				t.Fatalf("%v Weff=%g: Eval %+v, want zeros", p.TypeK, p.Weff(), got)
			}
			if got := p.EvalDerivs4(0.9, 0.9, 0, 0); got != (device.Derivs{}) {
				t.Fatalf("%v Weff=%g: EvalDerivs4 %+v, want zeros", p.TypeK, p.Weff(), got)
			}
		}
	}
}

// Cross-check the Newton series solve against a bisection root of the
// implicit equation: the solved current must lie within the solve's own
// tolerance of it.
func TestSeriesSolveMatchesBruteForce(t *testing.T) {
	n := NMOS40(600e-9)
	for _, bias := range [][2]float64{{0.9, 0.9}, {0.9, 0.05}, {0.6, 0.45}, {0.3, 0.9}} {
		vgs, vds := bias[0], bias[1]
		id, _, _, _ := n.solveSeries(vgs, vds, 0)
		ref := bisectSeries(&n, vgs, vds, 0)
		if math.Abs(id-ref.id) > ref.tol {
			t.Fatalf("bias %v: Newton %g vs bisect %g (tol %g)", bias, id, ref.id, ref.tol)
		}
	}
}

// seriesRoot is a reference solution of the series-resistance equation:
// the root current, qixo and Fsat at its internal bias, and the solve's
// tolerance 1e-13 A + 1e-9·F(0).
type seriesRoot struct {
	id, qixo, fsat, tol float64
}

// bisectSeries finds the root of g(I) = I − F(I) by 200 bisection steps
// on [0, F(0)], independently of the Newton solve.
func bisectSeries(p *Params, vgs, vds, vbs float64) seriesRoot {
	w := p.Weff()
	rs := p.Rs0 / w
	rd := p.Rd0 / w
	core := func(i float64) (f, q, s float64) {
		vdsi := vds - i*(rs+rd)
		if vdsi < 0 {
			vdsi = 0
		}
		perW, q, s := p.coreBias(vgs-i*rs, vdsi, vbs-i*rs)
		return w * perW, q, s
	}
	f0, _, _ := core(0)
	lo, hi := 0.0, f0
	for k := 0; k < 200; k++ {
		mid := 0.5 * (lo + hi)
		if f, _, _ := core(mid); mid-f > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	r := seriesRoot{id: 0.5 * (lo + hi), tol: 1e-13 + 1e-9*f0}
	_, r.qixo, r.fsat = core(r.id)
	return r
}

// seriesCase is one input of FuzzSeriesSolve. Every field but kind is a
// fraction in [0, 1) of its range (see card and bias).
type seriesCase struct {
	kind                            uint8 // bit 0: PMOS; bit 1: a card with Weff ≤ 0
	w, dvt, dl, dw, dmu, dcinv, rsc float64
	vgs, vbs, vds                   float64
}

// mismatchCard builds a VS card at a drawn width from 0.3 to 1.2 µm, with
// the Table I deltas up to ΔVT0 ±0.12 V, ΔL and ΔW ±3 nm, Δµ ±15% and
// ΔCinv ±3% (about ±6σ of the extracted mismatch).
func mismatchCard(pmos bool, w, dvt, dl, dw, dmu, dcinv float64) Params {
	p := NMOS40(0.3e-6 + 0.9e-6*w)
	if pmos {
		p = PMOS40(p.W)
	}
	return p.ApplyDeltas(device.Deltas{
		DVT0:  0.12 * (2*dvt - 1),
		DL:    3e-9 * (2*dl - 1),
		DW:    3e-9 * (2*dw - 1),
		DMu:   0.15 * p.Mu * (2*dmu - 1),
		DCinv: 0.03 * p.Cinv * (2*dcinv - 1),
	})
}

// card is the case's mismatched card with Rs0 and Rd0 scaled by 0–3×; with
// kind bit 1 its effective width is between −3 nm and 0.
func (c seriesCase) card() Params {
	p := mismatchCard(c.kind&1 != 0, c.w, c.dvt, c.dl, c.dw, c.dmu, c.dcinv)
	p.Rs0 *= 3 * c.rsc
	p.Rd0 *= 3 * c.rsc
	if c.kind&2 != 0 {
		p.DWg = p.W + 3e-9*c.dw
	}
	return p
}

// bias is the case's n-equivalent source-referred bias: Vgs from −0.2 to
// 1 V, Vbs from −0.3 to 0 V and Vds from 0 to 1 V.
func (c seriesCase) bias() (vgs, vds, vbs float64) {
	return -0.2 + 1.2*c.vgs, c.vds, -0.3 * c.vbs
}

// seriesSeeds is FuzzSeriesSolve's seed corpus, which plain go test also
// runs, and TestSeriesSolveEvalBudget's population: 4000 cases, a quarter
// of them below 1 mV of Vds and one in 20 on a Weff ≤ 0 card of either
// polarity.
func seriesSeeds() []seriesCase {
	rng := rand.New(rand.NewSource(16))
	cs := make([]seriesCase, 4000)
	for i := range cs {
		c := seriesCase{
			kind: uint8(i % 2),
			w:    rng.Float64(), dvt: rng.Float64(), dl: rng.Float64(), dw: rng.Float64(),
			dmu: rng.Float64(), dcinv: rng.Float64(), rsc: rng.Float64(),
			vgs: rng.Float64(), vbs: rng.Float64(), vds: rng.Float64(),
		}
		if i%4 == 1 {
			c.vds *= 1e-3
		}
		if i%40 == 2 || i%40 == 3 {
			c.kind |= 2
		}
		cs[i] = c
	}
	return cs
}

// clampCase is a FuzzSeriesSolve seed whose solve evaluates the core at a
// current above vds/(Rs+Rd), where the internal drain bias clamps at zero
// (laneSolve.at): a 0.75 µm NMOS card with strong drive (ΔVT0 −0.12 V,
// ΔL −3 nm, Δµ +14.7%, ΔCinv +2.9%) and Rs0, Rd0 scaled 2.97×, in the deep
// linear region at Vgs 0.988 V, Vds 0.2 V. Its channel resistance there is
// below Rs+Rd, so the bracket's upper end F(0) lies above vds/(Rs+Rd).
var clampCase = seriesCase{w: 0.5, dw: 0.5, dmu: 0.99, dcinv: 0.99, rsc: 0.99, vgs: 0.99, vds: 0.2}

// TestSeriesSolveReachesClamp steps clampCase's solve round by round, as
// solveLanes does for one lane, and requires a round that evaluates the
// core above vds/(Rs+Rd) with the internal drain bias and its slope
// clamped at zero. The solve must still end within its tolerance of the
// bisection root, in the state of the one-device form, solveSeriesD.
func TestSeriesSolveReachesClamp(t *testing.T) {
	p := clampCase.card()
	vgs, vds, vbs := clampCase.bias()
	in := p.Bind()
	var ls [1]laneSolve
	l := &ls[0]
	l.in, l.b, l.first = in, bias{vgs: vgs, vds: vds, vbs: vbs}, true
	l.at(0)
	iMax := vds / (in.rs + in.rd)
	clamped := 0
	for {
		if l.x > iMax {
			if l.vdsi != 0 || l.dvd != 0 {
				t.Fatalf("evaluation at %g A, above vds/(Rs+Rd) = %g A, has vdsi %g and dvdsi/dI %g, want 0",
					l.x, iMax, l.vdsi, l.dvd)
			}
			clamped++
		}
		core(ls[:], []int{0})
		if !l.step() {
			break
		}
	}
	if clamped == 0 {
		t.Fatalf("no evaluation of %d passed vds/(Rs+Rd) = %g A", l.st.evals, iMax)
	}
	ref := bisectSeries(&p, vgs, vds, vbs)
	if err := math.Abs(l.st.id - ref.id); err > ref.tol {
		t.Fatalf("I %g vs root %g: error %.3g tol", l.st.id, ref.id, err/ref.tol)
	}
	var want seriesState
	in.solveSeriesD(vgs, vds, vbs, &want)
	if !sameState(&l.st, &want) {
		t.Fatalf("lane solve state %+v, one-device solve %+v", l.st, want)
	}
}

// unit folds a fuzzed float into [0, 1); NaN and ±Inf report false.
func unit(x float64) (float64, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, false
	}
	x = math.Abs(x)
	return x - math.Floor(x), true
}

// FuzzSeriesSolve checks the Newton series solve against a bisection root
// over ±6σ cards, scaled access resistances and biases down to Vds = 0: the
// current must lie within the solve's tolerance of the root, and qixo and
// Fsat, which the solve moves to first order when it accepts a Newton
// iterate without evaluating there, within 1e-6 of their values at the root
// (qixo relative to itself, Fsat absolute). Eval must equal EvalDerivs4's
// values bit for bit, on Weff ≤ 0 cards too.
func FuzzSeriesSolve(f *testing.F) {
	for _, c := range append(seriesSeeds(), clampCase) {
		f.Add(c.kind, c.w, c.dvt, c.dl, c.dw, c.dmu, c.dcinv, c.rsc, c.vgs, c.vbs, c.vds)
	}
	f.Fuzz(func(t *testing.T, kind uint8, w, dvt, dl, dw, dmu, dcinv, rsc, vgs, vbs, vds float64) {
		c := seriesCase{kind: kind & 3}
		for _, x := range []struct {
			dst *float64
			v   float64
		}{{&c.w, w}, {&c.dvt, dvt}, {&c.dl, dl}, {&c.dw, dw}, {&c.dmu, dmu}, {&c.dcinv, dcinv},
			{&c.rsc, rsc}, {&c.vgs, vgs}, {&c.vbs, vbs}, {&c.vds, vds}} {
			u, ok := unit(x.v)
			if !ok {
				t.Skip("non-finite input")
			}
			*x.dst = u
		}
		p := c.card()
		ngs, nds, nbs := c.bias()

		pol := p.TypeK.Polarity()
		vd, vg, vb := pol*nds, pol*ngs, pol*nbs
		e := p.Eval(vd, vg, 0, vb)
		d := p.EvalDerivs4(vd, vg, 0, vb)
		if !sameBits(e, d.Eval) {
			t.Fatalf("%+v: Eval %+v != EvalDerivs4 %+v", c, e, d.Eval)
		}
		if p.Weff() <= 0 {
			return
		}

		var st seriesState
		p.solve(ngs, nds, nbs, &st)
		ref := bisectSeries(&p, ngs, nds, nbs)
		if err := math.Abs(st.id - ref.id); err > ref.tol {
			t.Fatalf("%+v: I %g vs root %g: error %.3g tol (%d evaluations)", c, st.id, ref.id, err/ref.tol, st.evals)
		}
		if err := math.Abs(st.co.q-ref.qixo) / ref.qixo; err > 1e-6 {
			t.Fatalf("%+v: qixo %g vs %g at the root: relative error %g", c, st.co.q, ref.qixo, err)
		}
		if err := math.Abs(st.co.s - ref.fsat); err > 1e-6 {
			t.Fatalf("%+v: Fsat %g vs %g at the root", c, st.co.s, ref.fsat)
		}
	})
}

// sameBits compares two evaluations bit for bit (so −0 differs from +0).
func sameBits(a, b device.Eval) bool {
	for _, p := range [][2]float64{{a.Id, b.Id}, {a.Q.Qd, b.Q.Qd}, {a.Q.Qg, b.Q.Qg}, {a.Q.Qs, b.Q.Qs}, {a.Q.Qb, b.Q.Qb}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// TestSeriesSolveEvalBudget pins the mean number of core evaluations per
// solve over FuzzSeriesSolve's seed population (its 3800 Weff > 0 cases).
// Taking a Newton iterate once its error is provably below tolerance brought
// the mean from 3.002, when every accepted iterate was evaluated once more,
// to 2.165; the budget is that plus 5%, so a return to confirming every
// iterate fails.
func TestSeriesSolveEvalBudget(t *testing.T) {
	const budget = 2.165 * 1.05
	evals, solves := 0, 0
	var st seriesState
	for _, c := range seriesSeeds() {
		p := c.card()
		if p.Weff() <= 0 {
			continue
		}
		vgs, vds, vbs := c.bias()
		p.solve(vgs, vds, vbs, &st)
		evals += st.evals
		solves++
	}
	mean := float64(evals) / float64(solves)
	t.Logf("%.4f core evaluations per solve over %d solves", mean, solves)
	if mean > budget {
		t.Fatalf("%.4f core evaluations per solve, budget %.4f", mean, budget)
	}
}

func deltaVT(v float64) device.Deltas {
	return device.Deltas{DVT0: v}
}
