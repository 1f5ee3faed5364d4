package spice

import (
	"math"
	"math/rand"
	"testing"

	"vstat/internal/bsim"
	"vstat/internal/device"
	"vstat/internal/vsmodel"
)

// Bounds on the device bypass's first-order error: 1e-4 of the Newton
// current tolerance for Id, and the charge that carries that current for
// 1 ps for each terminal charge.
const (
	bypassMaxDId = 1e-4 * tolI
	bypassMaxDQ  = 1e-4 * tolI * 1e-12
)

// unitFrac maps a fuzz input onto [0, 1).
func unitFrac(x float64) (float64, bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, false
	}
	x = math.Abs(x)
	return x - math.Floor(x), true
}

// bypassCard returns a mismatched NMOS (kind bit 0 clear) or PMOS card of
// the VS model (kind bit 1 clear) or the golden model: W 0.3–1.2 µm,
// ΔVT0 ±0.12 V and ΔL, ΔW ±3 nm on both models, and on VS Δµ ±15% and
// ΔCinv ±3%. u holds six numbers in [0, 1).
func bypassCard(kind uint8, u []float64) device.Device {
	pmos := kind&1 != 0
	w := 0.3e-6 + 0.9e-6*u[0]
	d := device.Deltas{
		DVT0: 0.12 * (2*u[1] - 1),
		DL:   3e-9 * (2*u[2] - 1),
		DW:   3e-9 * (2*u[3] - 1),
	}
	if kind&2 != 0 {
		p := bsim.NMOS40(w)
		if pmos {
			p = bsim.PMOS40(w)
		}
		return p.WithDeltas(d)
	}
	p := vsmodel.NMOS40(w)
	if pmos {
		p = vsmodel.PMOS40(w)
	}
	d.DMu = 0.15 * p.Mu * (2*u[4] - 1)
	d.DCinv = 0.03 * p.Cinv * (2*u[5] - 1)
	return p.WithDeltas(d)
}

// FuzzBypassExtrapolation checks the device bypass's first-order bundle
// against a direct evaluation: for VS and golden NMOS and PMOS cards over
// the mismatch ranges of bypassCard, drain, gate and source biases across
// the 0.9 V rail with the body on its rail, and random moves of all four
// terminals within bypassTol, the extrapolated Id must lie within
// bypassMaxDId and every charge within bypassMaxDQ of the model's own
// values at the moved point.
func FuzzBypassExtrapolation(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		f.Add(uint8(i%4), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	}
	f.Fuzz(func(t *testing.T, kind uint8, w, dvt, dl, dw, dmu, dcinv, vd, vg, vs, md, mg, ms, mb float64) {
		var u [13]float64
		for i, x := range []float64{w, dvt, dl, dw, dmu, dcinv, vd, vg, vs, md, mg, ms, mb} {
			v, ok := unitFrac(x)
			if !ok {
				t.Skip("non-finite input")
			}
			u[i] = v
		}
		d := bypassCard(kind, u[:6])
		vb := 0.0
		if kind&1 != 0 {
			vb = 0.9
		}
		v := [4]float64{-0.05 + 1.0*u[6], -0.05 + 1.0*u[7], -0.05 + 1.0*u[8], vb}
		var e bypassEntry
		e.dv = device.EvalDerivs(d, v[0], v[1], v[2], v[3])
		e.keep(&v)
		var moved [4]float64
		for j := range moved {
			moved[j] = v[j] + 0.999*bypassTol*(2*u[9+j]-1)
		}
		got, ok := e.extrapolate(&moved)
		if !ok {
			t.Fatalf("a move within bypassTol missed the entry: %v → %v", v, moved)
		}
		want := d.Eval(moved[0], moved[1], moved[2], moved[3])
		if err := math.Abs(got.Id - want.Id); !(err <= bypassMaxDId) {
			t.Fatalf("%v card (kind %d, %v) at %v: |ΔId| = %g A, bound %g A",
				d.Kind(), kind, u[:6], v, err, bypassMaxDId)
		}
		gq := [4]float64{got.Q.Qd, got.Q.Qg, got.Q.Qs, got.Q.Qb}
		wq := [4]float64{want.Q.Qd, want.Q.Qg, want.Q.Qs, want.Q.Qb}
		for k := range gq {
			if err := math.Abs(gq[k] - wq[k]); !(err <= bypassMaxDQ) {
				t.Fatalf("%v card (kind %d, %v) at %v: |ΔQ[%d]| = %g C, bound %g C",
					d.Kind(), kind, u[:6], v, k, err, bypassMaxDQ)
			}
		}
	})
}

// An entry serves a point only when every terminal lies within bypassTol
// of its own point; an empty entry, and one whose bundle was non-finite,
// serves none.
func TestBypassEntryBounds(t *testing.T) {
	n := vsmodel.NMOS40(300e-9)
	v := [4]float64{0.4, 0.9, 0, 0}
	var e bypassEntry
	e.v = emptyPoint
	if _, ok := e.extrapolate(&v); ok {
		t.Fatal("an empty entry served a point")
	}
	e.dv = device.EvalDerivs(&n, v[0], v[1], v[2], v[3])
	e.keep(&v)
	if ev, ok := e.extrapolate(&v); !ok || ev != e.dv.Eval {
		t.Fatalf("the entry's own point: %v, %v, want its evaluation %v", ev, ok, e.dv.Eval)
	}
	for j := range v {
		for _, dv := range []float64{bypassTol, -bypassTol, 1.5 * bypassTol} {
			w := v
			w[j] += dv
			_, ok := e.extrapolate(&w)
			if want := math.Abs(w[j]-v[j]) <= bypassTol; ok != want {
				t.Fatalf("terminal %d moved %g V: served %v, want %v", j, dv, ok, want)
			}
		}
	}
	e.dv.CQ[2][1] = math.Inf(1)
	e.keep(&v)
	if _, ok := e.extrapolate(&v); ok {
		t.Fatal("an entry kept a non-finite bundle")
	}
}

// A transient bypasses evaluations, a device swap empties its entry, and a
// full evaluation that is non-finite is never served.
func TestBypassCacheLifetime(t *testing.T) {
	c, _ := recordBench(recPulse(), recLoad())
	res := mustRun(t, c, recOpts(false))
	if st := c.Stats(); st.BypassedEvals == 0 {
		t.Fatalf("a %d-step transient bypassed no evaluation: %+v", len(res.Time)-1, st)
	}
	live := 0
	for i := range c.bypass {
		if !math.IsNaN(c.bypass[i].v[0]) {
			live++
		}
	}
	if live == 0 {
		t.Fatal("the transient left no bypass entry")
	}
	c.SetMOSDevice(0, c.MOSDevice(0))
	if !math.IsNaN(c.bypass[0].v[0]) {
		t.Fatal("SetMOSDevice kept the device's bypass entry")
	}
	nan := &device.FaultCard{Inner: cleanNMOS(), Mode: device.FaultNaN}
	c.SetMOSDevice(1, nan)
	x := make([]float64, c.unknowns())
	ts := &tranState{h: recStep}
	c.sizeTranHistory(ts)
	ctx := assembleCtx{tran: ts, srcScale: 1}
	f := make([]float64, c.unknowns())
	jac := newMatrixForTest(c.unknowns())
	c.assemble(x, f, jac, &ctx, true)
	once := nan.Calls()
	c.assemble(x, f, jac, &ctx, true)
	if !math.IsNaN(c.bypass[1].v[0]) || nan.Calls() != 2*once {
		t.Fatalf("a non-finite evaluation was served again (%d calls after one assembly, %d after two)",
			once, nan.Calls())
	}
}

// panicky is a device whose evaluations panic while armed.
type panicky struct {
	device.Device
	armed bool
}

func (d *panicky) Eval(vd, vg, vs, vb float64) device.Eval {
	if d.armed {
		panic("armed device evaluated")
	}
	return d.Device.Eval(vd, vg, vs, vb)
}

// A device panic inside the evaluation step, which the Monte Carlo engine
// recovers from before it reuses the circuit, leaves nothing queued: an
// assembly after it, whose devices the bypass all serves, sums the same
// residual as a twin that never panicked, and its entries keep their
// points.
func TestPanickedAssemblyLeavesNothingQueued(t *testing.T) {
	build := func() (*Circuit, *panicky) {
		c, _ := testInverter()
		n := c.mos[0].dev.(*vsmodel.Params)
		pd := &panicky{Device: n.Bind()}
		c.SetMOSDevice(0, pd)
		c.SetMOSDevice(1, c.mos[1].dev.(*vsmodel.Params).Bind())
		return c, pd
	}
	c, pd := build()
	twin, _ := build()
	n := c.unknowns()
	x1, x2 := make([]float64, n), make([]float64, n)
	for i := range x1 {
		x1[i] = 0.3 + 0.1*float64(i)
		x2[i] = 0.2 + 0.05*float64(i)
	}
	f, fTwin := make([]float64, n), make([]float64, n)
	ctx := &assembleCtx{srcScale: 1}
	c.assembleResidual(x1, f, ctx, true)
	twin.assembleResidual(x1, fTwin, ctx, true)

	pd.armed = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the armed device did not panic")
			}
		}()
		c.assembleResidual(x2, f, ctx, true)
	}()
	pd.armed = false

	c.assembleResidual(x1, f, ctx, true)
	twin.assembleResidual(x1, fTwin, ctx, true)
	for i := range f {
		if math.Float64bits(f[i]) != math.Float64bits(fTwin[i]) {
			t.Fatalf("residual row %d after the panic is %g, twin %g", i, f[i], fTwin[i])
		}
	}
	for i := range c.bypass {
		if c.bypass[i].v != twin.bypass[i].v {
			t.Fatalf("MOSFET %d's bypass point is %v after the panic, twin %v", i, c.bypass[i].v, twin.bypass[i].v)
		}
	}
}
