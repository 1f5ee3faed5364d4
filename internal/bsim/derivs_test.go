package bsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vstat/internal/device"
)

func TestGoldenNativeDerivsMatchFD(t *testing.T) {
	n := NMOS40(600e-9)
	p := PMOS40(600e-9)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		d := &n
		if trial%2 == 1 {
			d = &p
		}
		vd := rng.Float64()*1.8 - 0.45
		vg := rng.Float64() * 0.9
		vs := rng.Float64() * 0.9
		if err := nativeMatchesFD(d, vd, vg, vs, 0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// nativeMatchesFD compares the AD bundle with the central finite-difference
// one at one bias. Values must agree to 1e-12; FD truncation dominates the
// derivative tolerance (3 % of the row scale), the AD side being exact.
func nativeMatchesFD(d *Params, vd, vg, vs, vb float64) error {
	nat := d.EvalDerivs4(vd, vg, vs, vb)
	fd := device.EvalDerivsFD(d, vd, vg, vs, vb)
	if math.Abs(nat.Id-fd.Id) > 1e-12*(1+math.Abs(fd.Id)) {
		return fmt.Errorf("Id %g vs %g", nat.Id, fd.Id)
	}
	if math.Abs(nat.Q.Qg-fd.Q.Qg) > 1e-12*(1+math.Abs(fd.Q.Qg)) {
		return fmt.Errorf("Qg %g vs %g", nat.Q.Qg, fd.Q.Qg)
	}
	gScale := 0.0
	for _, v := range fd.GId {
		gScale += math.Abs(v)
	}
	for j := 0; j < 4; j++ {
		if math.Abs(nat.GId[j]-fd.GId[j]) > 0.03*gScale+1e-12 {
			return fmt.Errorf("(vd=%.4f vg=%.4f vs=%.4f vb=%.4f): GId[%d] AD %g vs FD %g",
				vd, vg, vs, vb, j, nat.GId[j], fd.GId[j])
		}
	}
	for k := 0; k < 4; k++ {
		cScale := 0.0
		for _, v := range fd.CQ[k] {
			cScale += math.Abs(v)
		}
		for j := 0; j < 4; j++ {
			if math.Abs(nat.CQ[k][j]-fd.CQ[k][j]) > 0.03*cScale+1e-22 {
				return fmt.Errorf("(vd=%.4f vg=%.4f vs=%.4f vb=%.4f): CQ[%d][%d] AD %g vs FD %g",
					vd, vg, vs, vb, k, j, nat.CQ[k][j], fd.CQ[k][j])
			}
		}
	}
	return nil
}

// FuzzNativeDerivsFD extends TestGoldenNativeDerivsMatchFD to ±6σ
// mismatched cards: a drawn width from 0.3 to 1.2 µm and deltas up to
// ΔVth0 ±0.12 V, ΔL and ΔW ±3 nm, ΔU0 ±15% and ΔCox ±3%, at Vd from −0.45
// to 1.35 V, Vg from −0.2 to 1 V, Vs from 0 to 0.9 V and Vb from −0.3 to
// 0 V. Two kinks that the 1e-4 V central stencil straddles are excluded,
// since there the stencil, not the AD bundle, is wrong: |Vds| < 3·FDStep,
// where it crosses the source/drain swap, and a forward body bias within
// 10 mV of the PhiS − 0.05 clamp (reached by PMOS cards only).
func FuzzNativeDerivsFD(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		f.Add(uint8(i%2), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	}
	f.Fuzz(func(t *testing.T, kind uint8, w, dvt, dl, dw, dmu, dcinv, vd, vg, vs, vb float64) {
		var u [10]float64
		for i, x := range []float64{w, dvt, dl, dw, dmu, dcinv, vd, vg, vs, vb} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Skip("non-finite input")
			}
			x = math.Abs(x)
			u[i] = x - math.Floor(x)
		}
		p := NMOS40(0.3e-6 + 0.9e-6*u[0])
		if kind&1 != 0 {
			p = PMOS40(p.W)
		}
		d := p.WithDeltas(device.Deltas{
			DVT0:  0.12 * (2*u[1] - 1),
			DL:    3e-9 * (2*u[2] - 1),
			DW:    3e-9 * (2*u[3] - 1),
			DMu:   0.15 * p.U0 * (2*u[4] - 1),
			DCinv: 0.03 * p.Cox * (2*u[5] - 1),
		}).(*Params)
		vd, vg, vs, vb = -0.45+1.8*u[6], -0.2+1.2*u[7], 0.9*u[8], -0.3*u[9]
		if math.Abs(vd-vs) < 3*device.FDStep || nearBodyClamp(d, vd, vs, vb) {
			t.Skip("the finite-difference stencil straddles a kink")
		}
		if err := nativeMatchesFD(d, vd, vg, vs, vb); err != nil {
			t.Fatalf("%v card (kind %d, %v): %v", d.TypeK, kind, u[:6], err)
		}
	})
}

// nearBodyClamp reports whether the source-referred body bias lies within
// 10 mV of the threshold's PhiS − 0.05 clamp.
func nearBodyClamp(p *Params, vd, vs, vb float64) bool {
	pol := p.TypeK.Polarity()
	vbs := pol*vb - math.Min(pol*vd, pol*vs)
	return math.Abs(vbs-(p.PhiS-0.05)) < 0.01
}

func TestGoldenNativeDerivsInvariances(t *testing.T) {
	n := NMOS40(600e-9)
	d := n.EvalDerivs4(0.7, 0.8, 0.1, 0)
	sum := d.GId[0] + d.GId[1] + d.GId[2] + d.GId[3]
	scale := math.Abs(d.GId[0]) + math.Abs(d.GId[1]) + math.Abs(d.GId[2]) + math.Abs(d.GId[3])
	if math.Abs(sum) > 1e-12*scale {
		t.Fatalf("GId row sum %g", sum)
	}
	for k := 0; k < 4; k++ {
		s := d.CQ[k][0] + d.CQ[k][1] + d.CQ[k][2] + d.CQ[k][3]
		if math.Abs(s) > 1e-22 {
			t.Fatalf("CQ row %d sum %g", k, s)
		}
	}
	for j := 0; j < 4; j++ {
		s := d.CQ[0][j] + d.CQ[1][j] + d.CQ[2][j] + d.CQ[3][j]
		if math.Abs(s) > 1e-22 {
			t.Fatalf("CQ column %d sum %g", j, s)
		}
	}
}

func TestDualArithmetic(t *testing.T) {
	a := indep(3, 0)
	b := indep(2, 1)
	// f = (a·b + a)/b − sqrt(a) = a + a/b − √a → 4.5 − √3;
	// df/da = 1 + 1/b − 1/(2√3) = 1.5 − 1/(2√3).
	f := a.mul(b).add(a).div(b).sub(a.sqrt())
	wantV := 4.5 - math.Sqrt(3)
	if math.Abs(f.v-wantV) > 1e-14 {
		t.Fatalf("value %g want %g", f.v, wantV)
	}
	wantDa := 1.5 - 1/(2*math.Sqrt(3))
	if math.Abs(f.d[0]-wantDa) > 1e-14 {
		t.Fatalf("df/da %g want %g", f.d[0], wantDa)
	}
	// df/db = −a/b² (from (a·b+a)/b = a + a/b).
	if math.Abs(f.d[1]+3.0/4) > 1e-14 {
		t.Fatalf("df/db %g want %g", f.d[1], -0.75)
	}
	// softplus derivative is the logistic.
	s := indep(0.3, 2).softplus()
	if math.Abs(s.d[2]-1/(1+math.Exp(-0.3))) > 1e-14 {
		t.Fatalf("softplus deriv %g", s.d[2])
	}
	if indep(5, 0).freeze().d[0] != 0 {
		t.Fatal("freeze")
	}
}
