package vsmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vstat/internal/device"
)

// The native implicit-function-theorem derivatives must match brute-force
// finite differences of Eval across the whole operating space, for both
// polarities and both source/drain orientations.
func TestNativeDerivsMatchFD(t *testing.T) {
	n := NMOS40(600e-9)
	p := PMOS40(600e-9)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 400; trial++ {
		d := &n
		if trial%2 == 1 {
			d = &p
		}
		vd := rng.Float64()*1.8 - 0.45 // includes swapped-orientation region
		vg := rng.Float64() * 0.9
		vs := rng.Float64() * 0.9
		if err := nativeMatchesFD(d, vd, vg, vs, 0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// nativeMatchesFD compares EvalDerivs4 with the central finite-difference
// bundle at one bias. Values must agree to 1e-9 (the same solve). The
// central-difference reference carries O(h²) truncation, so conductances
// and capacitances are compared at 3 % of their row scale.
func nativeMatchesFD(d *Params, vd, vg, vs, vb float64) error {
	nat := d.EvalDerivs4(vd, vg, vs, vb)
	fd := device.EvalDerivsFD(d, vd, vg, vs, vb)
	if math.Abs(nat.Id-fd.Id) > 1e-9*(1+math.Abs(fd.Id)) {
		return fmt.Errorf("Id %g vs %g", nat.Id, fd.Id)
	}
	if math.Abs(nat.Q.Qg-fd.Q.Qg) > 1e-9*(1+math.Abs(fd.Q.Qg)) {
		return fmt.Errorf("Qg %g vs %g", nat.Q.Qg, fd.Q.Qg)
	}
	gScale := 0.0
	for _, v := range fd.GId {
		gScale += math.Abs(v)
	}
	for j := 0; j < 4; j++ {
		if math.Abs(nat.GId[j]-fd.GId[j]) > 0.03*gScale+1e-12 {
			return fmt.Errorf("(vd=%.4f vg=%.4f vs=%.4f vb=%.4f): GId[%d] native %g vs FD %g",
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
				return fmt.Errorf("(vd=%.4f vg=%.4f vs=%.4f vb=%.4f): CQ[%d][%d] native %g vs FD %g",
					vd, vg, vs, vb, k, j, nat.CQ[k][j], fd.CQ[k][j])
			}
		}
	}
	return nil
}

// FuzzNativeDerivsFD extends TestNativeDerivsMatchFD to ±6σ mismatched
// cards (mismatchCard) and body bias: Vd from −0.45 to 1.35 V, Vg from
// −0.2 to 1 V, Vs from 0 to 0.9 V and Vb from −0.3 to 0 V. Two kinks that
// the 1e-4 V central stencil straddles are excluded, since there the
// stencil, not the native bundle, is wrong: |Vds| < 3·FDStep, where the
// stencil crosses the source/drain swap, and an internal forward body bias
// within 10 mV of the PhiB − 0.05 clamp.
func FuzzNativeDerivsFD(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		f.Add(uint8(i%2), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	}
	f.Fuzz(func(t *testing.T, kind uint8, w, dvt, dl, dw, dmu, dcinv, vd, vg, vs, vb float64) {
		var u [10]float64
		for i, x := range []float64{w, dvt, dl, dw, dmu, dcinv, vd, vg, vs, vb} {
			v, ok := unit(x)
			if !ok {
				t.Skip("non-finite input")
			}
			u[i] = v
		}
		p := mismatchCard(kind&1 != 0, u[0], u[1], u[2], u[3], u[4], u[5])
		vd, vg, vs, vb = -0.45+1.8*u[6], -0.2+1.2*u[7], 0.9*u[8], -0.3*u[9]
		if math.Abs(vd-vs) < 3*device.FDStep || nearBodyClamp(&p, vd, vg, vs, vb) {
			t.Skip("the finite-difference stencil straddles a kink")
		}
		if err := nativeMatchesFD(&p, vd, vg, vs, vb); err != nil {
			t.Fatalf("%v card (kind %d, %v): %v", p.TypeK, kind, u[:6], err)
		}
	})
}

// nearBodyClamp reports whether the internal source-referred body bias at
// the solved current lies within 10 mV of the core's PhiB − 0.05 clamp.
func nearBodyClamp(p *Params, vd, vg, vs, vb float64) bool {
	pol := p.TypeK.Polarity()
	nvd, nvg, nvs, nvb := pol*vd, pol*vg, pol*vs, pol*vb
	if nvd < nvs {
		nvd, nvs = nvs, nvd
	}
	var st seriesState
	p.solve(nvg-nvs, nvd-nvs, nvb-nvs, &st)
	vbsi := nvb - nvs - st.id*p.Rs0/p.Weff()
	return math.Abs(vbsi-(p.PhiB-0.05)) < 0.01
}

// At Vds = 0 the saturation function sits exactly on its x = 0 branch; the
// native bundle must report the one-sided linear conductance gds = q·vxo/vdsat
// there, not zero. A zero gds leaves the output node of a turned-on device
// with a near-singular Jacobian row and makes the circuit Newton limit-cycle
// (this is the bias every DC solve starts from: all node voltages equal).
func TestNativeDerivsVdsZeroConductance(t *testing.T) {
	n := NMOS40(150e-9)
	for _, vg := range []float64{0.4, 0.9} {
		nat := n.EvalDerivs4(0.0, vg, 0.0, 0.0)
		if nat.GId[0] <= 0 {
			t.Fatalf("vg=%g: gds at Vds=0 is %g, want > 0", vg, nat.GId[0])
		}
		fd := device.EvalDerivsFD(&n, 0.0, vg, 0.0, 0.0)
		if math.Abs(nat.GId[0]-fd.GId[0]) > 0.03*math.Abs(fd.GId[0])+1e-12 {
			t.Fatalf("vg=%g: gds native %g vs FD %g", vg, nat.GId[0], fd.GId[0])
		}
	}
}

func TestNativeDerivsInvariances(t *testing.T) {
	n := NMOS40(600e-9)
	d := n.EvalDerivs4(0.7, 0.8, 0.1, 0)
	// Translation invariance: each derivative row sums to ~0.
	sum := d.GId[0] + d.GId[1] + d.GId[2] + d.GId[3]
	scale := math.Abs(d.GId[0]) + math.Abs(d.GId[1]) + math.Abs(d.GId[2]) + math.Abs(d.GId[3])
	if math.Abs(sum) > 1e-9*scale {
		t.Fatalf("GId row sum %g", sum)
	}
	for k := 0; k < 4; k++ {
		s := d.CQ[k][0] + d.CQ[k][1] + d.CQ[k][2] + d.CQ[k][3]
		if math.Abs(s) > 1e-20 {
			t.Fatalf("CQ row %d sum %g", k, s)
		}
	}
	// Charge neutrality columns: ΣQ rows = 0 per column.
	for j := 0; j < 4; j++ {
		s := d.CQ[0][j] + d.CQ[1][j] + d.CQ[2][j] + d.CQ[3][j]
		if math.Abs(s) > 1e-20 {
			t.Fatalf("CQ column %d sum %g", j, s)
		}
	}
}

// The Gm/Gds/Cgg characterization helpers must route through EvalDerivs —
// i.e. use the native derivative bundle on models that provide one — and
// the native values must stay within FD agreement of the central stencil.
func TestHelpersUseNativeDerivs(t *testing.T) {
	n := NMOS40(600e-9)
	for _, bias := range [][4]float64{
		{0.9, 0.9, 0, 0},  // strong inversion, saturation
		{0.05, 0.9, 0, 0}, // linear region
		{0.9, 0.3, 0, 0},  // near threshold
	} {
		vd, vg, vs, vb := bias[0], bias[1], bias[2], bias[3]
		nat := n.EvalDerivs4(vd, vg, vs, vb)
		if gm := device.Gm(&n, vd, vg, vs, vb); gm != nat.GId[1] {
			t.Fatalf("Gm %g != native GId[G] %g", gm, nat.GId[1])
		}
		if gds := device.Gds(&n, vd, vg, vs, vb); gds != nat.GId[0] {
			t.Fatalf("Gds %g != native GId[D] %g", gds, nat.GId[0])
		}
		if cgg := device.Cgg(&n, vd, vg, vs, vb); cgg != nat.CQ[1][1] {
			t.Fatalf("Cgg %g != native CQ[G][G] %g", cgg, nat.CQ[1][1])
		}
		// And the native values the helpers now return must agree with the
		// central-difference stencil they used to compute directly.
		fd := device.EvalDerivsFD(&n, vd, vg, vs, vb)
		if math.Abs(nat.GId[1]-fd.GId[1]) > 0.03*math.Abs(fd.GId[1])+1e-12 {
			t.Fatalf("native Gm %g vs central FD %g", nat.GId[1], fd.GId[1])
		}
		if math.Abs(nat.CQ[1][1]-fd.CQ[1][1]) > 0.03*math.Abs(fd.CQ[1][1])+1e-22 {
			t.Fatalf("native Cgg %g vs central FD %g", nat.CQ[1][1], fd.CQ[1][1])
		}
	}
}

func TestEvalDerivsPrefersNative(t *testing.T) {
	// device.EvalDerivs on a VS card must route to the native path: verify
	// by cost proxy — the native result equals EvalDerivs4 bit-for-bit.
	n := NMOS40(600e-9)
	a := device.EvalDerivs(&n, 0.6, 0.7, 0, 0)
	b := n.EvalDerivs4(0.6, 0.7, 0, 0)
	if a != b {
		t.Fatal("EvalDerivs did not use the native path")
	}
}
