package vsmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// coreSerial is the core kernel's serial form, the oracle FuzzCoreOverlap
// holds the kernel's core to bit for bit: it takes δ(Leff) and vxo·Leff/µ
// as arguments, derives every other constant from the card in each call,
// and runs the softplus chain to the end before the Fsat chain starts.
func (p *Params) coreSerial(vgsi, vdsi, vbsi, delta, vdsats float64, co *coreOut) {
	phit := p.PhiT

	// Body-corrected, DIBL-corrected threshold.
	vbsEff := vbsi
	clamped := false
	if max := p.PhiB - 0.05; vbsEff > max {
		vbsEff = max // clamp to keep sqrt real; deep forward body bias is outside model validity
		clamped = true
	}
	vt := p.VT0 - delta*vdsi
	vtD := -delta // ∂vt/∂vdsi (DIBL)
	vtB := 0.0    // ∂vt/∂vbsi (body effect)
	if p.GammaB != 0 {
		sq := math.Sqrt(p.PhiB - vbsEff)
		vt += p.GammaB * (sq - math.Sqrt(p.PhiB))
		if !clamped {
			vtB = -p.GammaB / (2 * sq)
		}
	}

	n := p.N0 + p.Nd*vdsi
	nphit := n * phit
	nphitD := p.Nd * phit // ∂nphit/∂vdsi (punch-through)
	aphit := p.Alpha * phit

	// Inversion transition function FF: →1 in weak inversion, →0 in strong.
	ff, ffp := logisticD((vt - aphit/2 - vgsi) / aphit)
	ffG := ffp * (-1 / aphit)
	ffD := ffp * (vtD / aphit)
	ffB := ffp * (vtB / aphit)

	// Virtual-source charge density (paper's charge expression).
	num := vgsi - (vt - p.Alpha*phit*ff)
	numG := 1 + aphit*ffG
	numD := aphit*ffD - vtD
	numB := aphit*ffB - vtB
	arg := num / nphit
	sp, spp := softplusD(arg)
	co.q = p.Cinv * nphit * sp
	cspp := p.Cinv * nphit * spp
	co.qG = cspp * (numG / nphit)
	co.qD = p.Cinv*nphitD*sp + cspp*((numD-arg*nphitD)/nphit)
	co.qB = cspp * (numB / nphit)

	// Saturation voltage blends the strong-inversion value vxo·Leff/µ with
	// the thermal value φt in weak inversion.
	vdsat := vdsats*(1-ff) + phit*ff
	vdsatP := phit - vdsats // d vdsat / d ff

	// Saturation function Fsat (paper Eq. 3), written with explicit
	// exp/log so the two pow calls collapse to one exp+log pair each.
	x := vdsi / vdsat
	if x > 0 {
		t := math.Exp(p.Beta * math.Log(x))
		co.s = x * math.Exp(-math.Log1p(t)/p.Beta)
		dfdx := co.s / (x * (1 + t))
		co.sG = dfdx * (-(x * vdsatP * ffG) / vdsat)
		co.sD = dfdx * ((1 - x*vdsatP*ffD) / vdsat)
		co.sB = dfdx * (-(x * vdsatP * ffB) / vdsat)
	} else {
		// x = 0 happens at vdsi = 0 (e.g. equal node voltages at DC init, or
		// a device pulled fully linear). Fsat(x) = x·(1+x^β)^(−1/β) has the
		// one-sided slope dFsat/dx → 1 there, so the vdsi-derivative must
		// carry the 1/vdsat limit: zeroing it would report gds = 0 for a
		// turned-on device at Vds = 0 and leave its output node's Jacobian
		// row near-singular (Newton then limit-cycles off the solution).
		co.s, co.sG, co.sB = 0, 0, 0
		co.sD = 1 / vdsat
	}

	co.f = co.s * co.q * p.Vxo
	co.fG = (co.sG*co.q + co.s*co.qG) * p.Vxo
	co.fD = (co.sD*co.q + co.s*co.qD) * p.Vxo
	co.fB = (co.sB*co.q + co.s*co.qB) * p.Vxo
}

// logisticD returns the logistic 1/(1+e^{-x}), guarded against overflow,
// together with its derivative s·(1−s), reusing the single exponential.
// Only coreSerial calls it; the kernel splits it across its stages.
func logisticD(x float64) (s, d float64) {
	if x > 40 {
		return 1, 0
	}
	if x < -40 {
		return 0, 0
	}
	s = 1 / (1 + math.Exp(-x))
	return s, s * (1 - s)
}

// softplusD returns ln(1+e^x), guarded against overflow above 40 and
// reduced to e^x below −40, together with its derivative e^x/(1+e^x),
// reusing the single exponential. Only coreSerial calls it; the kernel
// inlines it to interleave its chain with Fsat's.
func softplusD(x float64) (sp, d float64) {
	if x > 40 {
		return x, 1
	}
	if x < -40 {
		e := math.Exp(x)
		return e, e
	}
	e := math.Exp(x)
	return math.Log1p(e), e / (1 + e)
}

// coreCase is one input of FuzzCoreOverlap. The card fields are
// mismatchCard's fractions; kind bit 0 makes it PMOS, bit 1 sets GammaB = 0
// (no body effect) and bit 2 sets vdsi = 0. The biases are fractions of
// their ranges (see bias).
type coreCase struct {
	kind                       uint8
	w, dvt, dl, dw, dmu, dcinv float64
	vgs, vds, vbs              float64
}

func (c coreCase) card() Params {
	p := mismatchCard(c.kind&1 != 0, c.w, c.dvt, c.dl, c.dw, c.dmu, c.dcinv)
	if c.kind&2 != 0 {
		p.GammaB = 0
	}
	return p
}

// bias maps the case onto internal biases wide enough to reach every branch
// of the kernel: vgsi from −4.5 to 4.5 V drives the softplus argument past
// +40 and −40 (and the logistic's too), vbsi from −1 to 1.2 V crosses the
// φB − 0.05 clamp, and vdsi runs from 0 to 1.5 V, exactly 0 (x = 0, Fsat's
// linear branch) with kind bit 2.
func (c coreCase) bias() (vgsi, vdsi, vbsi float64) {
	vdsi = 1.5 * c.vds
	if c.kind&4 != 0 {
		vdsi = 0
	}
	return -4.5 + 9*c.vgs, vdsi, -1 + 2.2*c.vbs
}

// partners returns the n cases that share the lane kernel with c in
// FuzzCoreOverlap: partner j rotates c's nine fractions by j+1 places and
// advances its kind by j+1.
func (c coreCase) partners(n int) []coreCase {
	u := [9]float64{c.w, c.dvt, c.dl, c.dw, c.dmu, c.dcinv, c.vgs, c.vds, c.vbs}
	ps := make([]coreCase, n)
	for j := range ps {
		r := func(i int) float64 { return u[(i+j+1)%9] }
		ps[j] = coreCase{kind: (c.kind + uint8(j) + 1) & 7,
			w: r(0), dvt: r(1), dl: r(2), dw: r(3), dmu: r(4), dcinv: r(5), vgs: r(6), vds: r(7), vbs: r(8)}
	}
	return ps
}

// laneCore runs the cases through one core round of a group, each in its
// own lane at its bias, and returns the lanes' outputs.
func laneCore(cs []coreCase) []coreOut {
	var ls [4]laneSolve
	live := []int{0, 1, 2, 3}[:len(cs)]
	for k, c := range cs {
		p := c.card()
		l := &ls[k]
		l.in = p.Bind()
		l.vgsi, l.vdsi, l.vbsi = c.bias()
	}
	core(ls[:len(cs)], live)
	out := make([]coreOut, len(cs))
	for k := range out {
		out[k] = ls[k].st.co
	}
	return out
}

// coreSeeds is FuzzCoreOverlap's seed corpus: 2000 cases over all eight
// kinds. A seed's kind also carries, in bits 3 and 4, how many partners
// share the lane kernel with it (one to three).
func coreSeeds() []coreCase {
	rng := rand.New(rand.NewSource(22))
	cs := make([]coreCase, 2000)
	for i := range cs {
		cs[i] = coreCase{
			kind: uint8(i % 24),
			w:    rng.Float64(), dvt: rng.Float64(), dl: rng.Float64(), dw: rng.Float64(),
			dmu: rng.Float64(), dcinv: rng.Float64(),
			vgs: rng.Float64(), vds: rng.Float64(), vbs: rng.Float64(),
		}
	}
	return cs
}

// coreBranches names the branches one kernel evaluation took. The softplus
// branch is read back from its value sp = q/(Cinv·nφt) with a margin: sp
// equals arg above 40 and e^arg below −40.
func coreBranches(p *Params, vdsi, vbsi float64, co *coreOut) []string {
	var br []string
	sp := co.q / (p.Cinv * (p.N0 + p.Nd*vdsi) * p.PhiT)
	switch {
	case sp > 41:
		br = append(br, "softplus arg > 40")
	case sp < 1e-18:
		br = append(br, "softplus arg < -40")
	case sp > 1e-9 && sp < 39:
		br = append(br, "softplus arg within ±40")
	}
	if vdsi > 0 {
		br = append(br, "x > 0")
	} else {
		br = append(br, "x <= 0")
	}
	if vbsi > p.PhiB-0.05 {
		br = append(br, "body clamp")
	}
	if p.GammaB == 0 {
		br = append(br, "GammaB = 0")
	}
	return br
}

// FuzzCoreOverlap holds the kernel's core, which binds its
// bias-independent quantities and interleaves its softplus and Fsat
// chains, to coreSerial, which does neither: all 12 coreOut fields must be
// the same bits, for the case alone in a group of one and in every lane of
// a group where one to three partner cases (kind bits 3 and 4) run beside
// it, stage by stage. Before fuzzing it checks that the seed corpus reaches
// every branch.
func FuzzCoreOverlap(f *testing.F) {
	seeds := coreSeeds()
	hits := map[string]int{}
	for _, c := range seeds {
		p := c.card()
		vgsi, vdsi, vbsi := c.bias()
		var co coreOut
		p.Bind().coreAt(vgsi, vdsi, vbsi, &co)
		for _, b := range coreBranches(&p, vdsi, vbsi, &co) {
			hits[b]++
		}
	}
	for _, b := range []string{"softplus arg > 40", "softplus arg < -40", "softplus arg within ±40",
		"x > 0", "x <= 0", "body clamp", "GammaB = 0"} {
		if hits[b] == 0 {
			f.Fatalf("no seed reaches the %s branch (%v)", b, hits)
		}
	}
	f.Logf("branch hits over %d seeds: %v", len(seeds), hits)
	for _, c := range seeds {
		f.Add(c.kind, c.w, c.dvt, c.dl, c.dw, c.dmu, c.dcinv, c.vgs, c.vds, c.vbs)
	}
	f.Fuzz(func(t *testing.T, kind uint8, w, dvt, dl, dw, dmu, dcinv, vgs, vds, vbs float64) {
		c := coreCase{kind: kind & 7}
		nPartners := 1 + int(kind>>3)%3
		for _, x := range []struct {
			dst *float64
			v   float64
		}{{&c.w, w}, {&c.dvt, dvt}, {&c.dl, dl}, {&c.dw, dw}, {&c.dmu, dmu}, {&c.dcinv, dcinv},
			{&c.vgs, vgs}, {&c.vds, vds}, {&c.vbs, vbs}} {
			u, ok := unit(x.v)
			if !ok {
				t.Skip("non-finite input")
			}
			*x.dst = u
		}
		var got coreOut
		p := c.card()
		vgsi, vdsi, vbsi := c.bias()
		p.Bind().coreAt(vgsi, vdsi, vbsi, &got)
		checkSerial(t, "one lane", c, &got)
		cs := append([]coreCase{c}, c.partners(nPartners)...)
		for k, co := range laneCore(cs) {
			checkSerial(t, fmt.Sprintf("lane %d of %d", k, len(cs)), cs[k], &co)
		}
	})
}

// checkSerial fails t unless co has the bits of coreSerial at case c.
func checkSerial(t *testing.T, what string, c coreCase, co *coreOut) {
	t.Helper()
	p := c.card()
	vgsi, vdsi, vbsi := c.bias()
	var want coreOut
	leff := p.Leff()
	p.coreSerial(vgsi, vdsi, vbsi, p.Delta(leff), p.Vxo*leff/p.Mu, &want)
	g, w := co.fields(), want.fields()
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s, %+v (vgsi %g, vdsi %g, vbsi %g): field %d is %g, serial kernel %g",
				what, c, vgsi, vdsi, vbsi, i, g[i], w[i])
		}
	}
}

// fields lists the 12 coreOut fields in declaration order.
func (co *coreOut) fields() [12]float64 {
	return [12]float64{co.f, co.q, co.s, co.fG, co.fD, co.fB, co.qG, co.qD, co.qB, co.sG, co.sD, co.sB}
}
