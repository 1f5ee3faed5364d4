// Package vsmodel implements the MIT Virtual Source (VS) ultra-compact,
// charge-based MOSFET model of Khakifirooz, Nayfeh and Antoniadis (IEEE TED
// 2009) with the charge partitioning of Wei et al. (IEEE TED 2012) — the
// nominal device model that the DATE 2013 paper "Statistical Modeling with
// the Virtual Source MOSFET Model" extends statistically.
//
// The model computes the drain current as the product of the areal inversion
// charge density at the virtual source, Qixo, and the virtual-source
// injection velocity vxo, blended across operating regions by the empirical
// saturation function Fsat:
//
//	Id = W · Fsat(Vds/Vdsat) · Qixo · vxo                     (paper Eq. 2-3)
//	VT = VT0 − δ(Leff)·Vds (+ body effect)                     (paper Eq. 4)
//
// The statistical hooks required by the paper live here too:
//
//   - DIBL is an explicit function of effective channel length, δ(Leff), so
//     length mismatch modulates both threshold and injection velocity;
//   - ApplyDeltas maps the five independent statistical parameters of paper
//     Table I (ΔVT0, ΔLeff, ΔWeff, Δµ, ΔCinv) onto a perturbed parameter
//     card, propagating Δµ and Δδ(Leff) into Δvxo through paper Eq. (5).
package vsmodel

import (
	"math"

	"vstat/internal/device"
)

// Physical constants / unit conversions.
const (
	// PhiT300 is the thermal voltage kT/q at 300 K, volts.
	PhiT300 = 0.02585

	// CmPerS converts cm/s to m/s.
	CmPerS = 1e-2
	// Cm2PerVs converts cm²/(V·s) to m²/(V·s).
	Cm2PerVs = 1e-4
	// MuFPerCm2 converts µF/cm² to F/m².
	MuFPerCm2 = 1e-2
	// Nm converts nm to m.
	Nm = 1e-9
)

// Params is a Virtual Source model card bound to a geometry. All fields are
// SI. The struct has value semantics: statistical instances are cheap
// perturbed copies.
type Params struct {
	TypeK device.Kind

	// Geometry.
	W    float64 // drawn width, m
	Lgdr float64 // drawn gate length, m
	DLg  float64 // length offset: Leff = Lgdr − DLg, m
	DWg  float64 // width offset: Weff = W − DWg, m

	// DC parameters (the paper's 11-parameter DC set).
	Cinv   float64 // effective gate-to-channel capacitance, F/m²
	VT0    float64 // threshold voltage at Vds=0, nominal Leff, V
	Delta0 float64 // DIBL coefficient at Leff = LRef, V/V
	LDelta float64 // exponential length scale of δ(Leff), m
	LRef   float64 // reference channel length for δ and vxo, m
	N0     float64 // subthreshold ideality factor
	Nd     float64 // punch-through factor: n = N0 + Nd·Vds
	Vxo    float64 // virtual-source injection velocity, m/s
	Mu     float64 // low-field effective mobility, m²/(V·s)
	Rs0    float64 // source access resistance, Ω·m (divide by W)
	Rd0    float64 // drain access resistance, Ω·m
	Beta   float64 // Fsat transition exponent (≈1.8 NMOS, 1.6 PMOS)
	Alpha  float64 // weak/strong inversion transition parameter (≈3.5)
	PhiT   float64 // thermal voltage, V

	// Body effect.
	GammaB float64 // body factor, √V
	PhiB   float64 // surface potential parameter, V

	// Charge / capacitance parameters.
	Cof float64 // gate overlap + outer-fringe capacitance per edge, F/m

	// Statistical velocity coupling, paper Eq. (5)-(6).
	AlphaVel  float64 // power-law index α ≈ 0.5
	GammaVel  float64 // power-law index γ ≈ 0.45
	LambdaMFP float64 // carrier mean free path λ, m
	LCrit     float64 // backscattering critical length ℓ at nominal Leff, m
	SDelta    float64 // ∂vxo/(vxo·∂δ) ≈ 2

	// Deltas actually applied to this instance (kept for inspection).
	Applied device.Deltas
}

// Kind returns the channel polarity.
func (p *Params) Kind() device.Kind { return p.TypeK }

// Width returns the drawn width in meters.
func (p *Params) Width() float64 { return p.W }

// Length returns the drawn gate length in meters.
func (p *Params) Length() float64 { return p.Lgdr }

// Leff returns the effective channel length.
func (p *Params) Leff() float64 { return p.Lgdr - p.DLg }

// Weff returns the effective channel width.
func (p *Params) Weff() float64 { return p.W - p.DWg }

// Delta returns the DIBL coefficient δ(Leff) for the given effective length:
// an exponential roll-up toward short channels,
//
//	δ(L) = Delta0 · exp((LRef − L)/LDelta).
func (p *Params) Delta(leff float64) float64 {
	return p.Delta0 * math.Exp((p.LRef-leff)/p.LDelta)
}

// BallisticEfficiency returns B = λ/(λ+2ℓ), paper Eq. (6).
func (p *Params) BallisticEfficiency() float64 {
	return p.LambdaMFP / (p.LambdaMFP + 2*p.LCrit)
}

// MuVeloCoupling returns the mobility-to-velocity sensitivity factor of
// paper Eq. (5): α + (1−B)(1−α+γ).
func (p *Params) MuVeloCoupling() float64 {
	b := p.BallisticEfficiency()
	return p.AlphaVel + (1-b)*(1-p.AlphaVel+p.GammaVel)
}

// ApplyDeltas returns a perturbed copy of the card implementing the paper's
// statistical parameter mapping: the five independent Gaussian deltas of
// Table I perturb their own parameters directly, and the dependent physical
// responses follow — δ re-evaluates at the new Leff, and vxo shifts per
// Eq. (5) with both the mobility and the Δδ(Leff) contributions.
func (p Params) ApplyDeltas(d device.Deltas) Params {
	leffOld := p.Leff()
	deltaOld := p.Delta(leffOld)

	// Independent statistical parameters (Table I).
	p.VT0 += d.DVT0
	p.DLg -= d.DL // Leff = Lgdr − DLg, so ΔLeff = −ΔDLg
	p.DWg -= d.DW
	p.Cinv += d.DCinv
	muOld := p.Mu
	p.Mu += d.DMu

	// Dependent response: Δvxo/vxo = A_µ·Δµ/µ + S_δ·Δδ (paper Eq. 5).
	deltaNew := p.Delta(p.Leff())
	rel := p.MuVeloCoupling()*(d.DMu/muOld) + p.SDelta*(deltaNew-deltaOld)
	p.Vxo *= 1 + rel

	p.Applied = d
	return p
}

// WithDeltas returns an independent statistical instance perturbed by the
// local-mismatch deltas, bound (see Instance).
func (p *Params) WithDeltas(d device.Deltas) device.Device {
	return p.ApplyDeltas(d).Bind()
}

// WithGeometry returns a copy of the card re-targeted to a new drawn W/L.
func (p Params) WithGeometry(w, l float64) Params {
	p.W = w
	p.Lgdr = l
	return p
}

// Instance is a card bound to its bias-independent quantities, which are
// computed once, when the instance is made, instead of in every evaluation
// (MVS 2.0's init_tech_specific_constants does the same). Each quantity
// keeps the expression and operand order its evaluation would use, so the
// kernel's values do not depend on where they were computed. The card is
// a private copy: nothing can change an Instance once it is made. The
// circuit factories return instances; the mutable Params evaluates through
// a temporary one, so both run the same code.
type Instance struct {
	p Params

	weff      float64 // Weff
	rs, rd    float64 // Rs0/Weff, Rd0/Weff
	delta     float64 // δ(Leff) = Delta0·exp((LRef − Leff)/LDelta)
	vdsats    float64 // strong-inversion saturation voltage vxo·Leff/µ
	sqrtPhiB  float64 // √φB
	vbsMax    float64 // φB − 0.05, the body-bias clamp
	aphit     float64 // αφt
	aphitHalf float64 // αφt/2
	ffArgG    float64 // −1/(αφt), the FF argument's ∂/∂vgsi
	ffArgD    float64 // (−δ)/(αφt), the FF argument's ∂/∂vdsi
	nphitD    float64 // Nd·φt = ∂(nφt)/∂vdsi (punch-through)
	vdsatP    float64 // φt − vxo·Leff/µ = ∂vdsat/∂FF
	wl        float64 // Weff·Leff
	covW      float64 // Cof·Weff
}

// Bind returns the card bound as an Instance.
func (p Params) Bind() *Instance {
	in := new(Instance)
	in.bind(&p)
	return in
}

// bind copies the card into in and computes its bias-independent
// quantities.
func (in *Instance) bind(p *Params) {
	in.p = *p
	in.weff = p.Weff()
	leff := p.Leff()
	in.rs = p.Rs0 / in.weff
	in.rd = p.Rd0 / in.weff
	in.delta = p.Delta(leff)
	in.vdsats = p.Vxo * leff / p.Mu
	in.sqrtPhiB = math.Sqrt(p.PhiB)
	in.vbsMax = p.PhiB - 0.05
	in.aphit = p.Alpha * p.PhiT
	in.aphitHalf = in.aphit / 2
	in.ffArgG = -1 / in.aphit
	in.ffArgD = -in.delta / in.aphit
	in.nphitD = p.Nd * p.PhiT
	in.vdsatP = p.PhiT - in.vdsats
	in.wl = in.weff * leff
	in.covW = p.Cof * in.weff
}

// Card returns a copy of the card the instance was bound from.
func (in *Instance) Card() Params { return in.p }

// Kind returns the channel polarity.
func (in *Instance) Kind() device.Kind { return in.p.TypeK }

// Width returns the drawn width in meters.
func (in *Instance) Width() float64 { return in.p.W }

// Length returns the drawn gate length in meters.
func (in *Instance) Length() float64 { return in.p.Lgdr }

// coreOut bundles one core evaluation with its analytic partial derivatives
// with respect to the internal voltages (vgsi, vdsi, vbsi): f is the drain
// current per unit width, q the virtual-source charge density, s the
// saturation function, and the G/D/B suffixes are ∂/∂vgsi, ∂/∂vdsi, ∂/∂vbsi.
type coreOut struct {
	f, q, s    float64
	fG, fD, fB float64
	qG, qD, qB float64
	sG, sD, sB float64
}

// seriesState is a converged series-resistance solve: the drain current (A),
// the internal drain-source voltage, the core evaluation — values plus
// analytic partials with respect to the internal voltages — at the last
// evaluated current, and the number of core evaluations the solve made.
type seriesState struct {
	id    float64
	vdsi  float64
	co    coreOut
	evals int
}

// firstIterateConverged reports whether the Newton iterate x1 = F(0)/(1−F'(0))
// is within tol of the root without evaluating the core there. The Newton
// remainder is half the curvature of F times x1². The second partials of
// the core current are bounded by its charge-limited current W·qixo(0)·vxo
// (the argument qv) over φt², and the internal bias moves by at most
// Δv = (Rs+Rd)·x1 (rsd·x1). Dividing by g'(0) = 1 − F'(0) turns the residual
// bound into a bound on the current; the factor 0.1 covers the constants.
func firstIterateConverged(qv, phit, rsd, x1, df0, tol float64) bool {
	dv := rsd * x1 / phit
	return qv*dv*dv/(1-df0) <= 0.1*tol
}

// newtonConverged reports whether the Newton iterate one step d past the
// last evaluated current is within tol of the root. Under quadratic
// convergence the step after a step prev leaves an error of about
// |d|³/prev², which the factor 0.01 keeps well inside tol. prev = 0 (after
// a bisection step) never accepts.
func newtonConverged(d, prev, tol float64) bool {
	return math.Abs(d*d*d) <= 0.01*tol*prev*prev
}

// acceptMove moves the core evaluation co, made at current xe, to the
// accepted current xa without evaluating there: qixo and Fsat shift to
// first order along the internal-bias direction (−Rs, −(Rs+Rd), −Rs), with
// vdsi honoring its ≥ 0 clamp at both ends. The partials stay those of the
// evaluated point, which is what the implicit-function Jacobian of
// EvalDerivs4 uses. It returns vdsi at xa.
func acceptMove(co *coreOut, xa, xe, vds, rs, rd float64) float64 {
	vdsiE := vds - xe*(rs+rd)
	if vdsiE < 0 {
		vdsiE = 0
	}
	vdsiA := vds - xa*(rs+rd)
	if vdsiA < 0 {
		vdsiA = 0
	}
	dvg := -rs * (xa - xe) // vgsi and vbsi move together
	dvd := vdsiA - vdsiE
	co.q += co.qG*dvg + co.qD*dvd + co.qB*dvg
	co.s += co.sG*dvg + co.sD*dvd + co.sB*dvg
	return vdsiA
}

// Eval implements device.Device. It maps PMOS onto the equivalent n-channel
// problem, swaps source and drain for negative Vds (the VS model is written
// source-referenced with Vds ≥ 0), and assembles terminal charges. A device
// with no effective width (Weff ≤ 0) has no channel and no overlap: it
// returns zeros, as EvalDerivs4 does.
func (in *Instance) Eval(vd, vg, vs, vb float64) device.Eval {
	if in.weff <= 0 {
		return device.Eval{}
	}
	var ls [1]laneSolve
	ls[0].in, ls[0].b = in, in.orient(vd, vg, vs, vb) // not through a pointer, which would make in escape
	solveLanes(ls[:])
	l := &ls[0]
	id := l.st.id
	q := in.charges(l.b.vgs, l.b.vgd, l.st.co.q, l.st.co.s)

	if l.b.swap {
		id = -id
		q = q.SwapDS()
	}
	if in.p.TypeK == device.PMOS {
		id = -id
		q = q.Neg()
	}
	return device.Eval{Id: id, Q: q}
}

// Eval implements device.Device through a temporary Instance.
func (p *Params) Eval(vd, vg, vs, vb float64) device.Eval {
	var in Instance
	in.bind(p)
	return in.Eval(vd, vg, vs, vb)
}

// charges assembles the terminal charges for the n-equivalent, unswapped
// orientation. vgd = Vg−Vd is needed for the drain overlap charge.
//
// The intrinsic channel charge uses the virtual-source density Qixo with the
// average-along-the-channel factor (1 − Fsat/3), which interpolates between
// the uniform-channel limit at Vds=0 and the 2/3 saturation limit, and a
// Ward–Dutton-like partition sliding from 50/50 at Vds=0 to the classic
// 40/60 drain/source split in saturation (exact at both endpoints for a
// square-law device).
func (in *Instance) charges(vgs, vgd, qixo, fsat float64) device.Charges {
	qInv := in.wl * qixo * (1 - fsat/3)
	qdFrac := 0.5 - fsat/10 // 0.5 → 0.4
	qsFrac := 0.5 + fsat/10 // 0.5 → 0.6

	// Overlap/fringe charges, one per edge.
	qovS := in.covW * vgs
	qovD := in.covW * vgd

	return device.Charges{
		Qg: qInv + qovS + qovD,
		Qd: -qdFrac*qInv - qovD,
		Qs: -qsFrac*qInv - qovS,
		Qb: 0,
	}
}
