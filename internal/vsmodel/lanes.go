package vsmodel

import (
	"math"

	"vstat/internal/device"
)

// The kernel (DESIGN.md §14). Every evaluation runs the series solves of a
// group of one to device.LaneWidth devices in lockstep, one lane each: a
// single device (Eval, EvalDerivs4) is a group of one, and EvalDerivsLanes
// takes the devices one circuit assembly re-evaluates up to
// device.LaneWidth at a time. The kernel is latency-bound: each core
// evaluation is a chain of dependent transcendentals, and a dependent exp
// costs about three times an independent one. The devices of a group do
// not depend on each other, so each round runs the live lanes' core
// evaluations stage by stage, issuing a stage's transcendentals lane after
// lane, and the lanes' chains overlap. A lane's values depend only on its
// own device and bias, so a bundle has the same bits in any group
// (FuzzInstanceMatchesCard holds every lane to solveSeriesD, the one-device
// form the tests keep, and FuzzCoreOverlap holds the core to coreSerial).

// laneSolve is one lane of a series solve: the instance, its bias and
// bundle, the solve's state and locals, the internal bias of the round's
// core evaluation, and the core kernel's values between stages. The series
// state lives in the lane: a lane that pointed at a separate one would make
// it escape.
type laneSolve struct {
	in  *Instance
	b   bias
	out *device.Derivs
	st  seriesState

	// The solve's locals: the current the round evaluates at, the bracket,
	// the last Newton step, the tolerance and the iteration count; first
	// marks the round that evaluates at I = 0.
	x, lo, hi, prev, tol float64
	it                   int
	first                bool

	// The round's internal bias and ∂vdsi/∂I (zero once the clamp engages).
	vgsi, vdsi, vbsi, dvd float64

	// core's values between stages.
	vt, vtB, nphit, fl, el            float64
	ffG, ffD, ffB, numG, numD, numB   float64
	arg, vdsat, xs, e, lx, sp, spp, t float64
	l1                                float64
}

// EvalDerivsLanes implements device.LaneDerivs: it writes into each lane's
// Out the bundle its device, an Instance, returns from EvalDerivs4 at its
// V. A lone lane goes to derivsInto, which solves it as a group of one
// without clearing a full group's state.
func (in *Instance) EvalDerivsLanes(lanes []device.Lane) {
	if len(lanes) == 1 {
		ln := &lanes[0]
		ln.Dev.(*Instance).derivsInto(ln.Out, ln.V[0], ln.V[1], ln.V[2], ln.V[3])
		return
	}
	var ls [device.LaneWidth]laneSolve
	derivsLanes(lanes, &ls)
}

// derivsLanes is EvalDerivsLanes with the lanes' solves in ls, which starts
// zero. Lanes without a channel (Weff ≤ 0) get EvalDerivs4's zero bundle
// and take no part in the solve; it returns the solved lanes, in order.
func derivsLanes(lanes []device.Lane, ls *[device.LaneWidth]laneSolve) []laneSolve {
	n := 0
	for k := range lanes {
		ln := &lanes[k]
		li := ln.Dev.(*Instance)
		if li.weff <= 0 {
			*ln.Out = device.Derivs{}
			continue
		}
		l := &ls[n]
		l.in, l.b, l.out = li, li.orient(ln.V[0], ln.V[1], ln.V[2], ln.V[3]), ln.Out
		n++
	}
	s := ls[:n]
	solveLanes(s)
	for k := range s {
		l := &s[k]
		l.in.bundle(l.out, &l.st, &l.b)
	}
	return s
}

// solveLanes solves the series-resistance feedback self-consistently in
// each lane of ls (one to device.LaneWidth lanes, each with its instance,
// which has a channel, and its bias set) for an n-equivalent device with
// external source-referred voltages (vds ≥ 0): the internal voltages are
// vgsi = vgs − Id·Rs and vdsi = vds − Id·(Rs+Rd). The root of
// g(I) = I − F(I), with F the core current at the degraded internal bias,
// is found by Newton iteration on the analytic slope g' = 1 − dF/dI,
// safeguarded by the bracket [0, F(0)]: F is monotone decreasing in I, so
// g(0) = −F(0) < 0 and g(F(0)) ≥ 0 hold without evaluating the upper
// endpoint, dF/dI ≤ 0 keeps g' ≥ 1 (no division hazards), and any Newton
// step that leaves the bracket falls back to bisection. Unlike plain
// fixed-point iteration the solve stays convergent in the deep linear
// region where gds·(Rs+Rd) exceeds unity. The tolerance is relative (~1e-9
// of the drive current), far tighter than the simulator's Newton residual
// tolerance.
//
// The solve takes a Newton iterate without evaluating the core there once
// its error is provably below the tolerance (firstIterateConverged,
// newtonConverged), and moves qixo and Fsat to it to first order
// (acceptMove). A typical solve makes one or two core evaluations, 1.74 on
// average over INV FO3 delay samples.
//
// The lanes run in lockstep: every round evaluates the core once for each
// live lane (core), then steps each through its solve (step), until none
// needs another evaluation.
func solveLanes(ls []laneSolve) {
	var live [device.LaneWidth]int
	for k := range ls {
		l := &ls[k]
		l.first = true
		l.at(0)
		live[k] = k
	}
	nLive := len(ls)
	for nLive > 0 {
		core(ls, live[:nLive])
		n := 0
		for _, k := range live[:nLive] {
			if ls[k].step() {
				live[n] = k
				n++
			}
		}
		nLive = n
	}
}

// step is the solve's control flow after the round's core evaluation at
// l.x: it records the evaluation in the lane's state ("last evaluation
// wins"), then accepts a current or sets the next round's (at), and
// reports whether the lane needs another evaluation.
func (l *laneSolve) step() bool {
	in, st := l.in, &l.st
	w, rs, rd := in.weff, in.rs, in.rd
	f := w * st.co.f
	df := w * (st.co.fG*(-rs) + st.co.fD*l.dvd + st.co.fB*(-rs))
	st.id, st.vdsi = f, l.vdsi
	if l.first {
		l.first = false
		if rs == 0 && rd == 0 {
			return false
		}
		l.tol = 1e-13 + 1e-9*f
		if f <= l.tol {
			return false
		}
		l.lo, l.hi = 0.0, f
		x := f / (1 - df) // Newton step from I=0: g(0) = −F(0), g'(0) = 1 − F'(0)
		l.prev = x        // the last Newton step; 0 after a bisection step
		if !(x > l.lo && x < l.hi) {
			x = 0.5 * (l.lo + l.hi)
			l.prev = 0
		} else if firstIterateConverged(w*st.co.q*in.p.Vxo, in.p.PhiT, rs+rd, x, df, l.tol) {
			st.id, st.vdsi = x, acceptMove(&st.co, x, 0, l.b.vds, rs, rd)
			return false
		}
		l.at(x)
		return true
	}
	x := l.x
	gx := x - f
	if math.Abs(gx) <= l.tol || l.hi-l.lo <= 1e-15*(1+l.hi) {
		st.id = x
		return false
	}
	if gx > 0 {
		l.hi = x
	} else {
		l.lo = x
	}
	xn := x - gx/(1-df)
	if !(xn > l.lo && xn < l.hi) {
		xn = 0.5 * (l.lo + l.hi)
		l.prev = 0
	} else if newtonConverged(xn-x, l.prev, l.tol) {
		st.id, st.vdsi = xn, acceptMove(&st.co, xn, x, l.b.vds, rs, rd)
		return false
	} else {
		l.prev = xn - x
	}
	l.it++
	if l.it == 60 {
		return false
	}
	l.at(xn)
	return true
}

// at sets the current of the round's core evaluation and its internal
// bias, and counts the evaluation. The root lies below vds/(Rs+Rd), where
// the core current vanishes, but an iterate can pass it when Rs+Rd exceeds
// the channel resistance (deep linear region, TestSeriesSolveReachesClamp);
// vdsi and its slope then clamp at zero.
func (l *laneSolve) at(i float64) {
	rs, rd := l.in.rs, l.in.rd
	l.x = i
	l.st.evals++
	l.vgsi = l.b.vgs - i*rs
	l.vdsi = l.b.vds - i*(rs+rd)
	l.dvd = -(rs + rd) // d vdsi / dI, zero once the clamp engages
	if l.vdsi < 0 {
		l.vdsi = 0
		l.dvd = 0
	}
	l.vbsi = l.b.vbs - i*rs
}

// core evaluates, for the lanes of ls that live indexes, the core current,
// charge density and saturation function at the lane's internal bias
// together with their closed-form partials, into the lane's st.co. The
// derivatives reuse the transcendentals of the value computation (the
// logistic and softplus derivatives fall out of the already-computed
// exponentials, and dFsat/dx = Fsat/(x(1+x^β))), so a derivative-carrying
// evaluation costs the same exp/log budget as a plain one — which is what
// lets the series solve run Newton instead of secant and the simulator
// skip finite differences entirely.
//
// It runs in five stages, each ending in the transcendentals that the next
// one needs, and runs each stage over every live lane before the next: the
// threshold's √ and the logistic's exp; the softplus exp and Fsat's log;
// the softplus log1p and x^β's exp; Fsat's log1p; Fsat's exp and the
// outputs. The charge's softplus chain and the Fsat chain do not feed each
// other, so within a lane their first two steps are issued in pairs too.
// Every operation and operand is the one the chains computed back to back,
// so the values are the same bits (FuzzCoreOverlap holds the kernel to
// that serial form, coreSerial).
func core(ls []laneSolve, live []int) {
	for _, k := range live {
		l := &ls[k]
		in := l.in
		p := &in.p
		// Body-corrected, DIBL-corrected threshold.
		vbsEff := l.vbsi
		clamped := false
		if vbsEff > in.vbsMax {
			vbsEff = in.vbsMax // clamp to keep sqrt real; deep forward body bias is outside model validity
			clamped = true
		}
		vt := p.VT0 - in.delta*l.vdsi
		vtB := 0.0 // ∂vt/∂vbsi (body effect)
		if p.GammaB != 0 {
			sq := math.Sqrt(p.PhiB - vbsEff)
			vt += p.GammaB * (sq - in.sqrtPhiB)
			if !clamped {
				vtB = -p.GammaB / (2 * sq)
			}
		}
		n := p.N0 + p.Nd*l.vdsi
		l.vt, l.vtB, l.nphit = vt, vtB, n*p.PhiT
		// Inversion transition function FF (→1 in weak inversion, →0 in
		// strong), a logistic guarded against overflow: its argument and
		// exponential.
		fl := (vt - in.aphitHalf - l.vgsi) / in.aphit
		l.fl = fl
		if !(fl > 40) && !(fl < -40) {
			l.el = math.Exp(-fl)
		}
	}
	for _, k := range live {
		l := &ls[k]
		in := l.in
		phit := in.p.PhiT
		var ff, ffp float64 // the logistic and its derivative ff·(1−ff)
		switch {
		case l.fl > 40:
			ff, ffp = 1, 0
		case l.fl < -40:
			ff, ffp = 0, 0
		default:
			ff = 1 / (1 + l.el)
			ffp = ff * (1 - ff)
		}
		aphit := in.aphit
		vtD := -in.delta // ∂vt/∂vdsi (DIBL)
		l.ffG = ffp * in.ffArgG
		l.ffD = ffp * in.ffArgD
		l.ffB = ffp * (l.vtB / aphit)
		// Virtual-source charge density (paper's charge expression).
		num := l.vgsi - (l.vt - aphit*ff)
		l.numG = 1 + aphit*l.ffG
		l.numD = aphit*l.ffD - vtD
		l.numB = aphit*l.ffB - l.vtB
		l.arg = num / l.nphit
		// Saturation voltage blends the strong-inversion value vxo·Leff/µ
		// with the thermal value φt in weak inversion.
		l.vdsat = in.vdsats*(1-ff) + phit*ff
		l.xs = l.vdsi / l.vdsat
		// The two chains' first steps: softplus(arg) = log1p(e^arg),
		// guarded against overflow above 40 and reduced to e^arg below
		// −40, and Fsat's t = x^β, written as exp(β·log x) so that each pow
		// collapses to one exp+log pair.
		if !(l.arg > 40) {
			l.e = math.Exp(l.arg)
		}
		if l.xs > 0 {
			l.lx = math.Log(l.xs)
		}
	}
	for _, k := range live {
		l := &ls[k]
		switch { // softplus(arg) and its derivative e/(1+e)
		case l.arg > 40:
			l.sp, l.spp = l.arg, 1
		case l.arg < -40:
			l.sp, l.spp = l.e, l.e
		default:
			l.sp, l.spp = math.Log1p(l.e), l.e/(1+l.e)
		}
		if l.xs > 0 {
			l.t = math.Exp(l.in.p.Beta * l.lx)
		}
	}
	for _, k := range live {
		l := &ls[k]
		in, co := l.in, &l.st.co
		p := &in.p
		nphit := l.nphit
		co.q = p.Cinv * nphit * l.sp
		cspp := p.Cinv * nphit * l.spp
		co.qG = cspp * (l.numG / nphit)
		co.qD = p.Cinv*in.nphitD*l.sp + cspp*((l.numD-l.arg*in.nphitD)/nphit)
		co.qB = cspp * (l.numB / nphit)
		if l.xs > 0 {
			l.l1 = math.Log1p(l.t)
		}
	}
	for _, k := range live {
		l := &ls[k]
		in, co := l.in, &l.st.co
		p := &in.p
		x, vdsat := l.xs, l.vdsat
		// Saturation function Fsat (paper Eq. 3).
		if x > 0 {
			co.s = x * math.Exp(-l.l1/p.Beta)
			dfdx := co.s / (x * (1 + l.t))
			co.sG = dfdx * (-(x * in.vdsatP * l.ffG) / vdsat)
			co.sD = dfdx * ((1 - x*in.vdsatP*l.ffD) / vdsat)
			co.sB = dfdx * (-(x * in.vdsatP * l.ffB) / vdsat)
		} else {
			// x = 0 happens at vdsi = 0 (e.g. equal node voltages at DC
			// init, or a device pulled fully linear). Fsat(x) =
			// x·(1+x^β)^(−1/β) has the one-sided slope dFsat/dx → 1 there,
			// so the vdsi-derivative must carry the 1/vdsat limit: zeroing
			// it would report gds = 0 for a turned-on device at Vds = 0 and
			// leave its output node's Jacobian row near-singular (Newton
			// then limit-cycles off the solution).
			co.s, co.sG, co.sB = 0, 0, 0
			co.sD = 1 / vdsat
		}
		co.f = co.s * co.q * p.Vxo
		co.fG = (co.sG*co.q + co.s*co.qG) * p.Vxo
		co.fD = (co.sD*co.q + co.s*co.qD) * p.Vxo
		co.fB = (co.sB*co.q + co.s*co.qB) * p.Vxo
	}
}
