package vsmodel

import (
	"math"

	"vstat/internal/device"
)

// ParamsBatch is the SoA batch kernel for the VS model: K statistical
// instances of one circuit device position evaluated in lockstep. Per-lane
// parameters (the Pelgrom-varied set plus everything coreBiasPreD reads) are
// laid out as structure-of-arrays, and every sample-invariant subexpression
// of the scalar path — δ(Leff), the strong-inversion saturation voltage
// vxo·Leff/µ, the access resistances Rs0/W and Rd0/W, W·Leff, Cof·W,
// α·φt and √PhiB — is hoisted once per lane at bind time instead of being
// recomputed inside every solver iteration.
//
// Bit-identity contract: every hoisted value is computed by exactly the
// expression (same operations, same associativity) the scalar path uses, and
// the per-lane evaluation sequence — the Newton series solve with its
// analytic slope, the derivative-carrying core evaluations, charge/derivative
// assembly, D/S swap and polarity mapping — replicates Eval / EvalDerivs4
// statement for statement. Lanes interleave only at evaluation-phase
// boundaries; no arithmetic ever mixes lanes. A lane's outputs are therefore
// bit-identical to the scalar path for the same instance and voltages, which
// is what lets the lockstep simulator evict a lane to the scalar engine at
// any point without perturbing results.
type ParamsBatch struct {
	k int

	// Per-lane parameters and hoisted invariants (SoA).
	pol      []float64
	wPos     []bool
	w        []float64
	rs, rd   []float64
	delta    []float64 // δ(Leff)
	vdsats   []float64 // Vxo·Leff/µ
	wl       []float64 // W·Leff
	covW     []float64 // Cof·W
	vt0      []float64
	gammaB   []float64
	phiB     []float64
	sqrtPhiB []float64 // √PhiB
	n0, nd   []float64
	phit     []float64
	alpha    []float64
	aphit    []float64 // α·φt
	cinv     []float64
	beta     []float64
	vxo      []float64

	// Per-call scratch: pre-step.
	full, vals []bool // lane wants full derivs / values only
	swap       []bool
	vgs, vds   []float64
	vbs, vgd   []float64

	// Series-solve state: bracket, current Newton trial, last Newton step,
	// tolerance, and the converged per-lane result — the root current plus
	// the last core evaluation with its analytic partials (the scalar
	// seriesState).
	sDone  []bool
	sA, sB []float64
	sX     []float64
	sPrev  []float64
	sTol   []float64
	curID  []float64
	cCo    []coreOut
}

// NewBatch implements device.BatchBuilder: the prototype's parameter card
// supplies the kernel, each lane is bound later via SetLane.
func (p *Params) NewBatch(k int) device.BatchDevice { return NewParamsBatch(k) }

// NewParamsBatch allocates a K-lane VS batch kernel with all scratch
// preallocated, so EvalDerivsBatch never allocates.
func NewParamsBatch(k int) *ParamsBatch {
	pb := &ParamsBatch{k: k}
	fs := [][]*[]float64{
		{&pb.pol, &pb.w, &pb.rs, &pb.rd, &pb.delta, &pb.vdsats, &pb.wl, &pb.covW},
		{&pb.vt0, &pb.gammaB, &pb.phiB, &pb.sqrtPhiB, &pb.n0, &pb.nd, &pb.phit},
		{&pb.alpha, &pb.aphit, &pb.cinv, &pb.beta, &pb.vxo},
		{&pb.vgs, &pb.vds, &pb.vbs, &pb.vgd},
		{&pb.sA, &pb.sB, &pb.sX, &pb.sPrev, &pb.sTol, &pb.curID},
	}
	for _, group := range fs {
		for _, f := range group {
			*f = make([]float64, k)
		}
	}
	pb.wPos = make([]bool, k)
	pb.full = make([]bool, k)
	pb.vals = make([]bool, k)
	pb.swap = make([]bool, k)
	pb.sDone = make([]bool, k)
	pb.cCo = make([]coreOut, k)
	return pb
}

// Lanes returns the lane capacity.
func (pb *ParamsBatch) Lanes() int { return pb.k }

// SetLane binds lane l to a VS instance, hoisting its sample-invariant
// subexpressions. Non-VS devices report false so the caller can fall back
// to a scalar-loop batch.
func (pb *ParamsBatch) SetLane(l int, d device.Device) bool {
	p, ok := d.(*Params)
	if !ok {
		return false
	}
	w := p.Weff()
	leff := p.Leff()
	pb.pol[l] = p.TypeK.Polarity()
	pb.wPos[l] = w > 0
	pb.w[l] = w
	if w > 0 {
		pb.rs[l] = p.Rs0 / w
		pb.rd[l] = p.Rd0 / w
	} else {
		pb.rs[l], pb.rd[l] = 0, 0
	}
	pb.delta[l] = p.Delta(leff)
	pb.vdsats[l] = p.Vxo * leff / p.Mu
	pb.wl[l] = w * leff
	pb.covW[l] = p.Cof * w
	pb.vt0[l] = p.VT0
	pb.gammaB[l] = p.GammaB
	pb.phiB[l] = p.PhiB
	pb.sqrtPhiB[l] = math.Sqrt(p.PhiB)
	pb.n0[l] = p.N0
	pb.nd[l] = p.Nd
	pb.phit[l] = p.PhiT
	pb.alpha[l] = p.Alpha
	pb.aphit[l] = p.Alpha * p.PhiT
	pb.cinv[l] = p.Cinv
	pb.beta[l] = p.Beta
	pb.vxo[l] = p.Vxo
	return true
}

// coreD replicates coreBiasPreD for lane l, reading the SoA parameter
// arrays and writing into the caller's coreOut (in place: the 96-byte
// struct would otherwise be copied twice per solver iteration). Every
// arithmetic expression matches the scalar body exactly; α·φt and √PhiB are
// read from the hoisted lanes, which hold the identical products.
func (pb *ParamsBatch) coreD(l int, vgsi, vdsi, vbsi float64, co *coreOut) {
	phit := pb.phit[l]

	vbsEff := vbsi
	clamped := false
	if max := pb.phiB[l] - 0.05; vbsEff > max {
		vbsEff = max
		clamped = true
	}
	vt := pb.vt0[l] - pb.delta[l]*vdsi
	vtD := -pb.delta[l]
	vtB := 0.0
	if pb.gammaB[l] != 0 {
		sq := math.Sqrt(pb.phiB[l] - vbsEff)
		vt += pb.gammaB[l] * (sq - pb.sqrtPhiB[l])
		if !clamped {
			vtB = -pb.gammaB[l] / (2 * sq)
		}
	}

	n := pb.n0[l] + pb.nd[l]*vdsi
	nphit := n * phit
	nphitD := pb.nd[l] * phit
	aphit := pb.aphit[l]

	ff, ffp := logisticD((vt - aphit/2 - vgsi) / aphit)
	ffG := ffp * (-1 / aphit)
	ffD := ffp * (vtD / aphit)
	ffB := ffp * (vtB / aphit)

	num := vgsi - (vt - aphit*ff)
	numG := 1 + aphit*ffG
	numD := aphit*ffD - vtD
	numB := aphit*ffB - vtB
	arg := num / nphit
	sp, spp := softplusD(arg)
	co.q = pb.cinv[l] * nphit * sp
	cspp := pb.cinv[l] * nphit * spp
	co.qG = cspp * (numG / nphit)
	co.qD = pb.cinv[l]*nphitD*sp + cspp*((numD-arg*nphitD)/nphit)
	co.qB = cspp * (numB / nphit)

	vdsat := pb.vdsats[l]*(1-ff) + phit*ff
	vdsatP := phit - pb.vdsats[l]

	x := vdsi / vdsat
	if x > 0 {
		t := math.Exp(pb.beta[l] * math.Log(x))
		co.s = x * math.Exp(-math.Log1p(t)/pb.beta[l])
		dfdx := co.s / (x * (1 + t))
		co.sG = dfdx * (-(x * vdsatP * ffG) / vdsat)
		co.sD = dfdx * ((1 - x*vdsatP*ffD) / vdsat)
		co.sB = dfdx * (-(x * vdsatP * ffB) / vdsat)
	} else {
		// One-sided limit at vdsi = 0, mirroring coreBiasPreD: dFsat/dx → 1,
		// so the vdsi slope keeps its 1/vdsat limit instead of collapsing to
		// zero (a turned-on device at Vds = 0 must still report its linear
		// conductance or the node's Jacobian row goes near-singular).
		co.s, co.sG, co.sB = 0, 0, 0
		co.sD = 1 / vdsat
	}

	co.f = co.s * co.q * pb.vxo[l]
	co.fG = (co.sG*co.q + co.s*co.qG) * pb.vxo[l]
	co.fD = (co.sD*co.q + co.s*co.qD) * pb.vxo[l]
	co.fB = (co.sB*co.q + co.s*co.qB) * pb.vxo[l]
}

// solveEvalD replicates solveSeriesD's inner eval closure for lane l at
// trial current i: the derivative-carrying core evaluation at the degraded
// internal bias — written straight into the lane's converged-state slot
// cCo[l], exactly the "last evaluation wins" semantics of the scalar
// seriesState — plus the drain current and its analytic dF/dI.
func (pb *ParamsBatch) solveEvalD(l int, i float64) (f, df float64) {
	vgsi := pb.vgs[l] - i*pb.rs[l]
	vdsiOut := pb.vds[l] - i*(pb.rs[l]+pb.rd[l])
	dvd := -(pb.rs[l] + pb.rd[l])
	if vdsiOut < 0 {
		vdsiOut = 0
		dvd = 0
	}
	vbsi := pb.vbs[l] - i*pb.rs[l]
	co := &pb.cCo[l]
	pb.coreD(l, vgsi, vdsiOut, vbsi, co)
	f = pb.w[l] * co.f
	df = pb.w[l] * (co.fG*(-pb.rs[l]) + co.fD*dvd + co.fB*(-pb.rs[l]))
	return f, df
}

// solveBatch runs the bracket-safeguarded Newton series solve for every
// active lane in lockstep: each phase (initial evaluation, Newton round)
// loops over lanes so the independent exp/log latency chains overlap, while
// each lane's own evaluation sequence — the two acceptance rules and the
// first-order exit included — stays identical to the scalar solveSeriesD.
func (pb *ParamsBatch) solveBatch() {
	pending := 0
	for l := 0; l < pb.k; l++ {
		pb.sDone[l] = true
		if !pb.full[l] && !pb.vals[l] {
			continue
		}
		f0, df0 := pb.solveEvalD(l, 0)
		pb.curID[l] = f0
		if pb.rs[l] == 0 && pb.rd[l] == 0 {
			continue
		}
		tol := 1e-13 + 1e-9*f0
		if f0 <= tol {
			continue
		}
		pb.sTol[l] = tol
		a, b := 0.0, f0
		pb.sA[l], pb.sB[l] = a, b
		// Newton step from I=0: g(0) = −F(0), g'(0) = 1 − F'(0).
		x := f0 / (1 - df0)
		prev := x
		if !(x > a && x < b) {
			x = 0.5 * (a + b)
			prev = 0
		} else if firstIterateConverged(pb.w[l]*pb.cCo[l].q*pb.vxo[l], pb.phit[l], pb.rs[l]+pb.rd[l], x, df0, tol) {
			pb.curID[l] = x
			acceptMove(&pb.cCo[l], x, 0, pb.vds[l], pb.rs[l], pb.rd[l])
			continue
		}
		pb.sX[l] = x
		pb.sPrev[l] = prev
		pb.sDone[l] = false
		pending++
	}
	if pending == 0 {
		return
	}

	for it := 0; it < 60 && pending > 0; it++ {
		for l := 0; l < pb.k; l++ {
			if pb.sDone[l] {
				continue
			}
			a, b := pb.sA[l], pb.sB[l]
			x := pb.sX[l]
			fx, dfx := pb.solveEvalD(l, x)
			gx := x - fx
			pb.curID[l] = fx
			if math.Abs(gx) <= pb.sTol[l] || b-a <= 1e-15*(1+b) {
				// On convergence the scalar path returns the root estimate
				// x, not F(x); only 60-round exhaustion keeps F(x).
				pb.curID[l] = x
				pb.sDone[l] = true
				pending--
				continue
			}
			if gx > 0 {
				b = x
				pb.sB[l] = x
			} else {
				a = x
				pb.sA[l] = x
			}
			xn := x - gx/(1-dfx)
			if !(xn > a && xn < b) {
				xn = 0.5 * (a + b)
				pb.sPrev[l] = 0
			} else if newtonConverged(xn-x, pb.sPrev[l], pb.sTol[l]) {
				pb.curID[l] = xn
				acceptMove(&pb.cCo[l], xn, x, pb.vds[l], pb.rs[l], pb.rd[l])
				pb.sDone[l] = true
				pending--
				continue
			} else {
				pb.sPrev[l] = xn - x
			}
			pb.sX[l] = xn
		}
	}
}

// EvalDerivsBatch implements device.BatchDevice for the VS model.
func (pb *ParamsBatch) EvalDerivsBatch(vd, vg, vs, vb []float64, mode []device.EvalMode, out *device.DerivsBatch) {
	// Pre-step: polarity map, D/S swap and source-referred externals, as in
	// Eval / EvalDerivs4.
	for l := 0; l < pb.k; l++ {
		pb.full[l] = mode[l] == device.EvalFull
		pb.vals[l] = mode[l] == device.EvalValues
		if !pb.full[l] && !pb.vals[l] {
			continue
		}
		if !pb.wPos[l] {
			// Eval and EvalDerivs4 return zeros at Weff <= 0 before any
			// voltage mapping.
			if pb.full[l] {
				out.SetLaneDerivs(l, device.Derivs{})
			} else {
				out.Id[l] = 0
				out.Q[0][l], out.Q[1][l], out.Q[2][l], out.Q[3][l] = 0, 0, 0, 0
			}
			pb.full[l], pb.vals[l] = false, false
			continue
		}
		pol := pb.pol[l]
		nvd, nvg, nvs, nvb := pol*vd[l], pol*vg[l], pol*vs[l], pol*vb[l]
		swap := false
		if nvd < nvs {
			nvd, nvs = nvs, nvd
			swap = true
		}
		pb.swap[l] = swap
		pb.vgs[l] = nvg - nvs
		pb.vds[l] = nvd - nvs
		pb.vbs[l] = nvb - nvs
		pb.vgd[l] = nvg - nvd
	}

	// Lockstep series solve for every live lane; the converged evaluations
	// carry the analytic core partials.
	pb.solveBatch()

	// Values-only lanes: assemble terminal charges (Eval tail).
	for l := 0; l < pb.k; l++ {
		if !pb.vals[l] {
			continue
		}
		id := pb.curID[l]
		qixo, fsat := pb.cCo[l].q, pb.cCo[l].s
		// charges(vgs, vgd, qixo, fsat) with W·Leff and Cof·W hoisted.
		qInv := pb.wl[l] * qixo * (1 - fsat/3)
		qdFrac := 0.5 - fsat/10
		qsFrac := 0.5 + fsat/10
		covW := pb.covW[l]
		qovS := covW * pb.vgs[l]
		qovD := covW * pb.vgd[l]
		q := device.Charges{
			Qg: qInv + qovS + qovD,
			Qd: -qdFrac*qInv - qovD,
			Qs: -qsFrac*qInv - qovS,
			Qb: 0,
		}
		if pb.swap[l] {
			id = -id
			q = q.SwapDS()
		}
		if pb.pol[l] < 0 {
			id = -id
			q = q.Neg()
		}
		out.Id[l] = id
		out.Q[0][l], out.Q[1][l], out.Q[2][l], out.Q[3][l] = q.Qd, q.Qg, q.Qs, q.Qb
	}

	// Full lanes: per-lane chain rule and assembly — the scalar EvalDerivs4
	// tail, fed by the solve's converged analytic partials (no extra core
	// evaluations).
	for l := 0; l < pb.k; l++ {
		if !pb.full[l] {
			continue
		}
		w := pb.w[l]
		rs, rd := pb.rs[l], pb.rd[l]
		id := pb.curID[l]
		co := &pb.cCo[l]
		qixo, fsat := co.q, co.s
		vgs, vgd := pb.vgs[l], pb.vgd[l]

		Fg := w * co.fG
		Fd := w * co.fD
		Fb := w * co.fB
		qixoG, qixoD, qixoB := co.qG, co.qD, co.qB
		fsatG, fsatD, fsatB := co.sG, co.sD, co.sB

		den := 1 + Fg*rs + Fd*(rs+rd) + Fb*rs
		iG := Fg / den
		iD := Fd / den
		iB := Fb / den

		dI := [3]float64{iG, iD, iB}
		var dvgsi, dvdsi, dvbsi [3]float64
		for x := 0; x < 3; x++ {
			dvgsi[x] = -rs * dI[x]
			dvdsi[x] = -(rs + rd) * dI[x]
			dvbsi[x] = -rs * dI[x]
		}
		dvgsi[0]++
		dvdsi[1]++
		dvbsi[2]++

		var dQixo, dFsat [3]float64
		for x := 0; x < 3; x++ {
			dQixo[x] = qixoG*dvgsi[x] + qixoD*dvdsi[x] + qixoB*dvbsi[x]
			dFsat[x] = fsatG*dvgsi[x] + fsatD*dvdsi[x] + fsatB*dvbsi[x]
		}

		dvgsT := [4]float64{0, 1, -1, 0}
		dvdsT := [4]float64{1, 0, -1, 0}
		dvbsT := [4]float64{0, 0, -1, 1}
		dvgdT := [4]float64{-1, 1, 0, 0}

		wl := pb.wl[l]
		qInv := wl * qixo * (1 - fsat/3)
		qdFrac := 0.5 - fsat/10
		qsFrac := 0.5 + fsat/10
		covW := pb.covW[l]

		var der device.Derivs
		der.Id = id
		der.Q = device.Charges{
			Qg: qInv + covW*vgs + covW*vgd,
			Qd: -qdFrac*qInv - covW*vgd,
			Qs: -qsFrac*qInv - covW*vgs,
			Qb: 0,
		}

		for t := 0; t < 4; t++ {
			gi := iG*dvgsT[t] + iD*dvdsT[t] + iB*dvbsT[t]
			der.GId[t] = gi
			dq := dQixo[0]*dvgsT[t] + dQixo[1]*dvdsT[t] + dQixo[2]*dvbsT[t]
			df := dFsat[0]*dvgsT[t] + dFsat[1]*dvdsT[t] + dFsat[2]*dvbsT[t]
			dqInv := wl * (dq*(1-fsat/3) - qixo*df/3)
			der.CQ[1][t] = dqInv + covW*(dvgsT[t]+dvgdT[t])
			der.CQ[0][t] = -qdFrac*dqInv + qInv*df/10 - covW*dvgdT[t]
			der.CQ[2][t] = -qsFrac*dqInv - qInv*df/10 - covW*dvgsT[t]
			der.CQ[3][t] = 0
		}

		if pb.swap[l] {
			der = swapDerivs(der)
		}
		if pb.pol[l] < 0 {
			der.Id = -der.Id
			der.Q = der.Q.Neg()
		}
		out.SetLaneDerivs(l, der)
	}
}
