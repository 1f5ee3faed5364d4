package vsmodel

import "vstat/internal/device"

// EvalDerivs4 implements the fast native-derivative path used by the
// circuit simulator: instead of re-solving the series-resistance implicit
// equation once per perturbed terminal (4 full solves), it solves once and
// derives all terminal sensitivities by the implicit function theorem
// (see bundle). The bundle is built in the result and permuted in place:
// at 200 bytes, every copy of it shows in a profile.
func (in *Instance) EvalDerivs4(vd, vg, vs, vb float64) (der device.Derivs) {
	in.derivsInto(&der, vd, vg, vs, vb)
	return
}

// derivsInto is EvalDerivs4 writing into the caller's bundle: one series
// solve, a group of one, then the bundle.
func (in *Instance) derivsInto(der *device.Derivs, vd, vg, vs, vb float64) {
	if in.weff <= 0 {
		*der = device.Derivs{}
		return
	}
	var ls [1]laneSolve
	ls[0].in, ls[0].b = in, in.orient(vd, vg, vs, vb) // not through a pointer, which would make in escape
	solveLanes(ls[:])
	in.bundle(der, &ls[0].st, &ls[0].b)
}

// bias is a terminal bias mapped onto the problem the kernel solves: the
// n-equivalent, source-referred voltages with Vds ≥ 0, and whether drain
// and source were swapped to make it so.
type bias struct {
	vgs, vds, vbs, vgd float64
	swap               bool
}

// orient maps terminal voltages onto the n-equivalent, source-referred
// problem: PMOS onto NMOS, and drain with source for negative Vds.
func (in *Instance) orient(vd, vg, vs, vb float64) (b bias) {
	pol := in.p.TypeK.Polarity()
	nvd, nvg, nvs, nvb := pol*vd, pol*vg, pol*vs, pol*vb
	if nvd < nvs {
		nvd, nvs = nvs, nvd
		b.swap = true
	}
	b.vgs = nvg - nvs
	b.vds = nvd - nvs
	b.vbs = nvb - nvs
	b.vgd = nvg - nvd
	return
}

// bundle writes into der the derivative bundle of the converged series
// solve st at bias b, for an instance with a channel (Weff > 0).
//
// With F the core current at the internal bias u = (vgsi, vdsi, vbsi) and
// the solved current I satisfying I = F(u(I, v)), the terminal derivative
// follows from
//
//	dI·D = Fg·dvgs + Fd·dvds + Fb·dvbs,
//	D = 1 + Fg·rs + Fd·(rs+rd) + Fb·rs,
//
// and the charge derivatives chain through the internal-voltage shifts the
// current feedback induces. The core partials come out of the converged
// series solve analytically, so a full derivative bundle costs no core
// evaluations beyond the solve itself.
func (in *Instance) bundle(der *device.Derivs, st *seriesState, b *bias) {
	w := in.weff
	rs, rd := in.rs, in.rd
	vgs, vgd := b.vgs, b.vgd

	id, qixo, fsat := st.id, st.co.q, st.co.s
	Fg := w * st.co.fG
	Fd := w * st.co.fD
	Fb := w * st.co.fB
	qixoG, qixoD, qixoB := st.co.qG, st.co.qD, st.co.qB
	fsatG, fsatD, fsatB := st.co.sG, st.co.sD, st.co.sB

	den := 1 + Fg*rs + Fd*(rs+rd) + Fb*rs
	// ∂I/∂(vgs, vds, vbs).
	iG := Fg / den
	iD := Fd / den
	iB := Fb / den

	// Internal-voltage sensitivities to the source-referred externals:
	// dvgsi/dx = [x==vgs] − rs·∂I/∂x, etc.
	dI := [3]float64{iG, iD, iB} // x order: vgs, vds, vbs
	var dvgsi, dvdsi, dvbsi [3]float64
	for x := 0; x < 3; x++ {
		dvgsi[x] = -rs * dI[x]
		dvdsi[x] = -(rs + rd) * dI[x]
		dvbsi[x] = -rs * dI[x]
	}
	dvgsi[0]++
	dvdsi[1]++
	dvbsi[2]++

	// Chain core quantities to source-referred externals.
	var dQixo, dFsat [3]float64
	for x := 0; x < 3; x++ {
		dQixo[x] = qixoG*dvgsi[x] + qixoD*dvdsi[x] + qixoB*dvbsi[x]
		dFsat[x] = fsatG*dvgsi[x] + fsatD*dvdsi[x] + fsatB*dvbsi[x]
	}

	// Terminal mapping (n-equivalent, unswapped): rows of
	// ∂(vgs, vds, vbs, vgd)/∂(vd, vg, vs, vb).
	dvgsT := [4]float64{0, 1, -1, 0}
	dvdsT := [4]float64{1, 0, -1, 0}
	dvbsT := [4]float64{0, 0, -1, 1}
	dvgdT := [4]float64{-1, 1, 0, 0}

	// Charge assembly pieces.
	wl, covW := in.wl, in.covW
	qInv := wl * qixo * (1 - fsat/3)
	qdFrac := 0.5 - fsat/10
	qsFrac := 0.5 + fsat/10

	// Values (n-equivalent, unswapped).
	der.Id = id
	der.Q = device.Charges{
		Qg: qInv + covW*vgs + covW*vgd,
		Qd: -qdFrac*qInv - covW*vgd,
		Qs: -qsFrac*qInv - covW*vgs,
		Qb: 0,
	}

	for t := 0; t < 4; t++ { // terminal order D, G, S, B
		// ∂I/∂terminal.
		gi := iG*dvgsT[t] + iD*dvdsT[t] + iB*dvbsT[t]
		der.GId[t] = gi
		// ∂qInv/∂terminal and ∂fsat/∂terminal.
		dq := dQixo[0]*dvgsT[t] + dQixo[1]*dvdsT[t] + dQixo[2]*dvbsT[t]
		df := dFsat[0]*dvgsT[t] + dFsat[1]*dvdsT[t] + dFsat[2]*dvbsT[t]
		dqInv := wl * (dq*(1-fsat/3) - qixo*df/3)
		// Rows: Qd, Qg, Qs, Qb.
		der.CQ[1][t] = dqInv + covW*(dvgsT[t]+dvgdT[t])
		der.CQ[0][t] = -qdFrac*dqInv + qInv*df/10 - covW*dvgdT[t]
		der.CQ[2][t] = -qsFrac*dqInv - qInv*df/10 - covW*dvgsT[t]
		der.CQ[3][t] = 0
	}

	if b.swap {
		swapDerivs(der)
	}
	if in.p.TypeK == device.PMOS {
		der.Id = -der.Id
		der.Q = der.Q.Neg()
		// Derivatives are invariant under simultaneous sign flips of
		// currents/charges and voltages.
	}
}

// EvalDerivs4 implements device.NativeDerivs through a temporary Instance,
// which writes the bundle into the named result.
func (p *Params) EvalDerivs4(vd, vg, vs, vb float64) (der device.Derivs) {
	var in Instance
	in.bind(p)
	in.derivsInto(&der, vd, vg, vs, vb)
	return
}

// swapDerivs exchanges the drain and source roles of a derivative bundle in
// place: the current negates, charges swap, and both rows and columns of
// the capacitance matrix permute (drain and source, terminals 0 and 2).
func swapDerivs(d *device.Derivs) {
	d.Id = -d.Id
	d.Q = d.Q.SwapDS()
	d.GId[0], d.GId[1], d.GId[2], d.GId[3] = -d.GId[2], -d.GId[1], -d.GId[0], -d.GId[3]
	d.CQ[0], d.CQ[2] = d.CQ[2], d.CQ[0]
	for k := range d.CQ {
		d.CQ[k][0], d.CQ[k][2] = d.CQ[k][2], d.CQ[k][0]
	}
}
