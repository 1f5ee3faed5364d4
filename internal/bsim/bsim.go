// Package bsim implements the "golden" reference compact model standing in
// for the proprietary 40-nm BSIM4 industrial design kit the paper validates
// against. It is a BSIM-style drift–diffusion / velocity-saturation model:
// single-piece Vgsteff smoothing, vertical-field mobility degradation,
// velocity saturation with a smooth Vdseff, channel-length modulation,
// source/drain resistance degeneration, DIBL and Vth roll-off with their own
// length dependencies, and a Ward–Dutton-style charge model.
//
// Its equation structure and native parameter set (Vth0, ΔL, ΔW, U0, Cox)
// deliberately differ from the Virtual Source model's, so the backward
// propagation of variance in this repository is a genuine cross-model-space
// extraction, as in the paper where silicon/BSIM statistics are mapped onto
// VS parameters.
package bsim

import (
	"math"

	"vstat/internal/device"
)

// Params is a golden-model card bound to a geometry. SI units throughout.
type Params struct {
	TypeK device.Kind

	W, L  float64 // drawn geometry, m
	DLint float64 // Leff = L − DLint, m
	DWint float64 // Weff = W − DWint, m

	Vth0   float64 // long-channel zero-bias threshold, V
	GammaB float64 // body factor, √V
	PhiS   float64 // surface potential, V

	Eta0    float64 // DIBL coefficient at LRef, V/V
	LEta    float64 // DIBL length scale, m
	DVTRoll float64 // Vth roll-off magnitude, V
	LRoll   float64 // roll-off length scale, m
	LRef    float64 // reference length, m

	U0     float64 // low-field mobility, m²/(V·s)
	Theta  float64 // first-order mobility degradation, 1/V
	Theta2 float64 // second-order mobility degradation, 1/V²
	Vsat   float64 // saturation velocity at LRef, m/s
	LvSat  float64 // length scale of the effective-velocity roll-up, m
	//             (velocity overshoot toward short channels, as industrial
	//             kits capture through L-dependent vsat binning)
	NFac   float64 // subthreshold swing factor
	Lambda float64 // channel-length modulation, 1/V
	Rdsw   float64 // lumped S/D resistance, Ω·m (divide by Weff)

	Cox float64 // gate oxide capacitance, F/m²
	Cov float64 // overlap capacitance per edge, F/m

	PhiT float64 // thermal voltage, V
}

// Kind returns the channel polarity.
func (p *Params) Kind() device.Kind { return p.TypeK }

// Width returns the drawn width in meters.
func (p *Params) Width() float64 { return p.W }

// Length returns the drawn gate length in meters.
func (p *Params) Length() float64 { return p.L }

// Leff returns the effective channel length.
func (p *Params) Leff() float64 { return p.L - p.DLint }

// Weff returns the effective channel width.
func (p *Params) Weff() float64 { return p.W - p.DWint }

// Eta returns the DIBL coefficient at the given effective length.
func (p *Params) Eta(leff float64) float64 {
	return p.Eta0 * math.Exp((p.LRef-leff)/p.LEta)
}

// WithDeltas returns an independent statistical instance. The deltas
// perturb the golden model's native parameters: DVT0→Vth0, DL→Leff,
// DW→Weff, DMu→U0, DCinv→Cox.
func (p *Params) WithDeltas(d device.Deltas) device.Device {
	q := *p
	q.Vth0 += d.DVT0
	q.DLint -= d.DL
	q.DWint -= d.DW
	q.U0 += d.DMu
	q.Cox += d.DCinv
	return &q
}

// WithGeometry returns a copy of the card re-targeted to a new drawn W/L.
func (p Params) WithGeometry(w, l float64) Params {
	p.W = w
	p.L = l
	return p
}

// Eval implements device.Device.
func (p *Params) Eval(vd, vg, vs, vb float64) device.Eval {
	pol := p.TypeK.Polarity()
	nvd, nvg, nvs, nvb := pol*vd, pol*vg, pol*vs, pol*vb
	swap := false
	if nvd < nvs {
		nvd, nvs = nvs, nvd
		swap = true
	}
	vgs := nvg - nvs
	vds := nvd - nvs
	vbs := nvb - nvs

	id, q := p.evalN(vgs, vds, vbs, nvg-nvd)
	if swap {
		id = -id
		q = q.SwapDS()
	}
	if pol < 0 {
		id = -id
		q = q.Neg()
	}
	return device.Eval{Id: id, Q: q}
}

// evalN computes current and charges for the n-equivalent orientation with
// vds >= 0. vgd is needed for the drain overlap charge.
func (p *Params) evalN(vgs, vds, vbs, vgd float64) (float64, device.Charges) {
	leff := p.Leff()
	weff := p.Weff()
	if leff <= 1e-9 || weff <= 0 {
		return 0, device.Charges{}
	}
	vt := p.PhiT

	// Threshold with body effect, roll-off and DIBL.
	vbsEff := vbs
	if max := p.PhiS - 0.05; vbsEff > max {
		vbsEff = max
	}
	vth := p.Vth0 - p.DVTRoll*math.Exp(-leff/p.LRoll) - p.Eta(leff)*vds
	if p.GammaB != 0 {
		vth += p.GammaB * (math.Sqrt(p.PhiS-vbsEff) - math.Sqrt(p.PhiS))
	}

	// Single-piece effective overdrive.
	nvt := p.NFac * vt
	vgst := vgs - vth
	vgsteff := nvt * softplus(vgst/nvt)
	if vgsteff < 1e-12 {
		vgsteff = 1e-12
	}

	// Mobility degradation and velocity saturation.
	mueff := p.U0 / (1 + p.Theta*vgsteff + p.Theta2*vgsteff*vgsteff)
	vsat := p.Vsat
	if p.LvSat > 0 {
		vsat *= math.Exp((p.LRef - leff) / p.LvSat)
	}
	esatL := 2 * vsat / mueff * leff
	// The 2·n·vt term keeps Vdsat at the diffusion floor in subthreshold,
	// preserving the exponential swing (as in BSIM's Vgst2vb term).
	vgst2 := vgsteff + 2*nvt
	vdsat := vgst2 * esatL / (vgst2 + esatL)

	// Smooth minimum of Vds and Vdsat.
	const dv = 0.01
	t := vdsat - vds - dv
	vdseff := vdsat - 0.5*(t+math.Sqrt(t*t+4*dv*vdsat))
	if vdseff < 0 {
		vdseff = 0
	}
	if vdseff > vds {
		vdseff = vds
	}

	// Core current: gLin = Ids0/Vdseff kept explicit to avoid 0/0 at Vds=0.
	vbulk := vgsteff + 2*nvt
	beta := mueff * p.Cox * weff / leff
	gLin := beta * vgsteff * (1 - vdseff/(2*vbulk)) / (1 + vdseff/esatL)
	ids0 := gLin * vdseff
	clm := 1 + p.Lambda*(vds-vdseff)
	rds := p.Rdsw / weff
	id := ids0 * clm / (1 + rds*gLin)

	// Charges: virtual-source-free Ward–Dutton-like scheme driven by the
	// golden model's own Vgsteff and saturation measure.
	sat := 0.0
	if vdsat > 0 {
		sat = vdseff / vdsat
		if sat > 1 {
			sat = 1
		}
	}
	qInv := weff * leff * p.Cox * vgsteff * (1 - sat/3)
	qdFrac := 0.5 - sat/10
	qsFrac := 0.5 + sat/10
	covW := p.Cov * weff
	qovS := covW * vgs
	qovD := covW * vgd
	q := device.Charges{
		Qg: qInv + qovS + qovD,
		Qd: -qdFrac*qInv - qovD,
		Qs: -qsFrac*qInv - qovS,
		Qb: 0,
	}
	return id, q
}

func softplus(x float64) float64 {
	if x > 40 {
		return x
	}
	if x < -40 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}
