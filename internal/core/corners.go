package core

import (
	"fmt"

	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/vsmodel"
)

// Corner identifies a process corner derived from the statistical model:
// TT is nominal; FF/SS shift both polarities fast/slow; FS and SF are the
// skewed corners (first letter NMOS, second PMOS).
type Corner int

// Process corners.
const (
	TT Corner = iota
	FF
	SS
	FS
	SF
)

// String returns the conventional corner name.
func (c Corner) String() string {
	switch c {
	case FF:
		return "FF"
	case SS:
		return "SS"
	case FS:
		return "FS"
	case SF:
		return "SF"
	default:
		return "TT"
	}
}

// Corners lists all five corners.
func Corners() []Corner { return []Corner{TT, FF, SS, FS, SF} }

// nmosFast/pmosFast report the per-polarity speed sign of the corner
// (+1 fast, -1 slow, 0 typical).
func (c Corner) nmosFast() float64 {
	switch c {
	case FF, FS:
		return 1
	case SS, SF:
		return -1
	}
	return 0
}

func (c Corner) pmosFast() float64 {
	switch c {
	case FF, SF:
		return 1
	case SS, FS:
		return -1
	}
	return 0
}

// CornerDeltas builds the deterministic parameter shift of a corner for a
// device of geometry (w, l): each statistical parameter is moved by
// ±nsigma·σ in its *fast* direction (lower VT0, shorter Leff, wider Weff,
// higher µ, higher Cinv for the fast corner; mirrored for slow).
//
// Digital corner models are exactly this construction — a deterministic
// card at the k-sigma extreme of the local-variation space — so the derived
// corners bound the Monte Carlo population by design. The Fig. 5/7 corner
// ablation checks how tight that bound is against true MC quantiles.
func (m *StatVS) CornerDeltas(c Corner, k device.Kind, w, l float64, nsigma float64) device.Deltas {
	sign := m.cornerSign(c, k)
	if sign == 0 {
		return device.Deltas{}
	}
	s := m.Alphas(k).Sigmas(w, l)
	return device.Deltas{
		DVT0:  -sign * nsigma * s.VT0, // fast = lower threshold
		DL:    -sign * nsigma * s.L,   // fast = shorter channel
		DW:    +sign * nsigma * s.W,   // fast = wider device
		DMu:   +sign * nsigma * s.Mu,  // fast = higher mobility
		DCinv: +sign * nsigma * s.Cinv,
	}
}

func (m *StatVS) cornerSign(c Corner, k device.Kind) float64 {
	if k == device.PMOS {
		return c.pmosFast()
	}
	return c.nmosFast()
}

// CornerFactory returns a deterministic device factory at the given corner
// and sigma level.
func (m *StatVS) CornerFactory(c Corner, nsigma float64) circuits.Factory {
	return func(k device.Kind, w, l float64) device.Device {
		return m.CornerCard(c, k, w, l, nsigma).Bind()
	}
}

// CornerCard returns the corner-shifted card for inspection.
func (m *StatVS) CornerCard(c Corner, k device.Kind, w, l float64, nsigma float64) vsmodel.Params {
	return m.Card(k, w, l).ApplyDeltas(m.CornerDeltas(c, k, w, l, nsigma))
}

// CornerReport formats the Idsat shift of every corner for a geometry.
func (m *StatVS) CornerReport(w, l, vdd, nsigma float64) string {
	out := fmt.Sprintf("corner Idsat at W/L=%.0f/%.0f nm, %gσ:\n", w*1e9, l*1e9, nsigma)
	for _, c := range Corners() {
		f := m.CornerFactory(c, nsigma)
		n := f(device.NMOS, w, l)
		p := f(device.PMOS, w, l)
		idn := n.Eval(vdd, vdd, 0, 0).Id
		idp := -p.Eval(0, 0, vdd, vdd).Id
		out += fmt.Sprintf("  %-3s NMOS %7.1f uA  PMOS %7.1f uA\n", c, idn*1e6, idp*1e6)
	}
	return out
}
