// Package device defines the terminal-level abstraction shared by every
// compact MOSFET model in this repository (the Virtual Source model and the
// BSIM-like golden reference), plus finite-difference helpers that derive
// the conductances and capacitance matrix the circuit simulator stamps.
//
// Conventions:
//   - Terminal order is always D, G, S, B.
//   - Voltages are absolute node voltages in volts.
//   - Ids is the channel current flowing from the drain terminal through the
//     device to the source terminal (positive into D, out of S). An NMOS
//     with Vds > 0 in strong inversion has Ids > 0; an "on" PMOS pulling its
//     drain high has Ids < 0.
//   - Charges are the terminal charges in coulombs with the same sign
//     convention as node charge (current into terminal = dQ/dt).
package device

// Kind distinguishes n-channel from p-channel devices.
type Kind int

const (
	NMOS Kind = iota
	PMOS
)

// String returns "NMOS" or "PMOS".
func (k Kind) String() string {
	if k == PMOS {
		return "PMOS"
	}
	return "NMOS"
}

// Polarity returns +1 for NMOS and -1 for PMOS; models use it to map a
// p-channel problem onto the equivalent n-channel one.
func (k Kind) Polarity() float64 {
	if k == PMOS {
		return -1
	}
	return 1
}

// Charges holds the four terminal charges of a MOSFET.
type Charges struct {
	Qd, Qg, Qs, Qb float64
}

// Neg returns the element-wise negation (used for p-channel sign mapping).
func (c Charges) Neg() Charges {
	return Charges{Qd: -c.Qd, Qg: -c.Qg, Qs: -c.Qs, Qb: -c.Qb}
}

// SwapDS exchanges the drain and source charges (used when a model swaps
// terminals internally for Vds < 0).
func (c Charges) SwapDS() Charges {
	return Charges{Qd: c.Qs, Qg: c.Qg, Qs: c.Qd, Qb: c.Qb}
}

// Sum returns Qd+Qg+Qs+Qb; charge-neutral models return ~0.
func (c Charges) Sum() float64 { return c.Qd + c.Qg + c.Qs + c.Qb }

// Eval bundles the outputs of one model evaluation.
type Eval struct {
	Id float64 // channel current, A
	Q  Charges // terminal charges, C
}

// Device is a four-terminal MOSFET compact model instance: a parameter card
// bound to a geometry (and, for statistical instances, to a set of local
// variation deltas).
type Device interface {
	Kind() Kind
	// Eval returns the channel current and terminal charges at the given
	// absolute terminal voltages.
	Eval(vd, vg, vs, vb float64) Eval
	// Width and Length return the drawn geometry in meters.
	Width() float64
	Length() float64
}

// Deltas carries the five statistical VS parameter perturbations of paper
// Table I (absolute SI units). The same structure perturbs the golden
// model's corresponding native parameters.
type Deltas struct {
	DVT0  float64 // V
	DL    float64 // m (effective channel length)
	DW    float64 // m (effective channel width)
	DMu   float64 // m²/(V·s)
	DCinv float64 // F/m²
}

// FDStep is the voltage step used by the finite-difference derivative
// helpers. It is large enough to dominate float64 cancellation on
// femto-coulomb charges and small enough that model curvature over the step
// is negligible for Newton iterations.
const FDStep = 1e-4

// Derivs holds a model evaluation together with the first-order derivatives
// the MNA stamps need.
type Derivs struct {
	Eval
	// GId[j] = ∂Id/∂V_j with j indexing D, G, S, B.
	GId [4]float64
	// CQ[i][j] = ∂Q_i/∂V_j with i, j indexing D, G, S, B.
	CQ [4][4]float64
}

// NativeDerivs is the optional fast path: models that can produce their
// derivative bundle analytically (or semi-analytically, e.g. through the
// implicit function theorem around an internal solve) implement it and are
// preferred by EvalDerivs.
type NativeDerivs interface {
	EvalDerivs4(vd, vg, vs, vb float64) Derivs
}

// LaneWidth is the most devices one EvalDerivsLanes call evaluates.
const LaneWidth = 4

// Lane is one device of a grouped evaluation: the device, its terminal
// voltages in D, G, S, B order, and the bundle to fill.
type Lane struct {
	Dev LaneDerivs
	V   [4]float64
	Out *Derivs
}

// LaneDerivs is the optional grouped path for the devices one circuit
// assembly evaluates: models that run faster on several devices at once
// implement it, and the simulator hands them its independent evaluations
// up to LaneWidth at a time. EvalDerivsLanes fills every lane's Out with
// the bundle lane.Dev.EvalDerivs4 returns at lane.V, bit for bit. It takes
// one to LaneWidth lanes, whose devices all have the receiver's concrete
// type.
type LaneDerivs interface {
	NativeDerivs
	EvalDerivsLanes(lanes []Lane)
}

// EvalDerivs evaluates the device and its derivatives, using the model's
// native path when available and central finite differences otherwise.
// Currents and charges depend only on terminal voltage *differences*, so
// the four derivative columns sum to zero; the body column is recovered
// from that invariance, cutting the FD cost to 6 extra model evaluations.
func EvalDerivs(d Device, vd, vg, vs, vb float64) Derivs {
	if nd, ok := d.(NativeDerivs); ok {
		return nd.EvalDerivs4(vd, vg, vs, vb)
	}
	return evalDerivsFD(d, vd, vg, vs, vb)
}

// EvalDerivsFD always uses the finite-difference path (exported for
// cross-checking native implementations in tests).
func EvalDerivsFD(d Device, vd, vg, vs, vb float64) Derivs {
	return evalDerivsFD(d, vd, vg, vs, vb)
}

// evalDerivsFD differences each of the D, G, S terminals centrally — the
// same O(h²) stencil the Gm/Gds/Cgg helpers have always used, so the FD
// fallback and the characterization helpers agree on truncation error.
func evalDerivsFD(d Device, vd, vg, vs, vb float64) Derivs {
	base := d.Eval(vd, vg, vs, vb)
	out := Derivs{Eval: base}
	v := [4]float64{vd, vg, vs, vb}
	for j := 0; j < 3; j++ { // D, G, S
		vp, vm := v, v
		vp[j] += FDStep
		vm[j] -= FDStep
		ep := d.Eval(vp[0], vp[1], vp[2], vp[3])
		em := d.Eval(vm[0], vm[1], vm[2], vm[3])
		out.GId[j] = (ep.Id - em.Id) / (2 * FDStep)
		out.CQ[0][j] = (ep.Q.Qd - em.Q.Qd) / (2 * FDStep)
		out.CQ[1][j] = (ep.Q.Qg - em.Q.Qg) / (2 * FDStep)
		out.CQ[2][j] = (ep.Q.Qs - em.Q.Qs) / (2 * FDStep)
		out.CQ[3][j] = (ep.Q.Qb - em.Q.Qb) / (2 * FDStep)
	}
	out.GId[3] = -(out.GId[0] + out.GId[1] + out.GId[2])
	for k := 0; k < 4; k++ {
		out.CQ[k][3] = -(out.CQ[k][0] + out.CQ[k][1] + out.CQ[k][2])
	}
	return out
}

// Gm returns ∂Id/∂Vg at the given bias, routed through EvalDerivs so models
// with a native derivative path (vsmodel, bsim) use it; models without one
// fall back to the central-difference stencil.
func Gm(d Device, vd, vg, vs, vb float64) float64 {
	return EvalDerivs(d, vd, vg, vs, vb).GId[1]
}

// Gds returns ∂Id/∂Vd at the given bias (native when available).
func Gds(d Device, vd, vg, vs, vb float64) float64 {
	return EvalDerivs(d, vd, vg, vs, vb).GId[0]
}

// Cgg returns the total gate capacitance ∂Qg/∂Vg at the given bias, the
// quantity the paper uses as the C-V extraction target (Cgg@Vdd). Like Gm
// and Gds it prefers the model's native derivative bundle.
func Cgg(d Device, vd, vg, vs, vb float64) float64 {
	return EvalDerivs(d, vd, vg, vs, vb).CQ[1][1]
}
