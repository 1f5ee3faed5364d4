package spice

import (
	"math"

	"vstat/internal/device"
)

// Device bypass (SPICE3's BYPASS; DESIGN.md §6): an assembly reuses a
// MOSFET's last full evaluation while no terminal has moved from that
// evaluation's point by more than its window. A transient assembly moves the
// evaluation to first order along its own GId and CQ within bypassTol; a DC
// assembly reuses it unchanged, and only at the same point bit for bit. The
// cache lives here so models stay pure.

// bypassTol is ten Newton voltage tolerances: the largest δ of a 1 nV–10 µV
// sweep that left INV delays and DFF setup times bit-identical.
const bypassTol = 10 * tolV

// bypassEntry is one MOSFET's last full evaluation: the terminal
// voltages it was made at (all NaN when the entry is empty) and its bundle.
type bypassEntry struct {
	v  [4]float64
	dv device.Derivs
}

// emptyPoint marks an empty entry: NaN fails every bypassTol comparison.
var emptyPoint = [4]float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}

// extrapolate returns the entry's evaluation moved to first order from its
// point to v, and whether every terminal of v lies within bypassTol of the
// point (never for an empty entry).
func (e *bypassEntry) extrapolate(v *[4]float64) (device.Eval, bool) {
	var d [4]float64
	for j := range d {
		d[j] = v[j] - e.v[j]
		if !(math.Abs(d[j]) <= bypassTol) {
			return device.Eval{}, false
		}
	}
	dv := &e.dv
	g, cq := &dv.GId, &dv.CQ
	return device.Eval{
		Id: dv.Id + g[0]*d[0] + g[1]*d[1] + g[2]*d[2] + g[3]*d[3],
		Q: device.Charges{
			Qd: dv.Q.Qd + cq[0][0]*d[0] + cq[0][1]*d[1] + cq[0][2]*d[2] + cq[0][3]*d[3],
			Qg: dv.Q.Qg + cq[1][0]*d[0] + cq[1][1]*d[1] + cq[1][2]*d[2] + cq[1][3]*d[3],
			Qs: dv.Q.Qs + cq[2][0]*d[0] + cq[2][1]*d[1] + cq[2][2]*d[2] + cq[2][3]*d[3],
			Qb: dv.Q.Qb + cq[3][0]*d[0] + cq[3][1]*d[1] + cq[3][2]*d[2] + cq[3][3]*d[3],
		},
	}, true
}

// at reports whether v equals the entry's point bit for bit (never for an
// empty entry: NaN equals nothing).
func (e *bypassEntry) at(v *[4]float64) bool {
	for j, p := range e.v {
		if v[j] != p || math.Signbit(v[j]) != math.Signbit(p) {
			return false
		}
	}
	return true
}

// keep makes v the point of the bundle just written to e.dv when all 25 of
// its numbers are finite and empties the entry otherwise, so a NaN never
// outlives the evaluation that produced it. One sum catches any NaN or
// Inf; finite entries overflow it only beyond 1e306, which merely empties
// the entry.
func (e *bypassEntry) keep(v *[4]float64) {
	dv := &e.dv
	s := dv.Id + dv.Q.Qd + dv.Q.Qg + dv.Q.Qs + dv.Q.Qb
	for j := 0; j < 4; j++ {
		s += dv.GId[j] + dv.CQ[j][0] + dv.CQ[j][1] + dv.CQ[j][2] + dv.CQ[j][3]
	}
	if s-s == 0 {
		e.v = *v
	} else {
		e.v = emptyPoint
	}
}

// clearBypass sizes the bypass cache to the circuit's MOSFETs and empties
// every entry.
func (c *Circuit) clearBypass() {
	if len(c.bypass) != len(c.mos) {
		c.bypass = make([]bypassEntry, len(c.mos))
	}
	for i := range c.bypass {
		c.bypass[i].v = emptyPoint
	}
}

// mosEval is the one decision point for every MOSFET evaluation an
// assembly makes: MOSFET i's evaluation at x. A transient assembly (tran
// set) serves a device within bypassTol of its entry's point from the
// entry, moved to first order. Any other assembly serves it only when all
// four terminal voltages equal the point bit for bit, and then returns the
// entry's evaluation unchanged: adding zero first-order terms could flip
// the sign of a zero, and a model is a pure function, so an exact hit
// equals a fresh evaluation. Served evaluations count in BypassedEvals.
// Otherwise the model is called. A full evaluation (full set) writes its
// bundle to the entry and makes it the new point; values-only (chord)
// assemblies read the cache but never write it. Either way, with full set
// the entry holds afterwards the bundle whose GId and CQ the Jacobian pass
// stamps, and a written bundle leaves no factorization current.
func (c *Circuit) mosEval(i int, x []float64, full, tran bool) device.Eval {
	if len(c.bypass) != len(c.mos) {
		c.clearBypass()
	}
	m, e := &c.mos[i], &c.bypass[i]
	v := [4]float64{nv(x, m.d), nv(x, m.g), nv(x, m.s), nv(x, m.b)}
	if tran {
		if ev, ok := e.extrapolate(&v); ok {
			c.stats.BypassedEvals++
			return ev
		}
	} else if e.at(&v) {
		c.stats.BypassedEvals++
		return e.dv.Eval
	}
	c.stats.ModelEvals++
	if !full {
		return m.dev.Eval(v[0], v[1], v[2], v[3])
	}
	e.dv = device.EvalDerivs(m.dev, v[0], v[1], v[2], v[3])
	e.keep(&v)
	c.spCurrent = false
	return e.dv.Eval
}
