package spice

import (
	"math"

	"vstat/internal/device"
	"vstat/internal/obs"
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

// clearBypass sizes the bypass cache and the evaluation step's scratch to
// the circuit's MOSFETs and empties every entry.
func (c *Circuit) clearBypass() {
	if len(c.bypass) != len(c.mos) {
		c.bypass = make([]bypassEntry, len(c.mos))
		c.evCache = make([]device.Eval, len(c.mos))
		c.pend = make([]pending, 0, len(c.mos))
	}
	for i := range c.bypass {
		c.bypass[i].v = emptyPoint
	}
}

// pending is a MOSFET that the evaluation step evaluates: its index and
// terminal voltages.
type pending struct {
	i int
	v [4]float64
}

// mosEval is the one decision point for every MOSFET evaluation an
// assembly makes: MOSFET i's evaluation at x. A transient assembly (tran
// set) serves a device within bypassTol of its entry's point from the
// entry, moved to first order. Any other assembly serves it only when all
// four terminal voltages equal the point bit for bit, and then serves the
// entry's evaluation unchanged: adding zero first-order terms could flip
// the sign of a zero, and a model is a pure function, so an exact hit
// equals a fresh evaluation. A served evaluation goes to evCache[i] and
// counts in BypassedEvals. Otherwise the device joins c.pend, which
// evalPending then evaluates, and counts in ModelEvals. Deciding never
// reads another device's evaluation, so all decisions can precede the
// evaluations.
func (c *Circuit) mosEval(i int, x []float64, tran bool) {
	m, e := &c.mos[i], &c.bypass[i]
	v := [4]float64{nv(x, m.d), nv(x, m.g), nv(x, m.s), nv(x, m.b)}
	if tran {
		if ev, ok := e.extrapolate(&v); ok {
			c.stats.BypassedEvals++
			c.evCache[i] = ev
			return
		}
	} else if e.at(&v) {
		c.stats.BypassedEvals++
		c.evCache[i] = e.dv.Eval
		return
	}
	c.stats.ModelEvals++
	c.pend = append(c.pend, pending{i, v})
}

// evalPending is the evaluation step: it evaluates every MOSFET in c.pend
// into evCache. Its callers empty c.pend before they queue, so a device
// panic that leaves the list half evaluated cannot replay stale
// evaluations into the next assembly. A full evaluation (full set) writes
// its bundle to the device's entry in place and makes it the new point;
// values-only (chord) assemblies never write the cache. Either way, with
// full set each entry holds afterwards the bundle whose GId and CQ the
// Jacobian pass stamps, and a written bundle leaves no factorization
// current. Full evaluations of devices with a grouped path
// (device.LaneDerivs) go to it in runs of up to device.LaneWidth, in
// c.pend's order; a lone one takes the same call with one lane. The step
// is the device-eval phase.
func (c *Circuit) evalPending(full bool) {
	pend := c.pend
	if len(pend) == 0 {
		return
	}
	c.obsScope.Enter(obs.PhaseDeviceEval)
	if !full {
		for _, p := range pend {
			c.evCache[p.i] = c.mos[p.i].dev.Eval(p.v[0], p.v[1], p.v[2], p.v[3])
		}
	} else {
		c.spCurrent = false
		for k, n := 0, 0; k < len(pend); k += n {
			p := &pend[k]
			if m := &c.mos[p.i]; m.lanes != nil {
				n = c.evalLanes(pend[k:])
			} else {
				c.bypass[p.i].dv = device.EvalDerivs(m.dev, p.v[0], p.v[1], p.v[2], p.v[3])
				n = 1
			}
			for j := k; j < k+n; j++ {
				c.store(pend[j].i, &pend[j].v)
			}
		}
	}
	c.obsScope.Exit()
}

// evalLanes evaluates the leading run of pend whose devices have a grouped
// path, up to device.LaneWidth of them, in one EvalDerivsLanes call that
// writes each bundle into its device's entry. It returns the run's length.
// A run never mixes device types, which EvalDerivsLanes requires, because
// vsmodel.Instance is the one type with a grouped path.
func (c *Circuit) evalLanes(pend []pending) int {
	n := 0
	for ; n < len(pend) && n < device.LaneWidth; n++ {
		p := &pend[n]
		lm := c.mos[p.i].lanes
		if lm == nil {
			break
		}
		c.lanes[n] = device.Lane{Dev: lm, V: p.v, Out: &c.bypass[p.i].dv}
	}
	c.lanes[0].Dev.EvalDerivsLanes(c.lanes[:n])
	return n
}

// store makes v the point of MOSFET i's freshly written bundle (see
// bypassEntry.keep) and serves its evaluation to evCache.
func (c *Circuit) store(i int, v *[4]float64) {
	e := &c.bypass[i]
	e.keep(v)
	c.evCache[i] = e.dv.Eval
}
