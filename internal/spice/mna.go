package spice

import (
	"errors"
	"fmt"
	"math"

	"vstat/internal/linalg"
	"vstat/internal/obs"
)

// Newton solver tolerances.
const (
	tolV   = 1e-9  // V, max node-voltage update
	tolI   = 1e-10 // A, max KCL residual
	vLimit = 0.3   // V, per-iteration node update clamp

	// Fast-path tolerances: chord Newton converges linearly, so every
	// decade of tolerance costs roughly one residual pass per timestep.
	// 1 µV is the classic SPICE VNTOL default — error orders of magnitude
	// below any measured delay or noise margin (a 1 µV edge shift moves a
	// gate delay by femtoseconds at the benches' V/ns slew rates, and the
	// implicit integrator damps rather than accumulates it).
	tolVFast = 1e-6 // V
	tolIFast = 1e-7 // A
)

// ErrNoConvergence is returned when every convergence aid fails.
var ErrNoConvergence = errors.New("spice: Newton iteration failed to converge")

// tranState carries the charge/current history of the implicit integrator.
type tranState struct {
	h        float64      // current timestep
	trap     bool         // trapezoidal (else backward Euler)
	firstBE  bool         // force BE on the first step after (re)initialization
	qPrevMos [][4]float64 // per MOSFET terminal charges at t_n
	iPrevMos [][4]float64 // per MOSFET terminal charge-currents at t_n
	qPrevCap []float64    // per capacitor charge at t_n
	iPrevCap []float64    // per capacitor current at t_n
}

// assembleCtx selects the analysis terms for one Newton solve.
type assembleCtx struct {
	t         float64    // source evaluation time
	srcScale  float64    // source-stepping scale factor (1 = full)
	gminExtra float64    // gmin-stepping additional node-to-ground conductance
	ptG       float64    // pseudo-transient anchor conductance (0 = off)
	ptRef     []float64  // pseudo-transient anchor state (previous pseudo-step)
	tran      *tranState // nil for DC
	carry     bool       // allow reusing a Jacobian factored by a previous solve
	fast      bool       // cache device evaluations for the fast history update
}

// luKey identifies the analysis configuration a factored Jacobian belongs
// to; a carried factorization is only reused when the key matches exactly.
type luKey struct {
	h         float64
	trapPhase bool
	tran      bool
	gmin      float64
	pt        float64
	scale     float64
}

func ctxKey(ctx *assembleCtx) luKey {
	k := luKey{gmin: ctx.gminExtra, pt: ctx.ptG, scale: ctx.srcScale}
	if ctx.tran != nil {
		k.tran = true
		k.h = ctx.tran.h
		k.trapPhase = ctx.tran.trap && !ctx.tran.firstBE
	}
	return k
}

// SolverStats counts Newton work since the last ResetStats, for perf
// tracking (cmd/vsbench) and regression tests. The rescue counters below
// the first block record which rung of the convergence rescue ladder saved
// (or rejected) a solve; Monte Carlo drivers aggregate them into RunReports
// via RescueCounts.
type SolverStats struct {
	NewtonIters  int64 // linear solves (chord or full Newton iterations)
	JacRefreshes int64 // Jacobian factorizations made (see newton's refresh rule)
	TranSteps    int64 // accepted transient timesteps
	Rescues      int64 // timesteps that fell back to the BE sub-step ladder

	DCGminRescues    int64 // DC solves rescued by gmin stepping
	DCSourceRescues  int64 // DC solves rescued by source stepping
	DCPseudoRescues  int64 // DC solves rescued by the pseudo-transient ramp
	TranHalvings     int64 // timestep-halving rescue levels entered
	FastFallbacks    int64 // fast→exact fallbacks (carried chord Jacobian dropped)
	NonFiniteRejects int64 // NaN/Inf iterates, candidates, or histories rejected
	CycleAccepts     int64 // Newton 2-cycles at the residual floor accepted (see newton)

	// SparseRepivots counts sparse-core pivot-order re-analyses (zero pivot
	// or growth beyond spGrowthLimit under the frozen order). Excluded from
	// RescueCounts: whether a given sample trips the growth check depends on
	// which sample last re-analyzed this worker's pooled template, which is
	// scheduling-dependent.
	SparseRepivots int64

	// ModelEvals counts MOSFET compact-model evaluations (Eval and
	// EvalDerivs calls), the denominator for model-throughput metrics.
	// Incremented at the sites that invoke a model, not at the stamping
	// sites that consume a bundle.
	ModelEvals int64

	// BypassedEvals counts transient evaluations the device bypass served
	// instead of the model (bypass.go). Excluded from RescueCounts and Work,
	// like TranStepsReused.
	BypassedEvals int64

	// TranStepsReused counts transient timesteps restored from a TranRecord
	// instead of solved (see TranOpts.Record). Excluded from RescueCounts and
	// Work: it is solver work avoided, not work done.
	TranStepsReused int64
}

// RescueCounts returns the nonzero rescue-ladder counters keyed by stage
// name, the form montecarlo.RunReport aggregates across workers. Only
// counters whose per-sample increments depend solely on the sample (not on
// worker scheduling or template construction) are included, so the summed
// map is invariant under worker count.
func (s SolverStats) RescueCounts() map[string]int64 {
	out := make(map[string]int64, 8)
	add := func(k string, v int64) {
		if v != 0 {
			out[k] = v
		}
	}
	add(string(StageDCGmin), s.DCGminRescues)
	add(string(StageDCSource), s.DCSourceRescues)
	add(string(StageDCPseudo), s.DCPseudoRescues)
	add(string(StageTranHalve), s.TranHalvings)
	add("tran-substep", s.Rescues)
	add("fast-fallback", s.FastFallbacks)
	add("nonfinite-reject", s.NonFiniteRejects)
	add("newton-cycle", s.CycleAccepts)
	return out
}

// Work reduces the counter set to the two numbers the per-sample flight
// recorder ranks on: total Newton iterations and total rescue-ladder
// stages climbed (every counter RescueCounts exposes). Both are pure
// functions of the sample's physics, never of worker scheduling, so
// per-sample deltas of Work are deterministic at any worker count.
func (s SolverStats) Work() (iters, rescues int64) {
	return s.NewtonIters, s.DCGminRescues + s.DCSourceRescues + s.DCPseudoRescues +
		s.TranHalvings + s.Rescues + s.FastFallbacks + s.NonFiniteRejects + s.CycleAccepts
}

// Add returns the field-wise sum of two counter sets (benches spanning
// several circuits report one merged set).
func (s SolverStats) Add(o SolverStats) SolverStats {
	return SolverStats{
		NewtonIters:      s.NewtonIters + o.NewtonIters,
		JacRefreshes:     s.JacRefreshes + o.JacRefreshes,
		TranSteps:        s.TranSteps + o.TranSteps,
		Rescues:          s.Rescues + o.Rescues,
		DCGminRescues:    s.DCGminRescues + o.DCGminRescues,
		DCSourceRescues:  s.DCSourceRescues + o.DCSourceRescues,
		DCPseudoRescues:  s.DCPseudoRescues + o.DCPseudoRescues,
		TranHalvings:     s.TranHalvings + o.TranHalvings,
		FastFallbacks:    s.FastFallbacks + o.FastFallbacks,
		NonFiniteRejects: s.NonFiniteRejects + o.NonFiniteRejects,
		CycleAccepts:     s.CycleAccepts + o.CycleAccepts,
		SparseRepivots:   s.SparseRepivots + o.SparseRepivots,
		ModelEvals:       s.ModelEvals + o.ModelEvals,
		BypassedEvals:    s.BypassedEvals + o.BypassedEvals,
		TranStepsReused:  s.TranStepsReused + o.TranStepsReused,
	}
}

// Stats returns the accumulated solver counters.
func (c *Circuit) Stats() SolverStats { return c.stats }

// ResetStats zeroes the solver counters.
func (c *Circuit) ResetStats() { c.stats = SolverStats{} }

// assembleResidual is the residual pass: it fills F(x) (the sum of
// currents leaving each node, plus the source constraint rows) and makes
// every MOSFET's evaluation decision through mosEval. With full set, every
// MOSFET's bypass entry holds afterwards the bundle whose GId and CQ the
// Jacobian pass (stampSparse) stamps; without it the pass evaluates values
// only and writes no bundle, for chord-Newton iterations on a frozen
// Jacobian.
func (c *Circuit) assembleResidual(x, f []float64, ctx *assembleCtx, full bool) {
	for i := range f {
		f[i] = 0
	}
	nNodes := len(c.nodeNames)

	addF := func(node int, v float64) {
		if node != Gnd {
			f[node] += v
		}
	}

	// Global gmin to ground.
	g := c.Gmin + ctx.gminExtra
	for n := 0; n < nNodes; n++ {
		f[n] += g * x[n]
	}

	// Pseudo-transient anchor: a conductance from every node to the
	// previous pseudo-step's state, the backward-Euler companion of a
	// grounded pseudo-capacitance Cp with ptG = Cp/h. Large ptG keeps the
	// solve trivially well-conditioned near the anchor; the ramp in
	// pseudoTransient relaxes it toward the true operating point.
	if ctx.ptG > 0 {
		for n := 0; n < nNodes; n++ {
			f[n] += ctx.ptG * (x[n] - ctx.ptRef[n])
		}
	}

	// Resistors.
	for i := range c.rs {
		r := &c.rs[i]
		iv := r.g * (nv(x, r.a) - nv(x, r.b))
		addF(r.a, iv)
		addF(r.b, -iv)
	}

	// Voltage sources: branch current unknowns follow the node block.
	for i := range c.vs {
		v := &c.vs[i]
		br := nNodes + v.branch
		ib := x[br]
		addF(v.p, ib)
		addF(v.n, -ib)
		f[br] = nv(x, v.p) - nv(x, v.n) - ctx.srcScale*v.wave.At(ctx.t)
	}

	// Current sources.
	for i := range c.is {
		s := &c.is[i]
		iv := ctx.srcScale * s.wave.At(ctx.t)
		addF(s.p, iv)
		addF(s.n, -iv)
	}

	// Capacitors: open in DC, companion charge terms in transient.
	if ctx.tran != nil {
		ts := ctx.tran
		for i := range c.cs {
			cp := &c.cs[i]
			q := cp.c * (nv(x, cp.a) - nv(x, cp.b))
			var iq float64
			if ts.trap && !ts.firstBE {
				iq = 2*(q-ts.qPrevCap[i])/ts.h - ts.iPrevCap[i]
			} else {
				iq = (q - ts.qPrevCap[i]) / ts.h
			}
			addF(cp.a, iq)
			addF(cp.b, -iq)
		}
	}

	// MOSFETs: DC channel current always; terminal charge currents in
	// transient. The pass decides every evaluation (mosEval), evaluates
	// the ones it did not serve from the bypass cache (evalPending), then
	// sums them in device order. The evaluations stay in evCache, so the
	// converged step's history update (updateTranHistory) reuses the last
	// Newton evaluation instead of re-evaluating every device.
	if len(c.bypass) != len(c.mos) {
		c.clearBypass()
	}
	c.pend = c.pend[:0]
	for i := range c.mos {
		c.mosEval(i, x, ctx.tran != nil)
	}
	c.evalPending(full)
	for i := range c.mos {
		m := &c.mos[i]
		ev := &c.evCache[i]
		addF(m.d, ev.Id)
		addF(m.s, -ev.Id)
		if ctx.tran != nil {
			ts := ctx.tran
			term := [4]int{m.d, m.g, m.s, m.b}
			q := [4]float64{ev.Q.Qd, ev.Q.Qg, ev.Q.Qs, ev.Q.Qb}
			for k := 0; k < 4; k++ {
				var iq float64
				if ts.trap && !ts.firstBE {
					iq = 2*(q[k]-ts.qPrevMos[i][k])/ts.h - ts.iPrevMos[i][k]
				} else {
					iq = (q[k] - ts.qPrevMos[i][k]) / ts.h
				}
				addF(term[k], iq)
			}
		}
	}
}

// jacKey is everything a Jacobian pass reads besides the circuit's
// elements and the MOSFETs' bypass bundles: the analysis terms of luKey,
// the circuit's Gmin, and its generation gen, which moves with every new
// element or device card and every sparse pivot-order analysis.
type jacKey struct {
	luKey
	cktGmin float64
	gen     uint64
}

func (c *Circuit) jacKeyOf(ctx *assembleCtx) jacKey {
	return jacKey{luKey: ctxKey(ctx), cktGmin: c.Gmin, gen: c.gen}
}

// updateTranHistory advances the charge/current history after a converged
// timestep at solution x. Capacitor charges are linear in x and recomputed
// exactly. MOSFET terminal charges come from the evaluations cached by the
// last Newton assembly, which sit at the pre-final-update Newton state:
// that differs from the converged x by less than the solve's voltage
// tolerance per node, so the charge error is far below the current
// tolerance in both the exact and fast paths. Every caller runs immediately after a successful stepSolve on
// the same circuit state, which is what fills the cache.
func (c *Circuit) updateTranHistory(x []float64, ts *tranState) {
	for i := range c.cs {
		cp := &c.cs[i]
		q := cp.c * (nv(x, cp.a) - nv(x, cp.b))
		var iq float64
		if ts.trap && !ts.firstBE {
			iq = 2*(q-ts.qPrevCap[i])/ts.h - ts.iPrevCap[i]
		} else {
			iq = (q - ts.qPrevCap[i]) / ts.h
		}
		ts.qPrevCap[i] = q
		ts.iPrevCap[i] = iq
	}
	for i := range c.mos {
		e := &c.evCache[i]
		q := [4]float64{e.Q.Qd, e.Q.Qg, e.Q.Qs, e.Q.Qb}
		for k := 0; k < 4; k++ {
			var iq float64
			if ts.trap && !ts.firstBE {
				iq = 2*(q[k]-ts.qPrevMos[i][k])/ts.h - ts.iPrevMos[i][k]
			} else {
				iq = (q[k] - ts.qPrevMos[i][k]) / ts.h
			}
			ts.qPrevMos[i][k] = q[k]
			ts.iPrevMos[i][k] = iq
		}
	}
}

// saveTranHistory snapshots the integrator charge history into
// circuit-owned scratch (reused across steps, so the hot path stays
// allocation-free after warmup). restoreTranHistory rewinds to the
// snapshot; together they make a failed or NaN-rejected step retryable at a
// finer sub-step without corrupting the history the next sample inherits.
func (c *Circuit) saveTranHistory(ts *tranState) {
	if len(c.hsQMos) != len(ts.qPrevMos) {
		c.hsQMos = make([][4]float64, len(ts.qPrevMos))
		c.hsIMos = make([][4]float64, len(ts.iPrevMos))
	}
	copy(c.hsQMos, ts.qPrevMos)
	copy(c.hsIMos, ts.iPrevMos)
	if len(c.hsQCap) != len(ts.qPrevCap) {
		c.hsQCap = make([]float64, len(ts.qPrevCap))
		c.hsICap = make([]float64, len(ts.iPrevCap))
	}
	copy(c.hsQCap, ts.qPrevCap)
	copy(c.hsICap, ts.iPrevCap)
}

// restoreTranHistory rewinds the charge history to the last snapshot.
func (c *Circuit) restoreTranHistory(ts *tranState) {
	copy(ts.qPrevMos, c.hsQMos)
	copy(ts.iPrevMos, c.hsIMos)
	copy(ts.qPrevCap, c.hsQCap)
	copy(ts.iPrevCap, c.hsICap)
}

// tranHistoryFinite reports whether every charge-history entry is finite.
func (c *Circuit) tranHistoryFinite(ts *tranState) bool {
	for i := range ts.qPrevMos {
		for k := 0; k < 4; k++ {
			if !finite(ts.qPrevMos[i][k]) || !finite(ts.iPrevMos[i][k]) {
				return false
			}
		}
	}
	for i := range ts.qPrevCap {
		if !finite(ts.qPrevCap[i]) || !finite(ts.iPrevCap[i]) {
			return false
		}
	}
	return true
}

// initTranHistory seeds the charge history from the state x with zero
// charge currents. Existing history slices are reused when the element
// counts match, so pooled transients allocate nothing here.
func (c *Circuit) initTranHistory(x []float64, ts *tranState) {
	c.sizeTranHistory(ts)
	for i := range ts.iPrevCap {
		ts.iPrevCap[i] = 0
	}
	for i := range ts.iPrevMos {
		ts.iPrevMos[i] = [4]float64{}
	}
	for i := range c.cs {
		cp := &c.cs[i]
		ts.qPrevCap[i] = cp.c * (nv(x, cp.a) - nv(x, cp.b))
	}
	for i := range c.mos {
		m := &c.mos[i]
		e := m.dev.Eval(nv(x, m.d), nv(x, m.g), nv(x, m.s), nv(x, m.b))
		c.stats.ModelEvals++
		ts.qPrevMos[i] = [4]float64{e.Q.Qd, e.Q.Qg, e.Q.Qs, e.Q.Qb}
	}
}

// sizeTranHistory sizes the charge-history slices to the circuit's
// capacitor and MOSFET counts, reusing them when the counts match.
func (c *Circuit) sizeTranHistory(ts *tranState) {
	if len(ts.qPrevCap) != len(c.cs) {
		ts.qPrevCap = make([]float64, len(c.cs))
		ts.iPrevCap = make([]float64, len(c.cs))
	}
	if len(ts.qPrevMos) != len(c.mos) {
		ts.qPrevMos = make([][4]float64, len(c.mos))
		ts.iPrevMos = make([][4]float64, len(c.mos))
	}
}

// newton runs damped Newton iteration on the system selected by ctx,
// starting from and updating x in place. On failure it returns a typed
// *ConvergenceError carrying the iteration budget spent and the worst node
// with its residual; the caller tags it with the analysis stage and time.
// A NaN/Inf iterate aborts the iteration immediately (counted in
// NonFiniteRejects) instead of grinding through the iteration budget, and
// the poisoned update is rolled back so x stays finite for the next rescue
// rung.
//
// Newton also accepts an iterate that equals the iterate two iterations
// back bit for bit when both full-Newton residuals of the cycle lie within
// the current tolerance (counted in CycleAccepts). That is a 2-cycle at the
// residual's noise floor, such as a series solve that returns its current
// only to within its own tolerance: a node conductance of 3.3e-5 S turns
// 1e-13 A of noise into a 3 nV update, above tolV, forever. A deterministic
// iteration that has returned to a point repeats the cycle, so the accept
// changes no solve that converges without it.
//
// An iteration stamps and factors its Jacobian only when the held
// factorization is stale, within a solve and across solves alike
// (see the refresh policy below and DESIGN.md §6): the arithmetic is that
// of refactoring every iteration, and only JacRefreshes drops.
//
// When ctx.carry is set and the circuit holds a valid factorization from a
// previous solve with the same luKey, the iteration starts as chord Newton
// on that carried factorization; the stall detector refreshes the Jacobian
// as soon as the frozen factors stop contracting, so correctness never
// depends on the carried factors being fresh (convergence is always judged
// on the true residual).
func (c *Circuit) newton(x []float64, ctx *assembleCtx) *ConvergenceError {
	n := c.unknowns()
	// Newton scratch buffers live on the circuit (one goroutine per
	// circuit), so transient loops do not re-allocate per step.
	if len(c.nwF) != n {
		c.nwF = make([]float64, n)
		c.nwScratch = make([]float64, n)
		c.nwBack = make([]float64, n)
		c.spReady = false
		c.luValid = false
	}
	if !c.spReady {
		c.buildStampMap()
	}

	maxIter := c.MaxNewton
	if maxIter <= 0 {
		maxIter = 150
	}
	f, scratch, back := c.nwF, c.nwScratch, c.nwBack
	key := ctxKey(ctx)
	tv, ti := tolV, tolI
	if ctx.fast {
		tv, ti = tolVFast, tolIFast
	}
	nNodes := len(c.nodeNames)
	var lu *linalg.SparseLU
	prevDv := math.Inf(1)
	forceJ := true
	if ctx.carry && c.luValid && c.luKey == key {
		// Start as chord Newton on the carried factorization: prevDv below
		// the refresh threshold, no forced refresh. The first update that
		// moves any node by more than 50 mV triggers a refresh.
		lu = c.spLU
		prevDv = 0.1
		forceJ = false
	}
	c.luValid = false
	var lastDv, lastF float64
	lastWorst := -1
	// backFloor: back holds the previous iterate, whose full-Newton
	// residual lay within ti.
	backFloor := false
	for iter := 0; iter < maxIter; iter++ {
		// Lifecycle check at the iteration boundary: every analysis (DC
		// rungs, transient steps, sub-step rescue pieces) funnels through
		// here, so one check site covers them all. Nil on the hot path,
		// allocation-free while the sample stays within budget.
		if lcErr := c.checkLifecycle(); lcErr != nil {
			return &ConvergenceError{Iters: iter, Residual: lastF, DeltaV: lastDv, Err: lcErr}
		}
		// Refresh policy. The VS model's native derivative bundle falls out
		// of the series solve, so a full evaluation costs the same device
		// work as a values-only one: exact mode runs full Newton, every
		// update solved with the Jacobian of its own iteration's bundles
		// (quadratic convergence). Fast mode keeps chord Newton — there the
		// carried factorization skips the full evaluations as well, and the
		// stall detector refreshes whenever contraction slows.
		//
		// The residual pass runs every iteration. The Jacobian pass and the
		// factorization run only when the held factorization is stale: a
		// bundle was written since it was made (spCurrent), or the key
		// moved. Otherwise they would reproduce the held values and factors
		// bit for bit, which is what a device bypass that serves every
		// MOSFET leaves.
		//
		// The with-Jacobian assembly is the "assemble-J" observability
		// phase and the factorization "lu-factor", both carved out of
		// newton-solve, and the device evaluations of any assembly are
		// "device-eval" (evalPending), so the device-model and
		// linear-algebra costs are separately visible.
		wantJ := !ctx.fast || lu == nil || forceJ || prevDv > 0.2
		var (
			refresh bool
			jk      jacKey
		)
		if wantJ {
			c.obsScope.Enter(obs.PhaseAssemble)
			c.assembleResidual(x, f, ctx, true)
			jk = c.jacKeyOf(ctx)
			if refresh = !c.spCurrent || c.spKey != jk; refresh {
				c.spCurrent = false // the pass overwrites the held values
				c.stampSparse(jk)
			}
			c.obsScope.Exit()
		} else {
			c.assembleResidual(x, f, ctx, false)
		}
		// Reject NaN/Inf residuals before they reach the linear solve: a
		// single non-finite model evaluation would otherwise smear NaN over
		// the whole update vector and burn the full iteration budget (NaN
		// compares false against every tolerance).
		if i := firstNonFinite(f); i >= 0 {
			c.stats.NonFiniteRejects++
			c.traceNonFinite("newton-residual", ctx.t)
			return &ConvergenceError{Iters: iter + 1, Node: c.unknownName(i),
				Residual: f[i], Err: ErrNonFiniteSolution}
		}
		if refresh {
			c.obsScope.Enter(obs.PhaseFactor)
			err := c.factorSparse()
			c.spCurrent, c.spKey = err == nil, jk
			lu = c.spLU
			c.obsScope.Exit()
			if err != nil {
				return &ConvergenceError{Iters: iter + 1,
					Err: fmt.Errorf("singular Jacobian: %w", err)}
			}
			c.stats.JacRefreshes++
		} else if wantJ {
			lu = c.spLU
		}
		c.stats.NewtonIters++
		c.obsScope.Enter(obs.PhaseTriSolve)
		dx := lu.SolvePermuting(f, scratch)
		c.obsScope.Exit()
		// A finite residual through a near-singular factorization can still
		// produce Inf/NaN updates; reject them before touching x.
		if i := firstNonFinite(dx); i >= 0 {
			c.stats.NonFiniteRejects++
			c.traceNonFinite("newton-update", ctx.t)
			return &ConvergenceError{Iters: iter + 1, Node: c.unknownName(i),
				Residual: lastF, Err: ErrNonFiniteSolution}
		}

		// Voltage limiting on node entries.
		maxDv := 0.0
		for i := 0; i < nNodes; i++ {
			if dx[i] > vLimit {
				dx[i] = vLimit
			} else if dx[i] < -vLimit {
				dx[i] = -vLimit
			}
			if a := math.Abs(dx[i]); a > maxDv {
				maxDv = a
			}
		}

		maxF := 0.0
		worst := -1
		for i := 0; i < nNodes; i++ {
			if a := math.Abs(f[i]); a > maxF {
				maxF = a
				worst = i
			}
		}
		floor := wantJ && maxF < ti
		cycle := floor && backFloor
		for i := range x {
			xi := x[i] - dx[i]
			cycle = cycle && math.Float64bits(xi) == math.Float64bits(back[i])
			back[i] = x[i]
			x[i] = xi
		}
		backFloor = floor
		lastDv, lastF, lastWorst = maxDv, maxF, worst
		if cycle {
			c.stats.CycleAccepts++
		}
		if cycle || maxDv < tv && maxF < ti {
			c.luValid = true
			c.luKey = key
			return nil
		}
		// A stale Jacobian must still contract; refresh when it stalls.
		forceJ = !wantJ && maxDv > 0.5*prevDv
		if !wantJ && !forceJ && maxDv > tv {
			// Chord contraction is linear, so the remaining iteration count
			// is predictable from the observed ratio. Refresh unless the
			// frozen factors will finish within a few more passes — this
			// catches switching edges on their first slow iteration instead
			// of grinding toward tolerance at ratio ~0.4.
			rho := maxDv / prevDv
			if rho > 0.04 && math.Log(tv/maxDv) < 3*math.Log(rho) {
				forceJ = true
			}
		}
		prevDv = maxDv
	}
	cerr := &ConvergenceError{Iters: maxIter, Residual: lastF, DeltaV: lastDv, Err: ErrNoConvergence}
	if lastWorst >= 0 {
		cerr.Node = c.unknownName(lastWorst)
	}
	return cerr
}
