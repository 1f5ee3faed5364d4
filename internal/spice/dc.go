package spice

import (
	"fmt"

	"vstat/internal/lifecycle"
	"vstat/internal/obs"
)

// OPResult is a converged DC operating point.
type OPResult struct {
	c *Circuit
	x []float64
}

// V returns the voltage of a node index (0 for ground).
func (r *OPResult) V(node int) float64 { return nv(r.x, node) }

// VName returns the voltage of a named node.
func (r *OPResult) VName(name string) float64 {
	idx, ok := r.c.nodeIdx[name]
	if !ok {
		panic(fmt.Sprintf("spice: unknown node %q", name))
	}
	return nv(r.x, idx)
}

// SourceI returns the branch current of a voltage source (by index from
// AddV): positive current flows from the + terminal through the source to
// the − terminal, i.e. a supply delivering power has negative SourceI.
func (r *OPResult) SourceI(src int) float64 {
	return r.x[len(r.c.nodeNames)+src]
}

// Raw returns the raw unknown vector (nodes then branch currents).
func (r *OPResult) Raw() []float64 { return r.x }

// OP computes the DC operating point at t=0. It first attempts plain Newton
// from the zero state, then the rescue ladder (see solveOPInto).
func (c *Circuit) OP() (*OPResult, error) {
	c.obsScope.Enter(obs.PhaseSolve)
	defer c.obsScope.Exit()
	x := make([]float64, c.unknowns())
	if err := c.solveOPInto(x, nil, false); err != nil {
		return nil, err
	}
	return &OPResult{c: c, x: x}, nil
}

// solveOPInto computes the DC operating point into x without allocating:
// plain Newton from the guess (or zero) state, then the bounded rescue
// ladder — gmin stepping, source stepping, pseudo-transient ramp. Each
// successful rung is counted in SolverStats so Monte Carlo run reports can
// attribute rescues per ladder stage; when every rung fails, the returned
// error is the last rung's typed *ConvergenceError. guess must not alias x.
// When carry is set, plain Newton runs in the fast-MC configuration: it may
// start from a Jacobian factorization carried over from a previous solve
// and uses the relaxed fast-path tolerances (see newton).
func (c *Circuit) solveOPInto(x, guess []float64, carry bool) error {
	n := c.unknowns()
	reset := func() {
		for i := range x {
			x[i] = 0
		}
		if guess != nil && len(guess) == n {
			copy(x, guess)
		}
	}
	reset()

	// 1. Plain Newton. The failure is kept as the trace cause: each rescued
	// rung reports the worst node that made plain Newton give up.
	ctx := assembleCtx{srcScale: 1, carry: carry, fast: carry}
	first := c.newton(x, &ctx)
	if first == nil {
		return nil
	}
	// An interrupted solve (context cancelled, budget exhausted) must not
	// climb the ladder: every further rung burns exactly the resource the
	// error protects. Same check after each rung below.
	if lifecycle.Interrupted(first) {
		return first.at(StageDCNewton, 0)
	}

	// 2. Gmin stepping. Each rung runs inside a trace span so the flight
	// recorder shows which rescue a pathological sample spent its time in
	// (free without a tracer: SpanBegin/SpanEnd are a nil check each).
	reset()
	c.obsScope.SpanBegin("rescue:" + string(StageDCGmin))
	cerr := c.gminStepInto(x)
	c.obsScope.SpanEnd()
	if cerr == nil {
		c.stats.DCGminRescues++
		c.traceRescue(StageDCGmin, 0, first)
		return nil
	}
	if lifecycle.Interrupted(cerr) {
		return cerr
	}

	// 3. Source stepping always ramps from the zero state.
	for i := range x {
		x[i] = 0
	}
	c.obsScope.SpanBegin("rescue:" + string(StageDCSource))
	cerr = c.sourceStepInto(x)
	c.obsScope.SpanEnd()
	if cerr == nil {
		c.stats.DCSourceRescues++
		c.traceRescue(StageDCSource, 0, first)
		return nil
	}
	if lifecycle.Interrupted(cerr) {
		return cerr
	}

	// 4. Pseudo-transient ramp.
	reset()
	c.obsScope.SpanBegin("rescue:" + string(StageDCPseudo))
	cerr = c.pseudoTransientInto(x)
	c.obsScope.SpanEnd()
	if cerr == nil {
		c.stats.DCPseudoRescues++
		c.traceRescue(StageDCPseudo, 0, first)
		return nil
	}
	return cerr
}

// gminStepInto solves with a large artificial conductance to ground and
// relaxes it, warm-starting each stage.
func (c *Circuit) gminStepInto(x []float64) *ConvergenceError {
	for _, gm := range []float64{1e-3, 1e-5, 1e-7, 1e-9, 0} {
		ctx := assembleCtx{srcScale: 1, gminExtra: gm}
		if cerr := c.newton(x, &ctx); cerr != nil {
			return cerr.at(StageDCGmin, 0)
		}
	}
	return nil
}

// sourceStepInto ramps all sources from 10% to 100%, warm-starting each λ.
func (c *Circuit) sourceStepInto(x []float64) *ConvergenceError {
	for _, lam := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1} {
		ctx := assembleCtx{srcScale: lam, gminExtra: 1e-9}
		if cerr := c.newton(x, &ctx); cerr != nil {
			cerr.Err = fmt.Errorf("at λ=%g: %w", lam, cerr.Err)
			return cerr.at(StageDCSource, 0)
		}
	}
	ctx := assembleCtx{srcScale: 1}
	return c.newton(x, &ctx).at(StageDCSource, 0)
}

// pseudoTransientInto is the last DC rescue rung: backward-Euler
// pseudo-transient continuation. Each sub-solve anchors every node to the
// previous pseudo-state through a conductance g (the companion of a
// grounded pseudo-capacitance Cp with g = Cp/h); a large g makes the solve
// nearly trivial, and each accepted pseudo-step relaxes g geometrically so
// the anchor walks toward the true operating point. A failed sub-solve
// tightens the anchor and retries within a bounded budget — which also
// rides out transiently ill-behaved model evaluations — and the rung only
// succeeds on a final anchor-free solve.
func (c *Circuit) pseudoTransientInto(x []float64) *ConvergenceError {
	n := c.unknowns()
	if len(c.ptRef) != n {
		c.ptRef = make([]float64, n)
		c.ptSave = make([]float64, n)
	}
	copy(c.ptRef, x)
	const (
		gStart = 1.0   // initial anchor conductance, S
		gCeil  = 1e6   // tightest anchor tried after failures
		gFloor = 1e-12 // at/below this the anchor is dropped (exact solve)
		budget = 60    // total sub-solves allowed
	)
	g := gStart
	var last *ConvergenceError
	for tries := 0; tries < budget; tries++ {
		ctx := assembleCtx{srcScale: 1, ptG: g, ptRef: c.ptRef}
		if g <= gFloor {
			ctx.ptG = 0
		}
		copy(c.ptSave, x)
		cerr := c.newton(x, &ctx)
		if cerr != nil {
			if lifecycle.Interrupted(cerr) {
				return cerr.at(StageDCPseudo, 0)
			}
			last = cerr
			copy(x, c.ptSave) // restart this pseudo-step from the anchor
			if g = g * 16; g > gCeil {
				g = gCeil
			}
			continue
		}
		if ctx.ptG == 0 {
			return nil // anchor-free solve converged: true operating point
		}
		copy(c.ptRef, x) // accept the pseudo-step, advance the anchor
		g /= 4
	}
	if last == nil {
		last = &ConvergenceError{Err: ErrNoConvergence}
	}
	last.Err = fmt.Errorf("pseudo-transient budget exhausted: %w", last.Err)
	return last.at(StageDCPseudo, 0)
}

// DCSweep solves the operating point for each value assigned to the voltage
// source src (index from AddV), warm-starting each point from the ones
// before it (see sweep). The source's waveform is restored afterwards.
func (c *Circuit) DCSweep(src int, values []float64) ([]*OPResult, error) {
	out := make([]*OPResult, 0, len(values))
	err := c.sweep(src, values, false, func(_ int, x []float64) {
		out = append(out, &OPResult{c: c, x: append([]float64(nil), x...)})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DCSweepObserve is the allocation-free DC sweep: it records the voltage
// of node observe at each point into out (which must have len(values)
// entries). carry enables the carried-Jacobian fast path between sweep
// points; without it the points are DCSweep's, bit for bit. The source's
// waveform is restored afterwards.
func (c *Circuit) DCSweepObserve(src int, values []float64, observe int, out []float64, carry bool) error {
	if len(out) < len(values) {
		return fmt.Errorf("spice: DCSweepObserve out has %d entries for %d values", len(out), len(values))
	}
	return c.sweep(src, values, carry, func(k int, x []float64) { out[k] = nv(x, observe) })
}

// level is a DC waveform whose value a sweep moves in place, so setting a
// swept level boxes no float.
type level struct{ v float64 }

// At returns the current level.
func (l *level) At(float64) float64 { return l.v }

// sweep is the one DC sweep loop. It points source src at the circuit's
// sweep level and solves the operating point at each value into
// circuit-owned scratch, handing each solution to visit. Point 0 starts
// from the zero state and point 1 from point 0. From point 2 on, Newton
// starts from the linear extrapolation of the two points before, scaled by
// the actual source steps: the DC form of the exact transient predictor. A
// repeated value on either step starts from the previous point instead,
// and so does every point of a carry (fast-path) sweep: from an
// extrapolated start the chord iteration refreshes its carried factors
// less often and took 1004 instead of 832 Newton iterations per SRAM
// sample.
func (c *Circuit) sweep(src int, values []float64, carry bool, visit func(k int, x []float64)) error {
	saved := c.vs[src].wave
	defer func() { c.vs[src].wave = saved }()
	c.vs[src].wave = &c.swLevel

	c.obsScope.Enter(obs.PhaseSolve)
	defer c.obsScope.Exit()

	n := c.unknowns()
	if len(c.swX) != n {
		c.swX = make([]float64, n)
		c.swPrev = make([]float64, n)
		c.swPrev2 = make([]float64, n)
		c.swGuess = make([]float64, n)
	}
	x, x1, x2 := c.swX, c.swPrev, c.swPrev2
	for k, v := range values {
		c.swLevel.v = v
		var guess []float64 // nil: the zero state
		switch {
		case k == 0:
		case k == 1 || carry || values[k-1] == values[k-2] || v == values[k-1]:
			guess = x1
		default:
			guess = c.swGuess
			r := (v - values[k-1]) / (values[k-1] - values[k-2])
			for i := range guess {
				guess[i] = x1[i] + r*(x1[i]-x2[i])
			}
		}
		if err := c.solveOPInto(x, guess, carry); err != nil {
			return fmt.Errorf("spice: DC sweep failed at %g V: %w", v, err)
		}
		copy(x2, x1)
		copy(x1, x)
		visit(k, x)
	}
	return nil
}
