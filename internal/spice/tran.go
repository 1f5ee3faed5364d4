package spice

import (
	"fmt"
	"math"
	"sort"

	"vstat/internal/lifecycle"
	"vstat/internal/obs"
)

// TranOpts configures a transient analysis.
type TranOpts struct {
	Stop float64 // end time, s
	Step float64 // fixed timestep, s

	// Trap selects trapezoidal integration; default is backward Euler.
	// The first step after initialization is always BE.
	Trap bool

	// UIC skips the initial DC operating point and starts from the node
	// voltages in IC (unset nodes start at 0), like SPICE's .tran UIC.
	UIC bool
	IC  map[int]float64 // initial node voltages (used when UIC)

	// Guess warm-starts the initial DC operating point (ignored with UIC).
	// Pooled Monte Carlo passes the nominal operating point here: the
	// statistical perturbations are small, so Newton converges in a few
	// iterations instead of walking in from zero.
	Guess []float64

	// Fast enables the pooled-MC fast path: the Jacobian factorization is
	// carried across timesteps (and refreshed only when the chord iteration
	// stops contracting fast enough), the predictor extrapolates
	// quadratically, and the Newton tolerances relax to the fast-path pair
	// (1 µV / 0.1 µA — the classic SPICE VNTOL class). Convergence is
	// still judged on the true residual each step, so accuracy is bounded
	// by those tolerances; waveforms differ from the exact path at the
	// tolerance floor (~1 µV). Both paths reuse the device evaluations
	// cached by the last Newton assembly for the charge-history update.
	// Leave unset for the tight-tolerance classic path.
	Fast bool

	// Record, when non-nil, lets this transient resume from the steps it
	// shares with the last transient recorded into it, and records this
	// transient's steps for the next one (see TranRecord). In exact mode the
	// waveforms are bit-identical to a run without a record. A resumed fast
	// transient refactors its first Jacobian instead of carrying one, so its
	// waveforms may move at the fast-path tolerance floor.
	Record *TranRecord
}

// TranResult holds the sampled waveforms of a transient run. A TranResult
// can be reused across runs via TransientInto, which rewinds it and refills
// the existing storage without re-allocating.
type TranResult struct {
	c    *Circuit
	Time []float64
	// xs[k] is the full unknown vector at Time[k].
	xs [][]float64
}

// reset rewinds the result for reuse, keeping the backing storage.
func (r *TranResult) reset(c *Circuit, capHint int) {
	r.c = c
	if cap(r.Time) < capHint {
		r.Time = make([]float64, 0, capHint)
	} else {
		r.Time = r.Time[:0]
	}
	if cap(r.xs) < capHint {
		r.xs = make([][]float64, 0, capHint)
	} else {
		r.xs = r.xs[:0]
	}
}

// snap appends a copy of x at time t, reusing a row retained from a
// previous run when one is available.
func (r *TranResult) snap(t float64, x []float64) {
	r.Time = append(r.Time, t)
	k := len(r.xs)
	if k < cap(r.xs) {
		r.xs = r.xs[:k+1]
		if len(r.xs[k]) != len(x) {
			r.xs[k] = make([]float64, len(x))
		}
	} else {
		r.xs = append(r.xs, make([]float64, len(x)))
	}
	copy(r.xs[k], x)
}

// V returns the waveform of a node index.
func (r *TranResult) V(node int) []float64 {
	out := make([]float64, len(r.Time))
	for k, x := range r.xs {
		out[k] = nv(x, node)
	}
	return out
}

// VName returns the waveform of a named node.
func (r *TranResult) VName(name string) []float64 {
	idx, ok := r.c.nodeIdx[name]
	if !ok {
		panic(fmt.Sprintf("spice: unknown node %q", name))
	}
	return r.V(idx)
}

// SourceI returns the branch-current waveform of a voltage source index.
func (r *TranResult) SourceI(src int) []float64 {
	out := make([]float64, len(r.Time))
	off := len(r.c.nodeNames) + src
	for k, x := range r.xs {
		out[k] = x[off]
	}
	return out
}

// At returns the interpolated node voltage at time t, between the
// bracketing steps found by binary search.
func (r *TranResult) At(node int, t float64) float64 {
	n := len(r.Time)
	if n == 0 {
		return math.NaN()
	}
	if t <= r.Time[0] {
		return nv(r.xs[0], node)
	}
	if t >= r.Time[n-1] {
		return nv(r.xs[n-1], node)
	}
	k := sort.SearchFloat64s(r.Time, t)
	if k > 0 {
		k--
	}
	if k >= n-1 {
		k = n - 2
	}
	f := (t - r.Time[k]) / (r.Time[k+1] - r.Time[k])
	v0, v1 := nv(r.xs[k], node), nv(r.xs[k+1], node)
	return v0 + f*(v1-v0)
}

// Transient runs a fixed-step implicit transient analysis.
func (c *Circuit) Transient(opts TranOpts) (*TranResult, error) {
	res := &TranResult{}
	if err := c.TransientInto(opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// TransientInto runs a fixed-step implicit transient analysis into res,
// reusing the circuit's step scratch, integrator history, and the result's
// waveform storage. Back-to-back runs on the same circuit (the pooled Monte
// Carlo hot path) allocate nothing after the first. The run takes
// ⌈Stop/Step⌉ steps, so a Stop that is a multiple of Step ends on it.
func (c *Circuit) TransientInto(opts TranOpts, res *TranResult) error {
	if opts.Stop <= 0 || opts.Step <= 0 {
		return fmt.Errorf("spice: invalid transient window stop=%g step=%g", opts.Stop, opts.Step)
	}
	// The whole transient (initial OP, stepping, history updates, waveform
	// snaps) is newton-solve phase time; Jacobian factorizations inside
	// newton carve their self-time out into the factor phase.
	c.obsScope.Enter(obs.PhaseSolve)
	defer c.obsScope.Exit()
	n := c.unknowns()
	if len(c.trX) != n {
		c.trX = make([]float64, n)
		c.trPrev = make([]float64, n)
		c.trPrev2 = make([]float64, n)
		c.trPred = make([]float64, n)
	}
	x, xPrev, xPrev2, pred := c.trX, c.trPrev, c.trPrev2, c.trPred
	for i := range x {
		x[i] = 0
	}

	if opts.UIC {
		for node, v := range opts.IC {
			if node != Gnd {
				x[node] = v
			}
		}
	} else {
		if err := c.solveOPInto(x, opts.Guess, opts.Fast); err != nil {
			return fmt.Errorf("spice: transient initial OP: %w", err)
		}
	}

	ts := &c.trState
	ts.h, ts.trap, ts.firstBE = opts.Step, opts.Trap, true
	c.clearBypass()

	steps := int(math.Ceil(opts.Stop/opts.Step - 1e-9))
	res.reset(c, steps+1)
	// The preamble leaves the state at the top of step k0: row k0 in x, the
	// predictor's rows in xPrev/xPrev2, the charge history in ts, the bypass
	// cache. A record restores the k0 steps it shares; otherwise k0 is 0.
	rec := opts.Record
	k0 := rec.resume(c, opts, steps, x)
	if k0 > 0 {
		rec.restore(k0, opts.Step, x, xPrev, xPrev2, ts, res)
		c.stats.TranStepsReused += int64(k0)
		// The fast path's carried factorization belongs to another run's
		// last step, not to step k0.
		c.luValid = false
	} else {
		c.initTranHistory(x, ts)
		res.snap(0, x)
		copy(xPrev, x)
		rec.put(0, 0, x, ts)
	}

	for k := k0; k < steps; k++ {
		t := float64(k+1) * opts.Step
		// Snapshot the charge history so a failed or NaN-rejected step can
		// be retried (and retried again at a finer sub-step) from exactly
		// the end-of-previous-step integrator state.
		c.saveTranHistory(ts)
		// Predictor: start Newton from the extrapolated trajectory, which
		// typically saves an iteration per step. The fast path extrapolates
		// quadratically — a smaller starting error keeps the chord iteration
		// on the carried Jacobian to one or two passes on quiet stretches.
		if k > 0 {
			if opts.Fast && k > 1 {
				for i := range pred {
					pred[i] = 3*(x[i]-xPrev[i]) + xPrev2[i]
				}
			} else {
				for i := range pred {
					pred[i] = 2*x[i] - xPrev[i]
				}
			}
			copy(xPrev2, xPrev)
			copy(xPrev, x)
			copy(x, pred)
		} else {
			copy(xPrev, x)
		}
		ctx := assembleCtx{t: t, srcScale: 1, tran: ts, carry: opts.Fast, fast: opts.Fast}
		cerr := c.stepSolve(x, &ctx)
		if cerr != nil && lifecycle.Interrupted(cerr) {
			// Cancelled or over budget: no fallback, no sub-stepping — the
			// sample is over.
			return fmt.Errorf("spice: transient interrupted at t=%g: %w", t, asError(cerr))
		}
		if cerr != nil && opts.Fast {
			// Fast→exact fallback: the chord iteration on the carried
			// Jacobian stalled, so drop the carried factors, re-factor, and
			// retry the step with the exact path before escalating to
			// sub-stepping.
			c.stats.FastFallbacks++
			c.traceFallback(t)
			c.luValid = false
			copy(x, xPrev)
			exact := assembleCtx{t: t, srcScale: 1, tran: ts}
			cerr = c.stepSolve(x, &exact)
		}
		if cerr == nil {
			c.updateTranHistory(x, ts)
			// The cached charges passed the residual check, but a capacitor
			// charge can still turn non-finite on a pathological candidate;
			// reject the poisoned history before it propagates.
			if !c.tranHistoryFinite(ts) {
				c.stats.NonFiniteRejects++
				c.traceNonFinite("tran-history", t)
				c.restoreTranHistory(ts)
				cerr = &ConvergenceError{Err: ErrNonFiniteSolution}
			}
		}
		if cerr != nil {
			// Retry the step from the unextrapolated state with smaller
			// backward-Euler sub-steps, halving further on repeated failure.
			c.traceRescue("tran-substep", t, cerr)
			copy(x, xPrev)
			if rerr := c.rescueLadder(xPrev, x, t-opts.Step, opts.Step, ts, opts.Fast); rerr != nil {
				return fmt.Errorf("spice: transient failed at t=%g: %w", t, asError(rerr))
			}
			// The rescue evaluated the sources between grid points, which
			// the record does not compare: the record ends before this step.
			rec = nil
		}
		ts.firstBE = false
		c.stats.TranSteps++
		res.snap(t, x)
		rec.put(k+1, t, x, ts)
	}
	return nil
}

// stepSolve runs one transient Newton solve and rejects candidate solution
// vectors containing NaN/Inf before they can reach the charge history.
func (c *Circuit) stepSolve(x []float64, ctx *assembleCtx) *ConvergenceError {
	if cerr := c.newton(x, ctx); cerr != nil {
		return cerr.at(StageTran, ctx.t)
	}
	if i := firstNonFinite(x); i >= 0 {
		c.stats.NonFiniteRejects++
		c.traceNonFinite("tran-candidate", ctx.t)
		c.luValid = false
		cerr := &ConvergenceError{Node: c.unknownName(i), Err: ErrNonFiniteSolution}
		return cerr.at(StageTran, ctx.t)
	}
	return nil
}

// rescueLadder retries a failed timestep as progressively finer
// backward-Euler sub-step sequences: 8 pieces (the cheap classic rescue for
// sharp source corners), then halving the sub-step per rung within a
// bounded retry budget, with a final exact-path rung when the fast solver
// was in use. Every rung restarts from x0 and the pre-step charge-history
// snapshot, so a failed rung leaves no trace in the integrator state. x
// must enter holding a copy of x0.
func (c *Circuit) rescueLadder(x0, x []float64, t0, h float64, ts *tranState, fast bool) *ConvergenceError {
	c.stats.Rescues++
	var last *ConvergenceError
	pieces := 8
	for level := 0; level < 4; level++ {
		if level > 0 {
			c.stats.TranHalvings++
			c.traceRescue(StageTranHalve, t0+h, last)
			c.restoreTranHistory(ts)
			copy(x, x0)
			pieces *= 2
		}
		if last = c.rescueStep(x, t0, h, ts, fast, pieces); last == nil {
			return nil
		}
		if lifecycle.Interrupted(last) {
			return last.at(StageTranHalve, t0+h)
		}
	}
	if fast {
		// Last resort in fast mode: the exact path (fresh Jacobian every
		// stall, tight tolerances) over the classic 8 sub-steps.
		c.stats.FastFallbacks++
		c.traceFallback(t0 + h)
		c.luValid = false
		c.restoreTranHistory(ts)
		copy(x, x0)
		if last = c.rescueStep(x, t0, h, ts, false, 8); last == nil {
			return nil
		}
	}
	return last.at(StageTranHalve, t0+h)
}

// rescueStep retries a failed step as pieces smaller backward-Euler steps.
func (c *Circuit) rescueStep(x []float64, t0, h float64, ts *tranState, fast bool, pieces int) *ConvergenceError {
	sub := h / float64(pieces)
	savedH, savedTrap, savedFirst := ts.h, ts.trap, ts.firstBE
	ts.h, ts.trap, ts.firstBE = sub, false, true
	defer func() { ts.h, ts.trap, ts.firstBE = savedH, savedTrap, savedFirst }()
	for i := 1; i <= pieces; i++ {
		ctx := assembleCtx{t: t0 + float64(i)*sub, srcScale: 1, tran: ts, carry: fast, fast: fast}
		if cerr := c.stepSolve(x, &ctx); cerr != nil {
			return cerr
		}
		c.updateTranHistory(x, ts)
		if !c.tranHistoryFinite(ts) {
			c.stats.NonFiniteRejects++
			c.traceNonFinite("rescue-history", t0+float64(i)*sub)
			return &ConvergenceError{Err: ErrNonFiniteSolution}
		}
	}
	return nil
}
