package spice

import (
	"fmt"
	"math"

	"vstat/internal/device"
	"vstat/internal/lifecycle"
	"vstat/internal/obs"
)

// This file is the lockstep batched transient driver: K pooled circuit
// instances of one topology advance through the same fixed-step transient
// together, with all K device evaluations of each Newton round performed by
// one SoA kernel call per device position (device.BatchDevice). The solver
// arithmetic itself is not duplicated: every lane runs the scalar
// newtonState machine (mna.go) statement for statement, consuming the
// batched evaluations through Circuit.devPre. A lane that needs anything
// outside the straight-line happy path — a DC rescue rung, a fast→exact
// fallback, the sub-step ladder, a non-finite rejection — is *evicted*: its
// solver counters and lifecycle budget are rewound to the batch-entry
// snapshot and the lane re-runs the plain scalar TransientInto, so every
// lane's waveform and stats are bit-for-bit what a scalar run produces.
//
// The eviction rewind restores the circuit to its sample-start state
// (fresh-sample semantics: luValid dropped, stats and lifecycle iteration
// count restored). The Monte Carlo scheduler re-stamps each lane before
// every batch call — SetMOSDevice drops any carried factorization — so the
// rewound state matches what a pure scalar run of the same sample would
// have started from.

// LaneOutcome reports how one lane of a TransientBatch call finished.
type LaneOutcome struct {
	// Err is the lane's transient error, formatted exactly as the scalar
	// TransientInto formats it (nil on success).
	Err error
	// Evicted reports that the lane left the lockstep path and re-ran the
	// scalar transient (its result is still canonical).
	Evicted bool
}

// BatchSim drives K pooled circuits of identical topology in lockstep.
// All scratch is allocated at construction, so TransientBatch allocates
// nothing per timestep after warmup. A BatchSim belongs to one worker
// goroutine.
type BatchSim struct {
	lanes []*Circuit
	k     int

	// devs[i] batches the K lane instances of MOSFET position i.
	devs []device.BatchDevice
	out  *device.DerivsBatch

	// Gather arrays for one device position across lanes. devMode is the
	// round's mode with the lanes the device bypass serves skipped.
	vd, vg, vs, vb []float64
	mode, devMode  []device.EvalMode

	ns   []newtonState
	ctxs []assembleCtx

	// Batch-entry snapshots for the eviction rewind.
	statsSnap []SolverStats
	lcSnap    []int64

	lockstep []bool // lane still on the lockstep path this call
	inSolve  []bool // lane currently iterating in the lockstep Newton solve
	stepOK   []bool // lane converged the current timestep
	outcomes []LaneOutcome

	obsScope *obs.Scope

	// Evictions counts lanes that left the lockstep path across the
	// BatchSim's lifetime (monotone; read by the MC lane scheduler).
	Evictions int64
}

// NewBatchSim builds a lockstep driver over the given lane circuits, which
// must share one topology (same unknown count and MOSFET count — the pooled
// Monte Carlo setting, where lanes are clones of one template).
func NewBatchSim(lanes []*Circuit) (*BatchSim, error) {
	k := len(lanes)
	if k == 0 {
		return nil, fmt.Errorf("spice: batch needs at least one lane")
	}
	n, nm := lanes[0].unknowns(), lanes[0].NumMOS()
	for l, c := range lanes {
		if c.unknowns() != n || c.NumMOS() != nm {
			return nil, fmt.Errorf("spice: lane %d topology mismatch (%d unknowns / %d MOS, want %d / %d)",
				l, c.unknowns(), c.NumMOS(), n, nm)
		}
		if len(c.devPre) != nm {
			c.devPre = make([]device.Derivs, nm)
		}
	}
	b := &BatchSim{
		lanes:     lanes,
		k:         k,
		devs:      make([]device.BatchDevice, nm),
		out:       device.NewDerivsBatch(k),
		vd:        make([]float64, k),
		vg:        make([]float64, k),
		vs:        make([]float64, k),
		vb:        make([]float64, k),
		mode:      make([]device.EvalMode, k),
		devMode:   make([]device.EvalMode, k),
		ns:        make([]newtonState, k),
		ctxs:      make([]assembleCtx, k),
		statsSnap: make([]SolverStats, k),
		lcSnap:    make([]int64, k),
		lockstep:  make([]bool, k),
		inSolve:   make([]bool, k),
		stepOK:    make([]bool, k),
		outcomes:  make([]LaneOutcome, k),
	}
	for i := 0; i < nm; i++ {
		b.devs[i] = device.NewBatch(k, lanes[0].MOSDevice(i))
	}
	b.Rebind()
	return b, nil
}

// K returns the lane capacity.
func (b *BatchSim) K() int { return b.k }

// Lane returns lane l's circuit (for re-stamping, arming, measurement).
func (b *BatchSim) Lane(l int) *Circuit { return b.lanes[l] }

// SetObs attaches a per-worker observability scope: the batch driver
// attributes its SoA evaluation rounds to the device-eval-batch phase and
// the lane circuits attribute their solver phases as usual.
func (b *BatchSim) SetObs(sc *obs.Scope) {
	b.obsScope = sc
	for _, c := range b.lanes {
		c.SetObs(sc)
	}
}

// Rebind re-hoists every lane's current device instances into the batch
// kernels. TransientBatch calls it on entry, so re-stamped parameter cards
// (Restat) are always picked up; a device whose concrete type the model
// kernel cannot batch demotes that position to the scalar-loop fallback.
func (b *BatchSim) Rebind() {
	for i := range b.devs {
		for l, c := range b.lanes {
			if !b.devs[i].SetLane(l, c.MOSDevice(i)) {
				fb := device.NewFallbackBatch(b.k)
				for j, cj := range b.lanes {
					fb.SetLane(j, cj.MOSDevice(i))
				}
				b.devs[i] = fb
				break
			}
		}
	}
}

// evalRound performs one batched device-evaluation round: for every MOSFET
// position, gather each active lane's terminal voltages from its solve
// vector, evaluate all lanes in one SoA kernel call, and scatter the bundles
// into the lanes' devPre slots for the next assemble. b.mode selects, per
// lane, full bundle / values only / skip. In transient solves each lane
// applies the device bypass of the scalar tranEval with the same helpers.
func (b *BatchSim) evalRound(live int) {
	b.obsScope.Enter(obs.PhaseBatchEval)
	nm := len(b.devs)
	for i := 0; i < nm; i++ {
		for l := 0; l < live; l++ {
			b.devMode[l] = b.mode[l]
			if b.mode[l] == device.EvalSkip {
				continue
			}
			c := b.lanes[l]
			m := &c.mos[i]
			x := c.trX
			v := [4]float64{nv(x, m.d), nv(x, m.g), nv(x, m.s), nv(x, m.b)}
			if b.ctxs[l].tran != nil {
				e := &c.bypass[i]
				if ev, ok := e.extrapolate(&v); ok {
					pre := &c.devPre[i]
					pre.Eval, pre.GId, pre.CQ = ev, e.dv.GId, e.dv.CQ
					c.stats.BypassedEvals++
					b.devMode[l] = device.EvalSkip
					continue
				}
			}
			b.vd[l], b.vg[l], b.vs[l], b.vb[l] = v[0], v[1], v[2], v[3]
		}
		b.devs[i].EvalDerivsBatch(b.vd, b.vg, b.vs, b.vb, b.devMode, b.out)
		for l := 0; l < live; l++ {
			if b.devMode[l] == device.EvalSkip {
				continue
			}
			c := b.lanes[l]
			b.out.LaneInto(l, &c.devPre[i])
			c.stats.ModelEvals++
			if b.devMode[l] == device.EvalFull && b.ctxs[l].tran != nil {
				e := &c.bypass[i]
				e.dv = c.devPre[i]
				e.keep(&[4]float64{b.vd[l], b.vg[l], b.vs[l], b.vb[l]})
			}
		}
	}
	b.obsScope.Exit()
}

// lockstepNewton advances every in-solve lane to completion, one shared
// evaluation round per Newton iteration. Each lane's already-made refresh
// decision (newtonState.wantJ) picks its evaluation mode, so chord lanes pay
// values-only evaluations while refreshing lanes get the full bundle —
// exactly the work the scalar solver would have requested.
func (b *BatchSim) lockstepNewton(live int) {
	for {
		active := 0
		for l := 0; l < live; l++ {
			if !b.inSolve[l] {
				b.mode[l] = device.EvalSkip
				continue
			}
			if b.ns[l].wantJ {
				b.mode[l] = device.EvalFull
			} else {
				b.mode[l] = device.EvalValues
			}
			active++
		}
		if active == 0 {
			return
		}
		b.evalRound(live)
		for l := 0; l < live; l++ {
			if b.inSolve[l] && b.ns[l].step(&b.ctxs[l]) {
				b.inSolve[l] = false
			}
		}
	}
}

// laneDone finalizes a lane with a terminal (non-evicted) outcome.
func (b *BatchSim) laneDone(l int, err error) {
	b.lockstep[l] = false
	b.inSolve[l] = false
	b.mode[l] = device.EvalSkip
	b.lanes[l].devPreSet = false
	b.outcomes[l] = LaneOutcome{Err: err}
}

// evict rewinds lane l to its batch-entry state and re-runs the scalar
// transient, making the lane's result and counters bit-identical to a pure
// scalar run of the same sample.
func (b *BatchSim) evict(l int, opts TranOpts, guess []float64, res *TranResult) {
	c := b.lanes[l]
	b.lockstep[l] = false
	b.inSolve[l] = false
	b.mode[l] = device.EvalSkip
	c.devPreSet = false
	c.stats = b.statsSnap[l]
	c.lcIters = b.lcSnap[l]
	c.luValid = false
	b.Evictions++
	o := opts
	o.Guess = guess
	o.Record = nil // the lockstep path neither reads nor writes a record
	err := c.TransientInto(o, res)
	b.outcomes[l] = LaneOutcome{Err: err, Evicted: true}
}

// TransientBatch runs the fixed-step transient of TransientInto on lanes
// [0, live) in lockstep, writing lane l's waveforms into res[l]. guesses
// optionally warm-starts each lane's initial operating point (nil falls
// back to opts.Guess for every lane); opts is shared across lanes, and its
// Record is ignored.
//
// The returned slice (owned by the BatchSim, valid until the next call)
// reports each lane's outcome. Lanes whose solve leaves the lockstep happy
// path are evicted to the scalar engine mid-call; lanes interrupted by
// cancellation or budget exhaustion fail with the scalar error and are not
// re-run. Lanes [live, k) are untouched.
func (b *BatchSim) TransientBatch(live int, opts TranOpts, guesses [][]float64, res []*TranResult) []LaneOutcome {
	if live < 1 || live > b.k {
		panic(fmt.Sprintf("spice: TransientBatch live=%d with %d lanes", live, b.k))
	}
	for l := 0; l < b.k; l++ {
		b.outcomes[l] = LaneOutcome{}
		b.lockstep[l] = l < live
		b.inSolve[l] = false
		b.stepOK[l] = false
		b.mode[l] = device.EvalSkip
	}
	if opts.Stop <= 0 || opts.Step <= 0 {
		err := fmt.Errorf("spice: invalid transient window stop=%g step=%g", opts.Stop, opts.Step)
		for l := 0; l < live; l++ {
			b.lockstep[l] = false
			b.outcomes[l] = LaneOutcome{Err: err}
		}
		return b.outcomes[:live]
	}
	laneGuess := func(l int) []float64 {
		if guesses != nil {
			return guesses[l]
		}
		return opts.Guess
	}

	b.obsScope.Enter(obs.PhaseSolve)
	defer b.obsScope.Exit()
	b.Rebind()

	// Per-lane preamble, mirroring TransientInto: scratch sizing, zero
	// state, then either UIC initial conditions or the plain-Newton rung of
	// the DC operating point — run in lockstep below. (The OP rescue ladder
	// is off the happy path: a lane that needs it is evicted and the scalar
	// ladder runs inside the re-run.)
	for l := 0; l < live; l++ {
		c := b.lanes[l]
		b.statsSnap[l] = c.stats
		b.lcSnap[l] = c.lcIters
		c.devPreSet = true
		n := c.unknowns()
		if len(c.trX) != n {
			c.trX = make([]float64, n)
			c.trPrev = make([]float64, n)
			c.trPrev2 = make([]float64, n)
			c.trPred = make([]float64, n)
		}
		x := c.trX
		for i := range x {
			x[i] = 0
		}
		if opts.UIC {
			for node, v := range opts.IC {
				if node != Gnd {
					x[node] = v
				}
			}
			continue
		}
		if g := laneGuess(l); g != nil && len(g) == n {
			copy(x, g)
		}
		b.ctxs[l] = assembleCtx{srcScale: 1, carry: opts.Fast, fast: opts.Fast}
		b.ns[l].init(c, x, &b.ctxs[l])
		b.inSolve[l] = true
	}
	b.lockstepNewton(live)
	if !opts.UIC {
		for l := 0; l < live; l++ {
			if !b.lockstep[l] {
				continue
			}
			if cerr := b.ns[l].cerr; cerr != nil {
				if lifecycle.Interrupted(cerr) {
					b.laneDone(l, fmt.Errorf("spice: transient initial OP: %w",
						cerr.at(StageDCNewton, 0)))
				} else {
					b.evict(l, opts, laneGuess(l), res[l])
				}
			}
		}
	}

	steps := int(math.Ceil(opts.Stop/opts.Step - 1e-9))
	for l := 0; l < live; l++ {
		if !b.lockstep[l] {
			continue
		}
		c := b.lanes[l]
		ts := &c.trState
		ts.h, ts.trap, ts.firstBE = opts.Step, opts.Trap, true
		c.clearBypass()
		c.initTranHistory(c.trX, ts)
		res[l].reset(c, steps+1)
		res[l].snap(0, c.trX)
		copy(c.trPrev, c.trX)
	}

	for k := 0; k < steps; k++ {
		t := float64(k+1) * opts.Step
		remaining := 0
		for l := 0; l < live; l++ {
			b.stepOK[l] = false
			if !b.lockstep[l] {
				continue
			}
			remaining++
			c := b.lanes[l]
			ts := &c.trState
			c.saveTranHistory(ts)
			x, xPrev, xPrev2, pred := c.trX, c.trPrev, c.trPrev2, c.trPred
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
			b.ctxs[l] = assembleCtx{t: t, srcScale: 1, tran: ts, carry: opts.Fast, fast: opts.Fast}
			b.ns[l].init(c, x, &b.ctxs[l])
			b.inSolve[l] = true
		}
		if remaining == 0 {
			break
		}
		b.lockstepNewton(live)

		for l := 0; l < live; l++ {
			if !b.lockstep[l] {
				continue
			}
			c := b.lanes[l]
			cerr := b.ns[l].cerr
			if cerr != nil {
				cerr = cerr.at(StageTran, t)
			} else if i := firstNonFinite(c.trX); i >= 0 {
				c.stats.NonFiniteRejects++
				c.traceNonFinite("tran-candidate", t)
				c.luValid = false
				e := &ConvergenceError{Node: c.unknownName(i), Err: ErrNonFiniteSolution}
				cerr = e.at(StageTran, t)
			}
			if cerr == nil {
				b.stepOK[l] = true
				continue
			}
			if lifecycle.Interrupted(cerr) {
				b.laneDone(l, fmt.Errorf("spice: transient interrupted at t=%g: %w",
					t, asError(cerr)))
				continue
			}
			// Fast→exact retry or the sub-step rescue ladder would be next on
			// the scalar path; both leave lockstep, so evict.
			b.evict(l, opts, laneGuess(l), res[l])
		}

		// Advance the charge history for surviving lanes. devPre still holds
		// each lane's final lockstep eval round — the pre-final-update Newton
		// state, exactly what the scalar path caches in evCache — so neither
		// mode needs an extra eval round here.
		for l := 0; l < live; l++ {
			if b.stepOK[l] {
				c := b.lanes[l]
				c.updateTranHistory(c.trX, &c.trState)
			}
		}

		for l := 0; l < live; l++ {
			if !b.stepOK[l] {
				continue
			}
			c := b.lanes[l]
			ts := &c.trState
			if !c.tranHistoryFinite(ts) {
				// The scalar path restores the snapshot and climbs the
				// sub-step ladder here; the eviction re-run reproduces that
				// (and the associated counters) from the sample start.
				b.evict(l, opts, laneGuess(l), res[l])
				continue
			}
			ts.firstBE = false
			c.stats.TranSteps++
			res[l].snap(t, c.trX)
		}
	}

	for l := 0; l < live; l++ {
		if b.lockstep[l] {
			b.lanes[l].devPreSet = false
		}
	}
	return b.outcomes[:live]
}
