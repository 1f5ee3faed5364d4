package spice

import "math"

// TranRecord is a per-step record of a fixed-step transient that a later
// transient on the same circuit can resume from (TranOpts.Record). Such a
// transient first finds the longest prefix of steps on which its starting
// state and every source value equal the record's, bit for bit. It restores
// the integrator state at the end of that prefix, solves only the remaining
// steps, and overwrites the record with its own steps from there.
//
// Setup/hold bisection is the use: every trial starts from the same initial
// condition under the same clock and differs only after its data edge, so a
// trial solves only the steps after its edge.
//
// A prefix is reused only when the record was made on the same circuit
// under the same key: the circuit's generation (elements, device cards and
// sparse pivot order), Step, Trap, Fast, UIC, Gmin and MaxNewton. A step
// that needed the sub-step rescue ladder ends the record, because its
// sources were also evaluated between grid points. Device cards must
// change only through SetMOSDevice, and waveforms must be pure functions
// of time. See DESIGN.md §16.
//
// Rows also carry every MOSFET's device-bypass point (bypass.go); a restore
// rebuilds the cache there, so resumed steps bypass what fresh ones do.
//
// The zero value is an empty record. It holds (steps+1)·(n + 12·MOSFETs +
// 2·capacitors) + steps·sources floats, sized on the first recording. A
// record belongs to one goroutine at a time, like its circuit.
type TranRecord struct {
	c    *Circuit
	key  recordKey
	done int // steps recorded: rows 0..done are valid

	// Row k is the state at the end of step k (row 0: the starting state):
	// the unknowns, the MOSFET and capacitor charge history, and the
	// MOSFETs' bypass points (NaN for an empty entry).
	x          []float64
	qMos, iMos [][4]float64
	qCap, iCap []float64
	pts        [][4]float64
	// src row k-1 holds the voltage- then current-source values at step
	// k's time, for k >= 1.
	src []float64

	n, nm, nc, ns int // row widths: unknowns, MOSFETs, capacitors, sources
}

// recordKey is what a recorded step depends on beyond its starting state
// and its source values.
type recordKey struct {
	gen       uint64
	step      float64
	gmin      float64
	maxNewton int
	trap      bool
	fast      bool
	uic       bool
}

// resume returns how many leading steps of a steps-step transient of c
// starting from x the record can restore. It is 0 for a nil record. A
// record that cannot be resumed is re-keyed to c and opts and emptied.
func (r *TranRecord) resume(c *Circuit, opts TranOpts, steps int, x []float64) int {
	if r == nil {
		return 0
	}
	key := recordKey{
		gen: c.gen, step: opts.Step, gmin: c.Gmin, maxNewton: c.MaxNewton,
		trap: opts.Trap, fast: opts.Fast, uic: opts.UIC,
	}
	if r.c != c || r.key != key || !bitsEqual(r.row(0), x) {
		r.c, r.key, r.done = c, key, 0
		r.n, r.nm, r.nc, r.ns = len(x), len(c.mos), len(c.cs), len(c.vs)+len(c.is)
		r.reserve(steps + 1)
		return 0
	}
	r.reserve(steps + 1)
	k := 0
	for k < r.done && k < steps && r.sourcesMatch(k+1, float64(k+1)*opts.Step) {
		k++
	}
	return k
}

// reserve makes room for rows rows, keeping what is recorded. A template
// that always runs the same window allocates once.
func (r *TranRecord) reserve(rows int) {
	r.x = growTo(r.x, rows*r.n)
	r.qMos = growTo(r.qMos, rows*r.nm)
	r.iMos = growTo(r.iMos, rows*r.nm)
	r.pts = growTo(r.pts, rows*r.nm)
	r.qCap = growTo(r.qCap, rows*r.nc)
	r.iCap = growTo(r.iCap, rows*r.nc)
	r.src = growTo(r.src, (rows-1)*r.ns)
}

func growTo[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	t := make([]T, n)
	copy(t, s)
	return t
}

// row returns the recorded state at the end of step k (empty before the
// first recording).
func (r *TranRecord) row(k int) []float64 { return r.x[k*r.n : (k+1)*r.n] }

// sourcesMatch reports whether every source of the record's circuit takes
// at time t exactly the value recorded for step k.
func (r *TranRecord) sourcesMatch(k int, t float64) bool {
	c, src := r.c, r.src[(k-1)*r.ns:k*r.ns]
	for i := range c.vs {
		if math.Float64bits(c.vs[i].wave.At(t)) != math.Float64bits(src[i]) {
			return false
		}
	}
	for i := range c.is {
		if math.Float64bits(c.is[i].wave.At(t)) != math.Float64bits(src[len(c.vs)+i]) {
			return false
		}
	}
	return true
}

// restore rewinds a transient to the end of recorded step k >= 1: rows 0..k
// into res, the predictor's rows k, k−1 and k−2 into x, xPrev and xPrev2,
// the charge history into ts, and the bypass cache, which TransientInto
// has emptied, by one full evaluation (counted in ModelEvals) at each
// recorded point, made by the assemblies' evaluation step (evalPending).
// The record keeps only those k steps; the transient appends its own after
// them.
func (r *TranRecord) restore(k int, step float64, x, xPrev, xPrev2 []float64, ts *tranState, res *TranResult) {
	for j := 0; j <= k; j++ {
		res.snap(float64(j)*step, r.row(j))
	}
	copy(x, r.row(k))
	copy(xPrev, r.row(k-1))
	if k >= 2 {
		copy(xPrev2, r.row(k-2))
	}
	r.c.sizeTranHistory(ts)
	copy(ts.qPrevMos, r.qMos[k*r.nm:])
	copy(ts.iPrevMos, r.iMos[k*r.nm:])
	copy(ts.qPrevCap, r.qCap[k*r.nc:])
	copy(ts.iPrevCap, r.iCap[k*r.nc:])
	c := r.c
	c.pend = c.pend[:0]
	for i, p := range r.pts[k*r.nm : (k+1)*r.nm] {
		if !math.IsNaN(p[0]) {
			c.stats.ModelEvals++
			c.pend = append(c.pend, pending{i, p})
		}
	}
	c.evalPending(true)
	ts.firstBE = false
	r.done = k
}

// put records step k, ending at time t in state x with history ts; k = 0 is
// the starting state. A nil record records nothing.
func (r *TranRecord) put(k int, t float64, x []float64, ts *tranState) {
	if r == nil {
		return
	}
	copy(r.row(k), x)
	copy(r.qMos[k*r.nm:], ts.qPrevMos)
	copy(r.iMos[k*r.nm:], ts.iPrevMos)
	copy(r.qCap[k*r.nc:], ts.qPrevCap)
	copy(r.iCap[k*r.nc:], ts.iPrevCap)
	pts := r.pts[k*r.nm : (k+1)*r.nm]
	for i := range pts {
		pts[i] = r.c.bypass[i].v
	}
	if k > 0 {
		c, src := r.c, r.src[(k-1)*r.ns:k*r.ns]
		for i := range c.vs {
			src[i] = c.vs[i].wave.At(t)
		}
		for i := range c.is {
			src[len(c.vs)+i] = c.is[i].wave.At(t)
		}
	}
	r.done = k
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
