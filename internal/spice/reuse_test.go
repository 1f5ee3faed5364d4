package spice

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"vstat/internal/device"
	"vstat/internal/vsmodel"
)

// mismatchedChain is testInvChain(3), seven unknowns on the sparse core,
// with every device card perturbed by a draw from rng: ΔVT0 with σ 30 mV,
// ΔL and ΔW with σ 1 nm, and Δµ with σ 5%. The same seed gives the same
// cards.
func mismatchedChain(seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c, _ := testInvChain(3)
	for i := 0; i < c.NumMOS(); i++ {
		p := *c.MOSDevice(i).(*vsmodel.Params)
		c.SetMOSDevice(i, p.WithDeltas(device.Deltas{
			DVT0: 0.03 * rng.NormFloat64(),
			DL:   1e-9 * rng.NormFloat64(),
			DW:   1e-9 * rng.NormFloat64(),
			DMu:  0.05 * p.Mu * rng.NormFloat64(),
		}))
	}
	return c
}

// checkHeld fails unless a circuit that marks its sparse factorization
// current holds the CSC values a fresh Jacobian pass under the held key
// stamps from the bundles as they are now, bit for bit. The fresh pass
// writes those same values back, so the check changes nothing.
func checkHeld(t *testing.T, what string, c *Circuit) {
	t.Helper()
	if !c.spCurrent {
		return
	}
	held := append([]float64(nil), c.sp.Val...)
	c.stampSparse(c.spKey)
	for i, v := range c.sp.Val {
		if math.Float64bits(v) != math.Float64bits(held[i]) {
			t.Fatalf("%s: the factorization is marked current, but CSC value %d is %g where a fresh Jacobian pass stamps %g",
				what, i, held[i], v)
		}
	}
}

// TestJacobianReuseRule holds the sparse core's factorization reuse to its
// rule: whenever the circuit marks its factorization current, a fresh
// Jacobian pass under the held key reproduces the CSC values bit for bit.
// It is checked after every Newton iteration of a hand-driven mismatched
// transient, backward Euler and trapezoidal, whose iterates must equal bit
// for bit those of a twin circuit that stamps and factors every iteration,
// and where a reuse may happen only on an assembly that made no model
// evaluation. It is checked after every DC-sweep point and after each rung
// of the DC rescue ladder. SetMOSDevice and a TranRecord restore must leave
// no factorization current.
func TestJacobianReuseRule(t *testing.T) {
	const step, steps = 1e-12, 150
	for _, trap := range []bool{false, true} {
		c, twin := mismatchedChain(3), mismatchedChain(3)
		n := c.unknowns()
		x, xt := make([]float64, n), make([]float64, n)
		if err := c.solveOPInto(x, nil, false); err != nil {
			t.Fatal(err)
		}
		if err := twin.solveOPInto(xt, nil, false); err != nil {
			t.Fatal(err)
		}
		checkHeld(t, "operating point", c)
		c.MaxNewton, twin.MaxNewton = 1, 1 // one iteration per newton call
		ts, tst := &tranState{h: step, trap: trap, firstBE: true}, &tranState{h: step, trap: trap, firstBE: true}
		c.initTranHistory(x, ts)
		twin.initTranHistory(xt, tst)
		c.clearBypass()
		twin.clearBypass()
		prev, prevT := append([]float64(nil), x...), append([]float64(nil), xt...)
		reuses := 0
		for k := 1; k <= steps; k++ {
			for i := range x {
				x[i], prev[i] = 2*x[i]-prev[i], x[i]
				xt[i], prevT[i] = 2*xt[i]-prevT[i], xt[i]
			}
			ctx := assembleCtx{t: float64(k) * step, srcScale: 1, tran: ts}
			ctxT := assembleCtx{t: float64(k) * step, srcScale: 1, tran: tst}
			for it := 0; ; it++ {
				before := c.Stats()
				cerr := c.newton(x, &ctx)
				twin.spCurrent = false
				cerrT := twin.newton(xt, &ctxT)
				st := c.Stats()
				if st.JacRefreshes == before.JacRefreshes {
					reuses++
					if st.ModelEvals != before.ModelEvals {
						t.Fatalf("trap=%v step %d: the factorization was reused on an assembly that made %d model evaluations",
							trap, k, st.ModelEvals-before.ModelEvals)
					}
				}
				checkHeld(t, "transient", c)
				if !bitsEqual(x, xt) || (cerr == nil) != (cerrT == nil) {
					t.Fatalf("trap=%v step %d iteration %d: the iterate differs from the one a fresh factorization gives", trap, k, it)
				}
				if cerr == nil {
					break
				}
				if !errors.Is(cerr.Err, ErrNoConvergence) || it >= 150 {
					t.Fatalf("trap=%v step %d: %v", trap, k, cerr)
				}
			}
			c.updateTranHistory(x, ts)
			twin.updateTranHistory(xt, tst)
			ts.firstBE, tst.firstBE = false, false
		}
		if reuses == 0 {
			t.Fatalf("trap=%v: the transient reused no factorization", trap)
		}
		t.Logf("trap=%v: %d of %d iterations reused the held factorization", trap, reuses, c.Stats().NewtonIters)
	}

	// DC sweep points and the rescue ladder's rungs.
	c := mismatchedChain(4)
	values := make([]float64, 31)
	for i := range values {
		values[i] = 0.9 * float64(i) / float64(len(values)-1)
	}
	if err := c.sweep(c.VSourceIndex("VIN"), values, false, func(k int, _ []float64) {
		checkHeld(t, "DC sweep", c)
	}); err != nil {
		t.Fatal(err)
	}
	rungs := []struct {
		name string
		run  func(c *Circuit, x []float64) *ConvergenceError
	}{
		{"gmin", func(c *Circuit, x []float64) *ConvergenceError { return c.gminStepInto(x) }},
		{"source", func(c *Circuit, x []float64) *ConvergenceError { return c.sourceStepInto(x) }},
		{"pseudo-tran", func(c *Circuit, x []float64) *ConvergenceError { return c.pseudoTransientInto(x) }},
	}
	x := make([]float64, c.unknowns())
	for _, rung := range rungs {
		for i := range x {
			x[i] = 0
		}
		if cerr := rung.run(c, x); cerr != nil {
			t.Fatalf("%s rung: %v", rung.name, cerr)
		}
		checkHeld(t, rung.name+" rung", c)
	}

	// A new device card and a record restore each rebuild bundles.
	if !c.spCurrent {
		t.Fatal("the rescue rungs left no factorization current")
	}
	c.SetMOSDevice(0, c.MOSDevice(0))
	if c.spCurrent {
		t.Fatal("SetMOSDevice left the factorization current")
	}
	var rec TranRecord
	var res TranResult
	opts := TranOpts{Stop: 60 * step, Step: step, Record: &rec}
	if err := c.TransientInto(opts, &res); err != nil {
		t.Fatal(err)
	}
	if !c.spCurrent {
		t.Fatal("the transient left no factorization current")
	}
	c.clearBypass()
	n := c.unknowns()
	rec.restore(rec.done/2, step, make([]float64, n), make([]float64, n), make([]float64, n), &c.trState, &res)
	if c.spCurrent {
		t.Fatal("a TranRecord restore left the factorization current")
	}
}
