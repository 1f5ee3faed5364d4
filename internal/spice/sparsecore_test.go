package spice

import (
	"fmt"
	"math"
	"testing"

	"vstat/internal/device"
	"vstat/internal/linalg"
	"vstat/internal/vsmodel"
)

// testInvChain nets `stages` VS-model inverters in series behind a pulse
// source with per-stage load caps: stages+2 node voltages plus two branch
// currents.
func testInvChain(stages int) (c *Circuit, out int) {
	c = New()
	vdd := c.Node("vdd")
	c.AddV("VDD", vdd, Gnd, DC(0.9))
	in := c.Node("in")
	c.AddV("VIN", in, Gnd, Pulse{V0: 0, V1: 0.9, Delay: 20e-12, Rise: 10e-12, Fall: 10e-12, Width: 200e-12})
	prev := in
	for s := 0; s < stages; s++ {
		out = c.Node(fmt.Sprintf("o%d", s))
		nm := vsmodel.NMOS40(300e-9)
		pm := vsmodel.PMOS40(600e-9)
		c.AddMOS(fmt.Sprintf("MN%d", s), out, prev, Gnd, Gnd, &nm)
		c.AddMOS(fmt.Sprintf("MP%d", s), out, prev, vdd, vdd, &pm)
		c.AddC(fmt.Sprintf("CL%d", s), out, Gnd, 2e-15)
		prev = out
	}
	return c, out
}

// TestSparseAssembleMatchesDense: the stamp-list assembly must produce
// bit-identical residuals and Jacobian entries to the dense assemble, for
// DC and transient contexts including the rescue-ladder terms (gmin
// stepping and the pseudo-transient anchor, which hit the reserved node
// diagonals).
func TestSparseAssembleMatchesDense(t *testing.T) {
	for _, tran := range []bool{false, true} {
		c, _ := testInverter()
		op, err := c.OP()
		if err != nil {
			t.Fatal(err)
		}
		n := c.unknowns()
		fDense := make([]float64, n)
		fSparse := make([]float64, n)
		jac := newZeroMatrix(n)
		ctx := assembleCtx{t: 1e-11, srcScale: 0.75, gminExtra: 1e-3,
			ptG: 0.5, ptRef: op.x}
		if tran {
			ts := &tranState{h: 1e-12}
			c.initTranHistory(op.x, ts)
			ctx.tran = ts
		}
		c.assemble(op.x, fDense, jac, &ctx, true)
		c.buildStampMap()
		c.assembleSparse(op.x, fSparse, &ctx)
		for i := range fDense {
			if fDense[i] != fSparse[i] {
				t.Fatalf("tran=%v: residual[%d] differs: dense %g sparse %g",
					tran, i, fDense[i], fSparse[i])
			}
		}
		spd := c.sp.Dense()
		for i := range jac.Data {
			if jac.Data[i] != spd.Data[i] {
				t.Fatalf("tran=%v: jac entry %d differs: dense %g sparse %g",
					tran, i, jac.Data[i], spd.Data[i])
			}
		}
	}
}

// TestSparseTransientAllocFree: after the warmup run (which builds the
// stamp map and the symbolic factorization), repeated transients must
// allocate nothing.
func TestSparseTransientAllocFree(t *testing.T) {
	c, _ := testInvChain(3)
	opts := TranOpts{Stop: 100e-12, Step: 1e-12}
	var res TranResult
	if err := c.TransientInto(opts, &res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := c.TransientInto(opts, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sparse TransientInto allocates %.1f objects per run, want 0", allocs)
	}
	fast := opts
	fast.Fast = true
	if err := c.TransientInto(fast, &res); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(5, func() {
		if err := c.TransientInto(fast, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fast sparse TransientInto allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSparseSymbolicSurvivesDeviceSwap: swapping a device parameter card
// (the pooled Monte Carlo re-stamp path) must keep both the stamp map and
// the symbolic factorization object — symbolic analysis runs once per
// topology, not once per sample.
func TestSparseSymbolicSurvivesDeviceSwap(t *testing.T) {
	c, out := testInvChain(3)
	x := make([]float64, c.unknowns())
	if err := c.solveOPInto(x, nil, true); err != nil {
		t.Fatal(err)
	}
	lu := c.spLU
	if lu == nil {
		t.Fatal("sparse OP left no symbolic factorization behind")
	}
	wide := vsmodel.NMOS40(900e-9)
	c.SetMOSDevice(0, &wide)
	if err := c.solveOPInto(x, nil, true); err != nil {
		t.Fatal(err)
	}
	if c.spLU != lu {
		t.Fatal("device swap rebuilt the symbolic factorization")
	}
	// And the restamped solve must match a freshly built circuit.
	ref, refOut := testInvChain(3)
	wide2 := vsmodel.NMOS40(900e-9)
	ref.SetMOSDevice(0, &wide2)
	op, err := ref.OP()
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	if d := math.Abs(nv(x, out) - op.V(refOut)); d > 1e-6 {
		t.Fatalf("restamped sparse OP differs from fresh solve by %g V", d)
	}
}

// linCond is a linear drain-source conductance packaged as a four-terminal
// device: Id = G·(vd - vs), no charges. Exact native derivatives keep the
// Jacobian entries free of finite-difference noise, so the test controls
// the matrix values down to the last bit.
type linCond struct{ G float64 }

func (d *linCond) Kind() device.Kind { return device.NMOS }
func (d *linCond) Width() float64    { return 1e-6 }
func (d *linCond) Length() float64   { return 1e-6 }
func (d *linCond) Eval(vd, vg, vs, vb float64) device.Eval {
	return device.Eval{Id: d.G * (vd - vs)}
}
func (d *linCond) EvalDerivs4(vd, vg, vs, vb float64) device.Derivs {
	return device.Derivs{
		Eval: device.Eval{Id: d.G * (vd - vs)},
		GId:  [4]float64{d.G, 0, -d.G, 0},
	}
}

// growthNetlist nets the degenerate-pivot fixture: a driven node n1 carrying
// two swappable conductances whose sum controls n1's Jacobian diagonal.
//
//	VS(1V) — R3(1Ω) — n1 — GA(g) — n2 — R2(1Ω) — gnd
//	                   |
//	                  GB(g) to gnd
//
// At build values (GA=GB=1) the symbolic analysis pivots on n1's healthy
// diagonal. Re-stamping GB to -2+ε cancels that diagonal to ~ε while the
// off-diagonal below it stays O(1) — the frozen pivot order's multiplier
// blows past spGrowthLimit even though the matrix itself stays
// well-conditioned (the classic small-pivot/benign-matrix case).
func growthNetlist() (c *Circuit, n1, n2 int) {
	c = New()
	n1 = c.Node("n1")
	n2 = c.Node("n2")
	n3 := c.Node("n3")
	c.AddV("VS", n3, Gnd, DC(1))
	c.AddR("R3", n3, n1, 1)
	c.AddMOS("GA", n1, Gnd, n2, Gnd, &linCond{G: 1})
	c.AddMOS("GB", n1, Gnd, Gnd, Gnd, &linCond{G: 1})
	c.AddR("R2", n2, Gnd, 1)
	return c, n1, n2
}

// TestSparseGrowthTriggersRepivot exercises the factorSparse recovery path:
// after a device re-stamp drives the frozen pivot order numerically
// degenerate (Growth > spGrowthLimit), the core must re-run the symbolic
// analysis — counted in SolverStats.SparseRepivots — and still deliver the
// solution a dense LU gives the same stamped system.
func TestSparseGrowthTriggersRepivot(t *testing.T) {
	c, n1, n2 := growthNetlist()
	if _, err := c.OP(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SparseRepivots; got != 0 {
		t.Fatalf("healthy first solve re-analyzed %d times, want 0", got)
	}

	// Re-stamp GB so n1's diagonal collapses to ~1e-12 under the pivot order
	// analyzed at GB=+1.
	c.SetMOSDevice(1, &linCond{G: -2 + 1e-12})
	op, err := c.OP()
	if err != nil {
		t.Fatalf("sparse OP after degenerate re-stamp: %v", err)
	}
	if got := c.Stats().SparseRepivots; got < 1 {
		t.Fatalf("SparseRepivots = %d after a degenerate re-stamp, want >= 1", got)
	}

	// The recovered factorization must match a dense LU of the same
	// stamped system. The circuit is linear, so one Newton step from x = 0,
	// x = -J⁻¹·F(0), is its operating point.
	n := c.unknowns()
	f := make([]float64, n)
	jac := newZeroMatrix(n)
	c.assemble(make([]float64, n), f, jac, &assembleCtx{srcScale: 1}, true)
	lu, err := linalg.NewLU(jac)
	if err != nil {
		t.Fatalf("dense reference LU: %v", err)
	}
	dx := lu.Solve(f)
	for _, nd := range []int{n1, n2} {
		if d := math.Abs(op.V(nd) + dx[nd]); d > 1e-6 {
			t.Fatalf("sparse node voltage differs from the dense LU solution by %g V after repivot", d)
		}
	}
}
