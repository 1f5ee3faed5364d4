package spice_test

import (
	"math"
	"slices"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/spice"
)

// fwdDevice and fwdNative forward only device.Device and
// device.NativeDerivs to the model they wrap, as the benchmark's timing
// decorators do, so spice cannot take a model's grouped path through them.
type fwdDevice struct{ device.Device }

type fwdNative struct {
	fwdDevice
	nd device.NativeDerivs
}

func (d *fwdNative) EvalDerivs4(vd, vg, vs, vb float64) device.Derivs {
	return d.nd.EvalDerivs4(vd, vg, vs, vb)
}

// forwarded wraps every device f makes in a forwarding decorator when fwd
// is set, and returns f otherwise.
func forwarded(fwd bool, f circuits.Factory) circuits.Factory {
	if !fwd {
		return f
	}
	return func(k device.Kind, w, l float64) device.Device {
		d := f(k, w, l)
		if nd, ok := d.(device.NativeDerivs); ok {
			return &fwdNative{fwdDevice{d}, nd}
		}
		return &fwdDevice{d}
	}
}

// sameRun fails t unless two runs made the same solver work.
func sameRun(t *testing.T, what string, built, fwd spice.SolverStats) {
	t.Helper()
	if built.NewtonIters != fwd.NewtonIters || built.JacRefreshes != fwd.JacRefreshes ||
		built.ModelEvals != fwd.ModelEvals || built.BypassedEvals != fwd.BypassedEvals {
		t.Fatalf("%s: built %d Newton iterations, %d Jacobian refreshes, %d model and %d bypassed evaluations; "+
			"forwarded %d, %d, %d and %d", what,
			built.NewtonIters, built.JacRefreshes, built.ModelEvals, built.BypassedEvals,
			fwd.NewtonIters, fwd.JacRefreshes, fwd.ModelEvals, fwd.BypassedEvals)
	}
}

// sameFloats fails t unless a and b hold the same bits.
func sameFloats(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values built, %d forwarded", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: built %g, forwarded %g", what, i, a[i], b[i])
		}
	}
}

// sameRows fails t unless two transients hold the same rows: the times,
// every node voltage and the given sources' currents.
func sameRows(t *testing.T, what string, nodes int, a, b *spice.TranResult, srcs ...int) {
	t.Helper()
	sameFloats(t, what+" time", a.Time, b.Time)
	for n := 0; n < nodes; n++ {
		sameFloats(t, what+" node voltage", a.V(n), b.V(n))
	}
	for _, s := range srcs {
		sameFloats(t, what+" source current", a.SourceI(s), b.SourceI(s))
	}
}

// grouped fails t unless the circuit's MOSFETs have a grouped path exactly
// when want is set, so the two runs take different evaluation paths.
func grouped(t *testing.T, c *spice.Circuit, want bool) {
	t.Helper()
	for i := 0; i < c.NumMOS(); i++ {
		if _, ok := c.MOSDevice(i).(device.LaneDerivs); ok != want {
			t.Fatalf("MOSFET %d has a grouped path: %v, want %v", i, ok, want)
		}
	}
}

// The evaluation step evaluates bound VS instances in groups of up to
// device.LaneWidth, and any device behind a decorator that forwards only
// Device and NativeDerivs one at a time. A mismatched INV FO3 transient, a
// DFF setup search through its transient record and SRAM READ and HOLD
// butterflies must come out the same both ways, bit for bit, with the same
// Newton iterations, Jacobian refreshes and model and bypassed
// evaluations.
func TestGroupedEvaluationMatchesForwarded(t *testing.T) {
	m := mismatchedVS()
	const vdd = 0.9
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}

	var inv [2]*circuits.PooledGate
	for k := range inv {
		g, err := circuits.NewPooledInverterFO(3, vdd, sz, forwarded(k == 1, m.Nominal()), false)
		if err != nil {
			t.Fatal(err)
		}
		inv[k] = g
	}
	for i := 0; i < 2; i++ {
		var res [2]*spice.TranResult
		var st [2]spice.SolverStats
		for k, g := range inv {
			g.Restat(forwarded(k == 1, m.Statistical(montecarlo.SampleRNG(31, i))))
			grouped(t, g.Ckt, k == 0)
			g.Ckt.ResetStats()
			r, err := g.Transient(560e-12, 1.5e-12)
			if err != nil {
				t.Fatal(err)
			}
			res[k], st[k] = r, g.Ckt.Stats()
		}
		sameRows(t, "INV FO3", inv[0].Ckt.NumNodes(), res[0], res[1], inv[0].VddSrc, inv[0].VinSrc)
		sameRun(t, "INV FO3", st[0], st[1])
	}

	var ff [2]*circuits.PooledDFF
	for k := range ff {
		ff[k] = circuits.NewPooledDFF(vdd, circuits.DefaultDFFSizing(), forwarded(k == 1, m.Nominal()), false)
	}
	for i := 0; i < 2; i++ {
		var ts [2]float64
		var st [2]spice.SolverStats
		for k, r := range ff {
			r.Restat(forwarded(k == 1, m.Statistical(montecarlo.SampleRNG(32, i))))
			grouped(t, r.Ckt, k == 0)
			o := measure.DefaultSetupOpts()
			o.Res = &r.Res
			r.Ckt.ResetStats()
			s, err := measure.SetupTime(r.DFF, o)
			if err != nil {
				t.Fatal(err)
			}
			ts[k], st[k] = s, r.Ckt.Stats()
		}
		if st[0].TranStepsReused == 0 {
			t.Fatal("the DFF setup search resumed no step from its transient record")
		}
		sameFloats(t, "DFF setup time", ts[:1], ts[1:])
		sameRows(t, "DFF final trial", ff[0].Ckt.NumNodes(), &ff[0].Res, &ff[1].Res,
			ff[0].VddSrc, ff[0].ClkSrc, ff[0].DSrc)
		sameRun(t, "DFF setup search", st[0], st[1])
	}

	var cell [2]*circuits.PooledSRAM
	for k := range cell {
		cell[k] = circuits.NewPooledSRAM(vdd, circuits.DefaultSRAMSizing(), forwarded(k == 1, m.Nominal()), 61, false)
	}
	for i := 0; i < 2; i++ {
		var curves [2][][]float64
		var st [2]spice.SolverStats
		for k, c := range cell {
			c.Restat(forwarded(k == 1, m.Statistical(montecarlo.SampleRNG(33, i))))
			if _, ok := c.Cell.PDL.(device.LaneDerivs); ok != (k == 0) {
				t.Fatalf("SRAM pull-down has a grouped path: %v, want %v", ok, k == 0)
			}
			c.ResetStats()
			for _, read := range []bool{true, false} {
				l, r, err := c.Butterfly(read)
				if err != nil {
					t.Fatal(err)
				}
				// The curves alias the template's storage, which the next
				// butterfly overwrites.
				curves[k] = append(curves[k], slices.Clone(l.In), slices.Clone(l.Out),
					slices.Clone(r.In), slices.Clone(r.Out))
			}
			st[k] = c.Stats()
		}
		for j := range curves[0] {
			sameFloats(t, "SRAM butterfly curve", curves[0][j], curves[1][j])
		}
		sameRun(t, "SRAM butterflies", st[0], st[1])
	}
}
