package spice

import (
	"context"
	"fmt"
	"math"
	"testing"

	"vstat/internal/device"
	"vstat/internal/lifecycle"
	"vstat/internal/vsmodel"
)

// The record tests run 100 steps of 2 ps on an inverter driving an RC load.
const (
	recStep  = 2e-12
	recSteps = 100
)

func recOpts(trap bool) TranOpts {
	return TranOpts{Stop: recSteps * recStep, Step: recStep, Trap: trap}
}

// recordBench builds an inverter driving an RC load, with vin at the input
// and iin injected into the RC node: six unknowns, and every kind of state
// and source a record stores.
func recordBench(vin, iin Waveform) (c *Circuit, vinSrc int) {
	c = New()
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	mid := c.Node("mid")
	c.AddV("VDD", vdd, Gnd, DC(0.9))
	vinSrc = c.AddV("VIN", in, Gnd, vin)
	n := vsmodel.NMOS40(300e-9)
	p := vsmodel.PMOS40(600e-9)
	c.AddMOS("MP", out, in, vdd, vdd, &p)
	c.AddMOS("MN", out, in, Gnd, Gnd, &n)
	c.AddC("CO", out, Gnd, 0.5e-15)
	c.AddR("R", out, mid, 5e3)
	c.AddC("CM", mid, Gnd, 1e-15)
	c.AddI("IM", mid, Gnd, iin)
	return c, vinSrc
}

// recBase is the base input: one 0.9 V pulse inside the window.
var recBase = PWL{T: []float64{0, 20e-12, 30e-12, 110e-12, 120e-12}, V: []float64{0, 0, 0.9, 0.9, 0}}

func recPulse() *PWL {
	p := recBase
	return &p
}

// recLoad is the base current injected into the RC node.
func recLoad() *PWL {
	return &PWL{T: []float64{0, 50e-12, 60e-12}, V: []float64{0, 0, 2e-6}}
}

// divergeAt returns the base input diverging at step d (see setDivergence).
func divergeAt(d int) *PWL {
	w := &PWL{}
	setDivergence(w, d)
	return w
}

// setDivergence rewrites w in place as a PWL that takes the base input's
// values at every step before step d, bit for bit, and exceeds it by 50 mV
// from step d on. Below step d−1 it keeps the base breakpoints, and the
// tests place step d−1 on a flat stretch of the base, so interpolating to
// it reproduces the base values exactly.
func setDivergence(w *PWL, d int) {
	const dv = 0.05
	w.T, w.V = w.T[:0], w.V[:0]
	if d > 0 {
		from := float64(d-1) * recStep
		for i, t := range recBase.T {
			if t < from {
				w.T, w.V = append(w.T, t), append(w.V, recBase.V[i])
			}
		}
		w.T, w.V = append(w.T, from), append(w.V, recBase.At(from))
	}
	to := float64(d) * recStep
	w.T, w.V = append(w.T, to), append(w.V, recBase.At(to)+dv)
	for i, t := range recBase.T {
		if t > to {
			w.T, w.V = append(w.T, t), append(w.V, recBase.V[i]+dv)
		}
	}
}

func mustTran(t *testing.T, c *Circuit, opts TranOpts, res *TranResult) {
	t.Helper()
	if err := c.TransientInto(opts, res); err != nil {
		t.Fatal(err)
	}
}

// sameWaveforms fails unless a and b hold the same time grid and the same
// bits in every unknown at every step.
func sameWaveforms(t *testing.T, what string, a, b *TranResult) {
	t.Helper()
	if len(a.Time) != len(b.Time) {
		t.Fatalf("%s: %d steps, want %d", what, len(a.Time)-1, len(b.Time)-1)
	}
	for k := range a.Time {
		if math.Float64bits(a.Time[k]) != math.Float64bits(b.Time[k]) {
			t.Fatalf("%s: time %d = %g, want %g", what, k, a.Time[k], b.Time[k])
		}
		if !bitsEqual(a.xs[k], b.xs[k]) {
			t.Fatalf("%s: step %d = %v, want %v", what, k, a.xs[k], b.xs[k])
		}
	}
}

// A transient that resumes from a record equals, bit for bit on every
// unknown, the same transient solved from t = 0, for PWL inputs diverging
// from the recorded run at the first steps, mid-run and at the last step,
// under both integrators. It reuses exactly the steps before the
// divergence.
func TestTranRecordResumeBitIdentical(t *testing.T) {
	for _, trap := range []bool{false, true} {
		for _, d := range []int{0, 1, 2, recSteps / 2, recSteps} {
			// With a record: the base run, then the divergent one.
			c, vin := recordBench(recPulse(), recLoad())
			var rec TranRecord
			opts := recOpts(trap)
			opts.Record = &rec
			var res TranResult
			mustTran(t, c, opts, &res)
			if len(res.Time) != recSteps+1 {
				t.Fatalf("%d steps, want %d", len(res.Time)-1, recSteps)
			}
			c.SetVSource(vin, divergeAt(d))
			before := c.Stats().TranStepsReused
			mustTran(t, c, opts, &res)
			reused := c.Stats().TranStepsReused - before

			// The same two runs on a fresh circuit without a record.
			f, fin := recordBench(recPulse(), recLoad())
			var want TranResult
			mustTran(t, f, recOpts(trap), &want)
			f.SetVSource(fin, divergeAt(d))
			mustTran(t, f, recOpts(trap), &want)

			what := fmt.Sprintf("trap=%v diverging at step %d", trap, d)
			sameWaveforms(t, what, &res, &want)
			if wantReused := int64(max(d-1, 0)); reused != wantReused {
				t.Fatalf("%s: reused %d steps, want %d", what, reused, wantReused)
			}
			if st := f.Stats(); st.TranStepsReused != 0 {
				t.Fatalf("run without a record reused %d steps", st.TranStepsReused)
			}
		}
	}
}

// Changing any field of the record's key stops reuse, while an unchanged
// rerun restores every step.
func TestTranRecordKeyStopsReuse(t *testing.T) {
	cases := []struct {
		name   string
		change func(c *Circuit, o *TranOpts)
	}{
		{"unchanged", func(*Circuit, *TranOpts) {}},
		{"step", func(_ *Circuit, o *TranOpts) { o.Step = 1e-12 }},
		{"trap", func(_ *Circuit, o *TranOpts) { o.Trap = true }},
		{"fast", func(_ *Circuit, o *TranOpts) { o.Fast = true }},
		{"uic", func(_ *Circuit, o *TranOpts) { o.UIC = true }},
		{"gmin", func(c *Circuit, _ *TranOpts) { c.Gmin = 2e-12 }},
		{"max-newton", func(c *Circuit, _ *TranOpts) { c.MaxNewton = 149 }},
		{"device-card", func(c *Circuit, _ *TranOpts) { c.SetMOSDevice(0, c.MOSDevice(0)) }},
		{"element", func(c *Circuit, _ *TranOpts) { c.AddR("RX", c.Node("out"), Gnd, 1e12) }},
		{"pivot-order", func(c *Circuit, _ *TranOpts) { c.spLU = nil }},
	}
	for _, tc := range cases {
		c, _ := recordBench(recPulse(), recLoad())
		var rec TranRecord
		opts := recOpts(false)
		opts.Record = &rec
		var res TranResult
		mustTran(t, c, opts, &res)
		tc.change(c, &opts)
		before := c.Stats().TranStepsReused
		mustTran(t, c, opts, &res)
		reused := c.Stats().TranStepsReused - before
		want := int64(0)
		if tc.name == "unchanged" {
			want = recSteps
		}
		if reused != want {
			t.Fatalf("%s: reused %d steps, want %d", tc.name, reused, want)
		}
	}
}

// A step that needed the sub-step rescue ladder ends the record: the
// record keeps the steps before it, and the next run reuses exactly those.
func TestTranRecordRescueEndsPrefix(t *testing.T) {
	total, _ := tranEvalBudget(t)
	opts := tranTestOpts()
	steps := len(mustRun(t, rescueInverterClean(), opts).Time) - 1

	card := &device.FaultCard{Inner: cleanNMOS(), Mode: device.FaultNaN,
		After: total / 2, Until: total/2 + 6}
	c, _ := rescueInverter(card, tranPulse())
	var rec TranRecord
	opts.Record = &rec
	var res TranResult
	mustTran(t, c, opts, &res)
	if c.Stats().Rescues == 0 {
		t.Fatal("the fault window triggered no rescue")
	}
	// The rescued step is the first that differs from a clean run.
	clean := mustRun(t, rescueInverterClean(), tranTestOpts())
	rescued := 0
	for rescued < steps && bitsEqual(res.xs[rescued], clean.xs[rescued]) {
		rescued++
	}
	if rescued == 0 || rescued == steps {
		t.Fatalf("rescued step %d of %d", rescued, steps)
	}
	if rec.done != rescued-1 {
		t.Fatalf("record holds %d steps, want the %d before the rescued step", rec.done, rescued-1)
	}
	before := c.Stats().TranStepsReused
	mustTran(t, c, opts, &res)
	if got := c.Stats().TranStepsReused - before; got != int64(rescued-1) {
		t.Fatalf("rerun reused %d steps, want %d", got, rescued-1)
	}
}

// A transient interrupted mid-run leaves a record of the steps it
// completed; the next run restores exactly those and still equals a run
// solved from t = 0.
func TestTranRecordKeepsStepsOfInterruptedRun(t *testing.T) {
	c, _ := recordBench(recPulse(), recLoad())
	var rec TranRecord
	opts := recOpts(false)
	opts.Record = &rec
	var res TranResult
	c.ArmSample(context.Background(), lifecycle.Budget{MaxNewton: 100})
	if err := c.TransientInto(opts, &res); !lifecycle.Interrupted(err) {
		t.Fatalf("budgeted transient: err = %v, want an interruption", err)
	}
	done := rec.done
	if done == 0 || done != len(res.Time)-1 {
		t.Fatalf("record holds %d steps after a run that completed %d", done, len(res.Time)-1)
	}
	c.DisarmSample()
	before := c.Stats().TranStepsReused
	mustTran(t, c, opts, &res)
	if got := c.Stats().TranStepsReused - before; got != int64(done) {
		t.Fatalf("rerun reused %d steps, want %d", got, done)
	}
	f, _ := recordBench(recPulse(), recLoad())
	sameWaveforms(t, "resumed after interruption", &res, mustRun(t, f, recOpts(false)))
}

// rescueInverterClean is rescueInverter with a fault card that never
// fires, so its solves match the faulted run's until the fault.
func rescueInverterClean() *Circuit {
	c, _ := rescueInverter(&device.FaultCard{Inner: cleanNMOS(), After: math.MaxInt64}, tranPulse())
	return c
}

func mustRun(t *testing.T, c *Circuit, opts TranOpts) *TranResult {
	t.Helper()
	res, err := c.Transient(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A resumed transient allocates nothing once the record and the result
// are sized.
func TestTranRecordResumeAllocFree(t *testing.T) {
	w := divergeAt(40)
	c, _ := recordBench(w, recLoad())
	var rec TranRecord
	opts := recOpts(true)
	opts.Record = &rec
	var res TranResult
	mustTran(t, c, opts, &res)
	mustTran(t, c, opts, &res)
	before := c.Stats().TranStepsReused
	d := 40
	allocs := testing.AllocsPerRun(10, func() {
		d = 110 - d // alternate between steps 40 and 70
		setDivergence(w, d)
		mustTran(t, c, opts, &res)
	})
	if allocs != 0 {
		t.Fatalf("resumed transient allocates %v times per run", allocs)
	}
	if c.Stats().TranStepsReused == before {
		t.Fatal("no step was reused")
	}
}

// TranStepsReused is summed by Add and kept out of the rescue and work
// counters.
func TestTranStepsReusedLedger(t *testing.T) {
	s := SolverStats{TranSteps: 10, TranStepsReused: 7}
	if got := s.Add(s).TranStepsReused; got != 14 {
		t.Fatalf("Add: TranStepsReused = %d, want 14", got)
	}
	if rc := s.RescueCounts(); len(rc) != 0 {
		t.Fatalf("RescueCounts = %v, want none", rc)
	}
	if iters, rescues := s.Work(); iters != 0 || rescues != 0 {
		t.Fatalf("Work = %d, %d, want 0, 0", iters, rescues)
	}
}

// A window that is an exact multiple of the step ends on it; any other
// window takes one more step.
func TestTranStepCount(t *testing.T) {
	for _, tc := range []struct {
		stop  float64
		steps int
	}{
		{300 * 2e-12, 300},
		{600e-12, 300},
		{10e-12, 5},
		{373.33 * 2e-12, 374},
	} {
		c, _ := recordBench(recPulse(), recLoad())
		res := mustRun(t, c, TranOpts{Stop: tc.stop, Step: 2e-12})
		if got := len(res.Time) - 1; got != tc.steps {
			t.Fatalf("Stop %g: %d steps, want %d", tc.stop, got, tc.steps)
		}
		if got := c.Stats().TranSteps; got != int64(tc.steps) {
			t.Fatalf("Stop %g: TranSteps %d, want %d", tc.stop, got, tc.steps)
		}
	}
}

// FuzzTranRecord runs a sequence of trials with random PWL inputs, loads
// and windows through one circuit with a record and through a fresh circuit
// without one, and requires every trial to match bit for bit. Each trial
// takes 8 bytes: four input breakpoints, their values, the load step's
// time and the window length.
func FuzzTranRecord(f *testing.F) {
	f.Add([]byte{0, 10, 20, 30, 40, 0, 255, 60, 100, 10, 20, 30, 40, 0, 255, 90, 100})
	f.Add([]byte{1, 50, 60, 200, 210, 0, 255, 0, 50, 70, 80, 200, 210, 0, 255, 0, 50, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{3, 0, 0, 0, 0, 255, 0, 255, 100, 0, 0, 1, 1, 255, 0, 255, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		trap, uic := data[0]&1 != 0, data[0]&2 != 0
		data = data[1:]
		type bench struct {
			c        *Circuit
			vin, iin *PWL
			res      TranResult
		}
		newBench := func() *bench {
			b := &bench{vin: &PWL{}, iin: &PWL{}}
			b.c, _ = recordBench(b.vin, b.iin)
			return b
		}
		withRec, fresh := newBench(), newBench()
		var rec TranRecord
		for trial := 0; len(data) >= 8 && trial < 6; trial++ {
			p := data[:8]
			data = data[8:]
			// Breakpoints on a 0.75-step grid, strictly increasing.
			at := func(i int) float64 { return (float64(p[i]) + float64(i)) * 0.75 * recStep }
			vin := PWL{
				T: []float64{0, at(0), at(1), at(2)},
				V: []float64{0, 0.9 * float64(p[4]&15) / 15, 0.9 * float64(p[4]>>4) / 15, 0.9 * float64(p[5]) / 255},
			}
			iin := PWL{T: []float64{0, at(6), at(6) + recStep}, V: []float64{0, 0, 2e-6}}
			opts := recOpts(trap)
			opts.Stop = float64(50+int(p[7])%51) * recStep
			if uic {
				opts.UIC = true
				opts.IC = map[int]float64{withRec.c.Node("out"): 0.9}
			}
			*withRec.vin, *withRec.iin = vin, iin
			*fresh.vin, *fresh.iin = vin, iin
			ro := opts
			ro.Record = &rec
			err := withRec.c.TransientInto(ro, &withRec.res)
			ferr := fresh.c.TransientInto(opts, &fresh.res)
			if (err == nil) != (ferr == nil) {
				t.Fatalf("trial %d: error %v with a record, %v without", trial, err, ferr)
			}
			if err != nil {
				return
			}
			sameWaveforms(t, "trial", &withRec.res, &fresh.res)
		}
		if st := fresh.c.Stats(); st.TranStepsReused != 0 {
			t.Fatalf("run without a record reused %d steps", st.TranStepsReused)
		}
	})
}
