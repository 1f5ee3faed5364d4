package spice

import (
	"log/slog"
	"strings"
	"testing"
	"time"

	"vstat/internal/device"
	"vstat/internal/obs"
)

// TestInstrumentedHotPathAllocFreeWhenDisabled is the zero-overhead guard:
// with observability disabled (nil scope, the default), the instrumented
// solver hot path must allocate nothing per transient — the same contract
// TestTransientIntoReusesStorageAllocFree enforces pre-instrumentation.
func TestInstrumentedHotPathAllocFreeWhenDisabled(t *testing.T) {
	obs.SetEnabled(false)
	for _, fast := range []bool{false, true} {
		c, _ := testInverter()
		if c.obsScope != nil {
			t.Fatal("fresh circuit should have no observability scope")
		}
		opts := TranOpts{Stop: 100e-12, Step: 1e-12, Fast: fast}
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
			t.Fatalf("fast=%v: instrumented TransientInto allocates %.1f objects per run with observability disabled, want 0", fast, allocs)
		}
	}
}

// TestInstrumentedHotPathAllocFreeWhenEnabled: even with a live scope
// attached, the per-transient recording path (span enters/exits, histogram
// observes) must not allocate.
func TestInstrumentedHotPathAllocFreeWhenEnabled(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	reg := obs.NewRegistry()
	pm := obs.NewPhaseMetrics(reg)
	sc := obs.NewScope(reg.NewShard(), pm)

	c, _ := testInverter()
	c.SetObs(sc)
	opts := TranOpts{Stop: 100e-12, Step: 1e-12}
	var res TranResult
	if err := c.TransientInto(opts, &res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := c.TransientInto(opts, &res); err != nil {
			t.Fatal(err)
		}
		sc.EndSample()
	})
	if allocs != 0 {
		t.Fatalf("instrumented TransientInto allocates %.1f objects per run with a live scope, want 0", allocs)
	}
}

// TestSolverPhaseAttribution: a transient on an instrumented circuit books
// device-eval, assemble-J, lu-factor, tri-solve and newton-solve self-time
// that sums to roughly the wall time of the run, and every one of them is
// nonempty (every transient evaluates its devices, refreshes the Jacobian
// at least once and runs at least one triangular solve per step).
func TestSolverPhaseAttribution(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	reg := obs.NewRegistry()
	pm := obs.NewPhaseMetrics(reg)
	sc := obs.NewScope(reg.NewShard(), pm)

	c, _ := testInverter()
	c.SetObs(sc)
	var res TranResult
	start := time.Now()
	if err := c.TransientInto(TranOpts{Stop: 400e-12, Step: 1e-12}, &res); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Nanoseconds()
	sc.EndSample()

	snap := reg.Snapshot()
	assemble := snap.Find("mc_phase_assemble-J_ns").Sum
	factor := snap.Find("mc_phase_lu-factor_ns").Sum
	tri := snap.Find("mc_phase_tri-solve_ns").Sum
	solve := snap.Find("mc_phase_newton-solve_ns").Sum
	devEval := snap.Find("mc_phase_device-eval_ns").Sum
	if devEval <= 0 {
		t.Fatal("device-eval phase recorded no time")
	}
	if assemble <= 0 {
		t.Fatal("assemble-J phase recorded no time")
	}
	if factor <= 0 {
		t.Fatal("lu-factor phase recorded no time")
	}
	if tri <= 0 {
		t.Fatal("tri-solve phase recorded no time")
	}
	if solve <= 0 {
		t.Fatal("newton-solve phase recorded no time")
	}
	total := devEval + assemble + factor + tri + solve
	if float64(total) < 0.5*float64(wall) || total > wall+wall/10 {
		t.Fatalf("phase sum %v vs wall %v: expected the solver phases to cover the run",
			time.Duration(total), time.Duration(wall))
	}
}

// TestDCRescueTraces: a DC rescue emits a structured trace carrying the
// ladder stage, and the registry-facing counters (SolverStats) agree.
func TestDCRescueTraces(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	reg := obs.NewRegistry()
	pm := obs.NewPhaseMetrics(reg)
	sc := obs.NewScope(reg.NewShard(), pm)
	var buf strings.Builder
	sc.SetEvents(obs.NewEventSink(&buf, slog.LevelInfo, 1))

	// Fault the NMOS through the plain-Newton window so the gmin rung
	// rescues the OP (the calibration pattern of rescue_test.go).
	const maxNewton = 20
	ePlain := plainStageEvals(t, maxNewton)
	card := &device.FaultCard{Inner: cleanNMOS(), Mode: device.FaultNoConverge, Until: ePlain}
	c, _ := rescueInverter(card, DC(0.45))
	c.MaxNewton = maxNewton
	c.SetObs(sc)
	c.SetObsSample(7)
	if _, err := c.OP(); err != nil {
		t.Fatalf("OP not rescued: %v", err)
	}
	if c.Stats().DCGminRescues != 1 {
		t.Fatalf("expected a gmin rescue, stats: %+v", c.Stats())
	}
	out := buf.String()
	for _, want := range []string{"msg=rescue", "sample=7", "stage=dc-gmin"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rescue trace missing %q:\n%s", want, out)
		}
	}
}
