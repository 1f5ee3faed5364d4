package obs

import (
	"testing"
	"time"
)

func newTestScope(t *testing.T) (*Scope, *Registry) {
	t.Helper()
	SetEnabled(true)
	t.Cleanup(func() { SetEnabled(false) })
	r := NewRegistry()
	pm := NewPhaseMetrics(r)
	sc := NewScope(r.NewShard(), pm)
	if sc == nil {
		t.Fatal("NewScope returned nil with observability enabled")
	}
	return sc, r
}

// TestScopeSelfTimeDisjoint checks the pause-stack accounting: a nested
// span's time accrues only to the inner phase, so phase times are disjoint
// and sum to the instrumented wall time.
func TestScopeSelfTimeDisjoint(t *testing.T) {
	sc, r := newTestScope(t)

	wallStart := time.Now()
	sc.Enter(PhaseSolve)
	time.Sleep(20 * time.Millisecond)
	sc.Enter(PhaseFactor) // pauses solve
	time.Sleep(20 * time.Millisecond)
	sc.Exit() // resumes solve
	time.Sleep(20 * time.Millisecond)
	sc.Exit()
	wall := time.Since(wallStart).Nanoseconds()
	sc.EndSample()

	snap := r.Snapshot()
	solve := snap.Find("mc_phase_newton-solve_ns").Sum
	factor := snap.Find("mc_phase_lu-factor_ns").Sum
	if solve < int64(30*time.Millisecond) {
		t.Fatalf("solve self-time = %v, want >= 30ms", time.Duration(solve))
	}
	if factor < int64(15*time.Millisecond) {
		t.Fatalf("factor self-time = %v, want >= 15ms", time.Duration(factor))
	}
	total := solve + factor
	if total > wall || float64(total) < 0.9*float64(wall) {
		t.Fatalf("phase sum %v vs wall %v: want within [0.9*wall, wall]",
			time.Duration(total), time.Duration(wall))
	}
}

// TestScopeEndSampleResets checks per-sample accumulators clear between
// samples and every phase is observed once per sample.
func TestScopeEndSampleResets(t *testing.T) {
	sc, r := newTestScope(t)
	for i := 0; i < 3; i++ {
		sc.Enter(PhaseMeasure)
		sc.Exit()
		sc.EndSample()
	}
	snap := r.Snapshot()
	for p := Phase(0); p < NumPhases; p++ {
		h := snap.Find("mc_phase_" + p.String() + "_ns")
		if h.Count != 3 {
			t.Fatalf("phase %v observed %d times, want 3", p, h.Count)
		}
	}
}

func TestNewScopeDisabledReturnsNil(t *testing.T) {
	SetEnabled(false)
	r := NewRegistry()
	pm := NewPhaseMetrics(r)
	if sc := NewScope(r.NewShard(), pm); sc != nil {
		t.Fatal("NewScope should return nil while disabled")
	}
}

// TestNilScopeIsNoOp: the whole instrumentation surface must be callable
// on a nil scope — this is what the disabled hot path exercises.
func TestNilScopeIsNoOp(t *testing.T) {
	var sc *Scope
	sc.Enter(PhaseSolve)
	sc.Exit()
	sc.EndSample()
	sc.Observe(0, 1)
	sc.Add(0, 1)
	sc.Set(0, 1)
	sc.SetEvents(nil)
	if sc.Shard() != nil || sc.Events() != nil {
		t.Fatal("nil scope accessors should return nil")
	}
}

// TestScopeAllocFree guards both sides of the gate: nil-scope calls (the
// disabled path) and live-scope span/flush calls (the enabled path) must
// be allocation-free.
func TestScopeAllocFree(t *testing.T) {
	var nilSc *Scope
	if n := testing.AllocsPerRun(200, func() {
		nilSc.Enter(PhaseSolve)
		nilSc.Enter(PhaseFactor)
		nilSc.Exit()
		nilSc.Exit()
		nilSc.EndSample()
	}); n != 0 {
		t.Fatalf("nil scope allocates %v allocs/op, want 0", n)
	}

	sc, _ := newTestScope(t)
	if n := testing.AllocsPerRun(200, func() {
		sc.Enter(PhaseSolve)
		sc.Enter(PhaseFactor)
		sc.Exit()
		sc.Exit()
		sc.EndSample()
	}); n != 0 {
		t.Fatalf("live scope allocates %v allocs/op, want 0", n)
	}
}

func TestScopeStackOverflowIsSafe(t *testing.T) {
	sc, _ := newTestScope(t)
	for i := 0; i < 40; i++ {
		sc.Enter(PhaseSolve)
	}
	for i := 0; i < 40; i++ {
		sc.Exit()
	}
	sc.Exit() // extra exit must not underflow
	sc.EndSample()
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseDraw:       "sample-draw",
		PhaseRestamp:    "re-stamp",
		PhaseAssemble:   "assemble-J",
		PhaseFactor:     "lu-factor",
		PhaseTriSolve:   "tri-solve",
		PhaseSolve:      "newton-solve",
		PhaseMeasure:    "measure",
		PhaseDeviceEval: "device-eval",
		Phase(99):       "unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Fatalf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}
