package experiments

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"testing"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/lifecycle"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
)

// enableObs flips the global observability switch for one test.
func enableObs(t *testing.T) {
	t.Helper()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
}

// phaseTotalNS sums the per-phase wall-time counters of a snapshot.
func phaseTotalNS(snap obs.Snapshot) int64 {
	var sum int64
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		sum += snap.FindCounter("mc_phase_" + p.String() + "_ns_total")
	}
	return sum
}

// TestMCObservabilityAcceptance is the tentpole acceptance run: a
// 1000-sample INV FO3 delay Monte Carlo with instrumentation attached. The
// per-phase self-times must sum to the run's wall time within 10% at
// workers=1 (the phases are disjoint and cover everything but the template
// build), every phase histogram must hold exactly one observation per
// sample, the model-evaluation and bypassed-evaluation counters must be
// non-zero and the same at every worker count, and the sampled delays must
// be bit-identical to an uninstrumented run.
func TestMCObservabilityAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-sample instrumented MC in -short")
	}
	enableObs(t)
	m := mismatchedVS()
	const n = 1000
	const seed = int64(20130318)
	build := pooledInvFO3(poolTestVdd, poolTestSizing())

	plain, _, err := pooledDelayMC(Config{Workers: 4}, "obs-plain", n, seed, m, poolTestVdd, build, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "delays", plain)

	var evals, bypassed int64 // model_evals_total and model_evals_bypassed_total at workers=1
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		mi := NewMCInstr(reg)
		start := time.Now()
		got, rep, err := pooledDelayMC(Config{Workers: workers}, "obs-instr", n, seed, m, poolTestVdd, build, mi)
		wall := time.Since(start)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range plain {
			if got[i] != plain[i] {
				t.Fatalf("workers=%d: instrumentation changed sample %d: %.17g vs %.17g",
					workers, i, got[i], plain[i])
			}
		}
		snap := reg.Snapshot()
		if c := snap.FindCounter("mc_samples_total"); c != n {
			t.Fatalf("workers=%d: mc_samples_total = %d, want %d", workers, c, n)
		}
		ev := snap.FindCounter("model_evals_total")
		if ev <= 0 {
			t.Fatalf("workers=%d: model_evals_total = %d, want > 0", workers, ev)
		}
		if evals == 0 {
			evals = ev
		} else if ev != evals {
			t.Fatalf("model_evals_total = %d at workers=%d, %d at workers=1", ev, workers, evals)
		}
		by := snap.FindCounter("model_evals_bypassed_total")
		if by <= 0 {
			t.Fatalf("workers=%d: model_evals_bypassed_total = %d, want > 0", workers, by)
		}
		if bypassed == 0 {
			bypassed = by
		} else if by != bypassed {
			t.Fatalf("model_evals_bypassed_total = %d at workers=%d, %d at workers=1", by, workers, bypassed)
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			h := snap.Find("mc_phase_" + p.String() + "_ns")
			if h.Count != n {
				t.Fatalf("workers=%d: phase %s histogram holds %d observations, want %d",
					workers, p, h.Count, n)
			}
		}
		if !maps.Equal(RescuedCounters(snap), rep.Rescued) {
			t.Fatalf("workers=%d: registry rescues %v != report %v",
				workers, RescuedCounters(snap), rep.Rescued)
		}
		if workers == 1 {
			sum := time.Duration(phaseTotalNS(snap))
			lo := wall - wall/10
			hi := wall + wall/10
			if sum < lo || sum > hi {
				t.Fatalf("phase self-times sum to %v, outside 10%% of wall %v", sum, wall)
			}
		}
	}
}

// gminFaultFactory wraps the FIRST drawn device in a FaultCard whose fault
// window closes after `until` evaluations: plain Newton exhausts inside the
// window, and a later rescue rung runs past it and recovers the operating
// point. until<=0 keeps the window open forever.
func gminFaultFactory(stat circuits.Factory, until int64, card **device.FaultCard) circuits.Factory {
	done := false
	return func(k device.Kind, w, l float64) device.Device {
		d := stat(k, w, l)
		if done {
			return d
		}
		done = true
		*card = &device.FaultCard{Inner: d, Mode: device.FaultNoConverge, Until: until}
		return *card
	}
}

// TestMCRescueCountersMatchReportExactly is the rescue-attribution
// acceptance: with a fault-injected sample that plain Newton cannot solve
// but the gmin rung can, the registry's per-stage rescue counters must
// equal RunReport.Rescued exactly — for any worker count, and with at
// least one genuinely rescued stage so the equality is not vacuous.
func TestMCRescueCountersMatchReportExactly(t *testing.T) {
	enableObs(t)
	m := mismatchedVS()
	const n = 300
	const seed = int64(2013)
	const faultIdx = 137
	const maxNewton = 20
	sz := poolTestSizing()

	// Calibrate the fault window: find an Until that makes plain Newton
	// exhaust inside the window while a later ladder rung runs past it and
	// rescues. OP always restarts from the zero state, so a window that
	// rescues on a fresh bench rescues identically inside the pooled run
	// (the sample's device draws are replayed from the same RNG stream).
	calibrate := func() int64 {
		for _, until := range []int64{
			int64(maxNewton) + 1, int64(maxNewton) + 5, 2 * int64(maxNewton),
			2*int64(maxNewton) + 10, 3 * int64(maxNewton), 4 * int64(maxNewton),
			6 * int64(maxNewton), 10 * int64(maxNewton),
		} {
			b, err := circuits.NewPooledInverterFO(3, poolTestVdd, sz, m.Nominal(), false)
			if err != nil {
				t.Fatal(err)
			}
			b.Ckt.MaxNewton = maxNewton
			var card *device.FaultCard
			b.Restat(gminFaultFactory(m.Statistical(montecarlo.SampleRNG(seed, faultIdx)), until, &card))
			if _, err := b.Ckt.OP(); err != nil {
				continue
			}
			st := b.Ckt.Stats()
			if st.DCGminRescues+st.DCSourceRescues+st.DCPseudoRescues > 0 {
				return until
			}
			// Converged without rescue work: the window closed inside the
			// plain stage, so it cannot grow a rescue — keep widening.
		}
		t.Fatal("no fault window produced a rescued operating point")
		return 0
	}
	until := calibrate()

	newBench := func() (*circuits.PooledGate, error) {
		return circuits.NewPooledInverterFO(3, poolTestVdd, sz, m.Nominal(), false)
	}

	var firstRescued map[string]int64
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		mi := NewMCInstr(reg)
		_, rep, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, workers, montecarlo.RunOpts{Policy: montecarlo.SkipUpTo(0.05)},
			newObsState(mi, newBench),
			func(st obsState[*circuits.PooledGate], idx int, rng *rand.Rand) (float64, error) {
				b, so := st.B, st.So
				b.Ckt.SetObsSample(idx)
				stat := m.Statistical(rng)
				if idx == faultIdx {
					saved := b.Ckt.MaxNewton
					b.Ckt.MaxNewton = maxNewton
					defer func() { b.Ckt.MaxNewton = saved }()
					var card *device.FaultCard
					stat = gminFaultFactory(stat, until, &card)
				}
				b.Restat(so.Factory(stat))
				op, err := b.Ckt.OP()
				if err != nil {
					so.End(b.Ckt.Stats())
					return 0, err
				}
				v := op.V(b.Out)
				so.End(b.Ckt.Stats())
				return v, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var rescued int64
		for _, v := range rep.Rescued {
			rescued += v
		}
		if rescued < 1 {
			t.Fatalf("workers=%d: injected fault was not rescued: %s", workers, rep.String())
		}
		got := RescuedCounters(reg.Snapshot())
		if !maps.Equal(got, rep.Rescued) {
			t.Fatalf("workers=%d: registry rescues %v != report %v", workers, got, rep.Rescued)
		}
		if firstRescued == nil {
			firstRescued = rep.Rescued
		} else if !maps.Equal(firstRescued, rep.Rescued) {
			t.Fatalf("rescue counts vary with worker count: %v vs %v", firstRescued, rep.Rescued)
		}
	}
}

// TestRecordRunLifecycle checks that a run report's budget overruns and
// drained in-flight samples land in the lifecycle counters, and that a
// clean report allocates no shard at all.
func TestRecordRunLifecycle(t *testing.T) {
	enableObs(t)
	reg := obs.NewRegistry()
	mi := NewMCInstr(reg)

	// Clean report: no counters, no shard.
	mi.RecordRunLifecycle(montecarlo.RunReport{Succeeded: 5})
	snap := reg.Snapshot()
	if v := snap.FindCounter("mc_samples_budget_total"); v != 0 {
		t.Fatalf("clean run: budget counter = %d, want 0", v)
	}

	rep := montecarlo.RunReport{
		Interrupted: 2,
		Failures: []montecarlo.SampleFailure{
			{Idx: 1, Err: &lifecycle.BudgetError{Kind: lifecycle.OverWall}},
			{Idx: 3, Err: errors.New("plain failure")},
			{Idx: 7, Err: &lifecycle.BudgetError{Kind: lifecycle.OverHang}},
		},
	}
	mi.RecordRunLifecycle(rep)
	snap = reg.Snapshot()
	if v := snap.FindCounter("mc_samples_budget_total"); v != 2 {
		t.Fatalf("budget counter = %d, want 2", v)
	}
	if v := snap.FindCounter("mc_samples_cancelled_total"); v != 2 {
		t.Fatalf("cancelled counter = %d, want 2", v)
	}

	// A nil handle is a no-op, not a panic.
	var nilMI *MCInstr
	nilMI.RecordRunLifecycle(rep)
}
