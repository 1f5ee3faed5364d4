package experiments

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/lifecycle"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
)

// invBench builds the worker bench the lifecycle integration tests share.
func invBench(m core.StatModel) func(int) (*circuits.PooledGate, error) {
	return func(int) (*circuits.PooledGate, error) {
		return circuits.NewPooledInverterFO(3, poolTestVdd, poolTestSizing(), m.Nominal(), false)
	}
}

// invDelay is the plain per-sample INV FO3 delay measurement.
func invDelay(m core.StatModel) func(*circuits.PooledGate, int, *rand.Rand) (float64, error) {
	return func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
		b.Restat(m.Statistical(rng))
		res, err := b.Transient(gateTranStop, gateTranStep)
		if err != nil {
			return 0, err
		}
		return measure.PairDelay(res, b.In, b.Out, poolTestVdd)
	}
}

// TestRunPooledMCKillAndResume drives the whole Config-level lifecycle stack
// on real solves: a checkpointed campaign is cancelled mid-run, then resumed
// from disk at a different worker count; the final results must be
// bit-identical to an uninterrupted run. A third, non-Resume run on the same
// checkpoint directory must start fresh (the stale file is replaced, every
// sample re-runs).
func TestRunPooledMCKillAndResume(t *testing.T) {
	m := mismatchedVS()
	const n = 24
	const seed = int64(5150)
	dir := t.TempDir()

	ref, refRep, err := runPooledMC[*circuits.PooledGate, float64](
		Config{Workers: 2}, "resume-mc", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}
	if refRep.Failed != 0 {
		t.Fatalf("reference run not clean: %s", refRep.String())
	}
	requireSpread(t, "delays", ref)

	// Phase 1: kill after 10 completed samples.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	base := invDelay(m)
	_, _, err = runPooledMC[*circuits.PooledGate, float64](
		Config{Workers: 2, CheckpointDir: dir, Ctx: ctx}, "resume-mc", n, seed,
		invBench(m),
		func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
			d, derr := base(b, idx, rng)
			if done.Add(1) == 10 {
				cancel()
			}
			return d, derr
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want a context.Canceled chain", err)
	}

	// Phase 2: resume from the flushed checkpoint with more workers; only
	// the missing samples may run.
	var rerun atomic.Int64
	out, rep, err := runPooledMC[*circuits.PooledGate, float64](
		Config{Workers: 3, CheckpointDir: dir, Resume: true}, "resume-mc", n, seed,
		invBench(m),
		func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
			rerun.Add(1)
			return base(b, idx, rng)
		})
	if err != nil {
		t.Fatal(err)
	}
	if int(rerun.Load()) >= n {
		t.Fatalf("resume re-ran all %d samples — checkpoint not honoured", n)
	}
	if rep.Attempted != n || rep.Succeeded != n {
		t.Fatalf("resumed report %s, want %d/%d", rep.String(), n, n)
	}
	for i := range ref {
		if out[i] != ref[i] {
			t.Fatalf("sample %d = %.17g after kill+resume, uninterrupted %.17g", i, out[i], ref[i])
		}
	}

	// Phase 3: same directory without Resume — a deliberate fresh start.
	var fresh atomic.Int64
	_, _, err = runPooledMC[*circuits.PooledGate, float64](
		Config{Workers: 2, CheckpointDir: dir}, "resume-mc", n, seed,
		invBench(m),
		func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
			fresh.Add(1)
			return base(b, idx, rng)
		})
	if err != nil {
		t.Fatal(err)
	}
	if int(fresh.Load()) != n {
		t.Fatalf("non-Resume run on an existing checkpoint ran %d samples, want all %d",
			fresh.Load(), n)
	}
}

// TestHangSampleReclassifiedWithoutStallingSiblings is the FaultHang
// acceptance run: one sample's devices wedge inside Eval (no iteration
// boundary is ever reached), so only the hang watchdog can catch it. The
// sample must come back as a typed per-sample OverHang failure within the
// configured budget, and every sibling must complete bit-identically to a
// clean run.
func TestHangSampleReclassifiedWithoutStallingSiblings(t *testing.T) {
	m := mismatchedVS()
	const n = 12
	const seed = int64(777)
	const hungIdx = 3

	clean, _, err := runPooledMC[*circuits.PooledGate, float64](
		Config{Workers: 2}, "hang-mc", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "clean delays", clean)

	release := make(chan struct{})
	defer close(release) // let the abandoned goroutine exit at test end
	base := invDelay(m)
	start := time.Now()
	out, rep, err := runPooledMC[*circuits.PooledGate, float64](
		Config{
			Workers:      2,
			Policy:       montecarlo.SkipUpTo(0.25),
			SampleBudget: lifecycle.Budget{Wall: 500 * time.Millisecond},
			HangGrace:    250 * time.Millisecond,
		}, "hang-mc", n, seed,
		invBench(m),
		func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
			if idx != hungIdx {
				return base(b, idx, rng)
			}
			stat := m.Statistical(rng)
			b.Restat(func(k device.Kind, w, l float64) device.Device {
				return &device.FaultCard{Inner: stat(k, w, l), Mode: device.FaultHang, Release: release}
			})
			res, rerr := b.Transient(gateTranStop, gateTranStep)
			if rerr != nil {
				return 0, rerr
			}
			return measure.PairDelay(res, b.In, b.Out, poolTestVdd)
		})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hung sample aborted the run: %v", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("run with one hung sample took %v — watchdog did not fire", elapsed)
	}
	if rep.Failed != 1 || len(rep.Failures) != 1 || rep.Failures[0].Idx != hungIdx {
		t.Fatalf("report %s", rep.String())
	}
	var be *lifecycle.BudgetError
	if !errors.As(rep.Failures[0].Err, &be) || be.Kind != lifecycle.OverHang {
		t.Fatalf("hung sample failed with %v, want an OverHang budget error", rep.Failures[0].Err)
	}
	if rep.Succeeded != n-1 {
		t.Fatalf("siblings did not all complete: %s", rep.String())
	}
	for i := range clean {
		if i == hungIdx {
			continue
		}
		if out[i] != clean[i] {
			t.Fatalf("sample %d = %.17g, clean run %.17g — hang not isolated", i, out[i], clean[i])
		}
	}
}

// TestConfigHashStable pins the hash that run checkpoints and shard
// journals carry, for the default exact and fast configurations. A change
// here orphans every existing checkpoint and journal: resume rejects them
// as foreign.
func TestConfigHashStable(t *testing.T) {
	cfg := DefaultConfig()
	if got, want := cfg.configHash(), "81c79f6d7b4d8c042ecb68ba39a2c728d78d9d94c5d568d6dda5c1e219b54f3c"; got != want {
		t.Fatalf("exact config hash = %s, want %s", got, want)
	}
	cfg.FastMC = true
	if got, want := cfg.configHash(), "a83cb7762b36e887705e89f48b8fda9ae9d45c1a3e0d1182335b1d99d89075f9"; got != want {
		t.Fatalf("fast config hash = %s, want %s", got, want)
	}
}

// TestDeviceMCHonoursCtx pins that the device-level Monte Carlo experiments
// (Table III, Fig. 4 and the extraction-convergence study) stop on a
// cancelled Config.Ctx like the circuit experiments do, instead of running
// to completion.
func TestDeviceMCHonoursCtx(t *testing.T) {
	s := *testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Cfg.Ctx = ctx
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Table3", func() error { _, err := s.Table3(); return err }},
		{"Fig4", func() error { _, err := s.Fig4(); return err }},
		{"ExtNConv", func() error { _, err := s.ExtNConv(); return err }},
	} {
		if err := c.run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context returned %v, want an error wrapping context.Canceled", c.name, err)
		}
	}
}
