package experiments

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/variation"
)

const poolTestVdd = 0.9

func poolTestSizing() circuits.Sizing {
	return circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
}

// mismatchedVS is the VS model with the golden mismatch coefficients.
// core.DefaultStatVS carries zero α's, so its Statistical factory returns
// the nominal card for every device; a test that compares samples must
// draw from this model, or it compares identical samples.
func mismatchedVS() *core.StatVS {
	m := core.DefaultStatVS()
	m.AlphaN = variation.GoldenTruthNMOS()
	m.AlphaP = variation.GoldenTruthPMOS()
	return m
}

// requireSpread fails when every sample equals the first. A bit-identity
// check over identical samples would also pass if a Restat installed no
// new card or a merge permuted the samples.
func requireSpread[T comparable](t *testing.T, what string, samples []T) {
	t.Helper()
	for _, s := range samples {
		if s != samples[0] {
			return
		}
	}
	t.Fatalf("%s: all %d samples are equal; they carry no mismatch", what, len(samples))
}

// TestPooledInvDelayBitIdentical is the pooling determinism contract: the
// pooled engine must reproduce the unpooled rebuild-per-sample delays bit
// for bit, for any worker count.
func TestPooledInvDelayBitIdentical(t *testing.T) {
	m := mismatchedVS()
	const n = 8
	const seed = int64(1234)
	want, err := montecarlo.MapCtx(context.Background(), n, seed, 1, func(idx int, rng *rand.Rand) (float64, error) {
		return invDelaySample(m, rng, poolTestVdd, poolTestSizing())
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "INV FO3 delays", want)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got, _, err := pooledDelayMC(Config{Workers: workers}, "inv-test", n, seed, m, poolTestVdd,
			pooledInvFO3(poolTestVdd, poolTestSizing()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pooled sample %d = %.17g, unpooled %.17g",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestPooledNandDelayBitIdentical(t *testing.T) {
	m := mismatchedVS()
	const n = 4
	const seed = int64(77)
	want, err := montecarlo.MapCtx(context.Background(), n, seed, 1, func(idx int, rng *rand.Rand) (float64, error) {
		return nandDelaySample(m, rng, poolTestVdd, poolTestSizing())
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "NAND2 FO3 delays", want)
	for _, workers := range []int{1, 3} {
		got, _, err := pooledDelayMC(Config{Workers: workers}, "nand-test", n, seed, m, poolTestVdd,
			pooledNand2FO3(poolTestVdd, poolTestSizing()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pooled sample %d = %.17g, unpooled %.17g",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestPooledSNMBitIdentical covers the bespoke SRAM re-stamp: the pooled
// cell draws its six devices in NewSRAMCell order but installs them through
// an explicit index map into two shared half-circuits.
func TestPooledSNMBitIdentical(t *testing.T) {
	m := mismatchedVS()
	const n = 4
	const seed = int64(99)
	want, err := montecarlo.MapCtx(context.Background(), n, seed, 1, func(idx int, rng *rand.Rand) ([2]float64, error) {
		r, h, err := snmSample(m, rng, poolTestVdd)
		return [2]float64{r, h}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "SNMs", want)
	for _, workers := range []int{1, 3} {
		got, _, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, workers, montecarlo.RunOpts{},
			func(int) (*circuits.PooledSRAM, error) {
				return circuits.NewPooledSRAM(poolTestVdd, circuits.DefaultSRAMSizing(),
					m.Nominal(), butterflyPoints, false), nil
			},
			func(cell *circuits.PooledSRAM, idx int, rng *rand.Rand) ([2]float64, error) {
				r, h, err := pooledSNMSample(cell, m, rng)
				return [2]float64{r, h}, err
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pooled SNM sample %d = %v, unpooled %v",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestPooledSetupTimeBitIdentical(t *testing.T) {
	m := mismatchedVS()
	const n = 2
	const seed = int64(55)
	opts := measure.DefaultSetupOpts()
	want, err := montecarlo.MapCtx(context.Background(), n, seed, 1, func(idx int, rng *rand.Rand) (float64, error) {
		ff := circuits.NewDFF(poolTestVdd, circuits.DefaultDFFSizing(), m.Statistical(rng))
		return measure.SetupTime(ff, opts)
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "setup times", want)
	got, _, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, 2, montecarlo.RunOpts{},
		func(int) (*circuits.PooledDFF, error) {
			return circuits.NewPooledDFF(poolTestVdd, circuits.DefaultDFFSizing(), m.Nominal(), false), nil
		},
		func(ff *circuits.PooledDFF, idx int, rng *rand.Rand) (float64, error) {
			ff.Restat(m.Statistical(rng))
			o := opts
			o.Res, o.Fast = &ff.Res, ff.Fast
			return measure.SetupTime(ff.DFF, o)
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled setup sample %d = %.17g, unpooled %.17g", i, got[i], want[i])
		}
	}
}

// TestPooledFastDelayAccuracy bounds the fast solver path against exact:
// the relaxed tolerances and carried factors may move a delay only at the
// solver tolerance floor, far below the mismatch-induced spread.
func TestPooledFastDelayAccuracy(t *testing.T) {
	m := mismatchedVS()
	const n = 4
	const seed = int64(4321)
	exact, _, err := pooledDelayMC(Config{Workers: 1}, "fast-exact", n, seed, m, poolTestVdd,
		pooledInvFO3(poolTestVdd, poolTestSizing()), nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "exact delays", exact)
	fast, _, err := pooledDelayMC(Config{Workers: 1, FastMC: true}, "fast-1", n, seed, m, poolTestVdd,
		pooledInvFO3(poolTestVdd, poolTestSizing()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if rel := math.Abs(fast[i]-exact[i]) / math.Abs(exact[i]); rel > 1e-4 {
			t.Fatalf("fast delay %d deviates by %.3g relative (exact %g s, fast %g s)",
				i, rel, exact[i], fast[i])
		}
	}
	// Fast mode carries no state across samples (Restat invalidates the
	// factorization), so it must also be worker-invariant.
	fast4, _, err := pooledDelayMC(Config{Workers: 4, FastMC: true}, "fast-4", n, seed, m, poolTestVdd,
		pooledInvFO3(poolTestVdd, poolTestSizing()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fast {
		if fast4[i] != fast[i] {
			t.Fatalf("fast sample %d varies with worker count: %.17g vs %.17g",
				i, fast4[i], fast[i])
		}
	}
}

// TestPooledFastSetupAccuracy is the register twin of
// TestPooledFastDelayAccuracy: on mismatched registers, the fast path's
// setup times stay within the bisection resolution of the exact path's,
// although its trials resume from the register's record with a fresh
// factorization instead of the one the skipped steps would have carried.
func TestPooledFastSetupAccuracy(t *testing.T) {
	m := core.DefaultStatVS()
	m.AlphaN, m.AlphaP = variation.GoldenTruthNMOS(), variation.GoldenTruthPMOS()
	const n = 8
	const seed = int64(808)
	opts := measure.DefaultSetupOpts()
	setup := func(fast bool) []float64 {
		out, _, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, 2, montecarlo.RunOpts{},
			func(int) (*circuits.PooledDFF, error) {
				return circuits.NewPooledDFF(poolTestVdd, circuits.DefaultDFFSizing(), m.Nominal(), fast), nil
			},
			func(ff *circuits.PooledDFF, idx int, rng *rand.Rand) (float64, error) {
				ff.Restat(m.Statistical(rng))
				o := opts
				o.Res, o.Fast = &ff.Res, ff.Fast
				return measure.SetupTime(ff.DFF, o)
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	exact, fast := setup(false), setup(true)
	for i := range exact {
		if d := math.Abs(fast[i] - exact[i]); d > opts.Tol {
			t.Fatalf("fast setup time %d deviates by %g s (exact %g s, fast %g s), over Tol %g s",
				i, d, exact[i], fast[i], opts.Tol)
		}
	}
}

// TestPooledAllocRegression pins the headline allocation win: a pooled
// per-sample transient must allocate at least 10x less than the
// rebuild-per-sample baseline. The pooled transient and the pooled SRAM
// butterfly's four DC sweeps allocate nothing at all.
func TestPooledAllocRegression(t *testing.T) {
	m := mismatchedVS()
	sz := poolTestSizing()

	idx := 0
	rebuild := testing.AllocsPerRun(3, func() {
		rng := montecarlo.SampleRNG(5, idx)
		idx++
		if _, err := invDelaySample(m, rng, poolTestVdd, sz); err != nil {
			t.Fatal(err)
		}
	})

	bench, err := circuits.NewPooledInverterFO(3, poolTestVdd, sz, m.Nominal(), false)
	if err != nil {
		t.Fatal(err)
	}
	idx = 0
	pooled := testing.AllocsPerRun(3, func() {
		rng := montecarlo.SampleRNG(5, idx)
		idx++
		bench.Restat(m.Statistical(rng))
		res, err := bench.Transient(gateTranStop, gateTranStep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := measure.PairDelay(res, bench.In, bench.Out, poolTestVdd); err != nil {
			t.Fatal(err)
		}
	})

	if pooled*10 > rebuild {
		t.Fatalf("pooled sample allocates %.1f objects vs rebuild %.1f (< 10x win)", pooled, rebuild)
	}
	// And the transient alone — the solver hot path — must be allocation-free.
	transientOnly := testing.AllocsPerRun(3, func() {
		if _, err := bench.Transient(gateTranStop, gateTranStep); err != nil {
			t.Fatal(err)
		}
	})
	if transientOnly != 0 {
		t.Fatalf("pooled transient allocates %.1f objects per run, want 0", transientOnly)
	}

	sram := circuits.NewPooledSRAM(poolTestVdd, circuits.DefaultSRAMSizing(), m.Nominal(), butterflyPoints, false)
	read := false
	butterfly := testing.AllocsPerRun(4, func() {
		read = !read
		if _, _, err := sram.Butterfly(read); err != nil {
			t.Fatal(err)
		}
	})
	if butterfly != 0 {
		t.Fatalf("pooled SRAM butterfly allocates %.1f objects per call, want 0", butterfly)
	}
}
