// Package vstat_bench holds the benchmark harness of the reproduction: one
// benchmark per paper table/figure (timing the per-sample unit of work that
// the experiment Monte Carlos), plus ablation benches for the design
// choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Table IV — the paper's runtime/memory comparison — is the pair of
// *VS/*Golden benchmarks for each cell; the per-op ratios are the
// reproduction's speedup numbers.
package vstat_bench

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"vstat/internal/bpv"
	"vstat/internal/bsim"
	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/experiments"
	"vstat/internal/extract"
	"vstat/internal/linalg"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/spice"
	"vstat/internal/stats"
	"vstat/internal/vsmodel"
)

// benchSuite builds the extraction suite once (Fig. 1 fits + Table II BPV)
// with a small Monte Carlo so benchmark startup stays short.
var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func getSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		s, err := experiments.NewSuite(experiments.Config{Seed: 3, Scale: 0.05, Vdd: 0.9})
		if err != nil {
			panic(err)
		}
		suite = s
	})
	return suite
}

// ---- Fig. 1: nominal extraction ----

func BenchmarkFig1Extraction(b *testing.B) {
	ref := bsim.NMOS40(300e-9)
	ds := extract.SampleDevice(&ref, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := extract.FitVS(vsmodel.NMOS40(300e-9), ds); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table II / Fig. 2: BPV solves ----

func bpvData(b *testing.B, s *experiments.Suite) (*bpv.Extraction, []bpv.GeometryVariance) {
	b.Helper()
	return s.ExtractionN, s.MeasuredN
}

func BenchmarkTable2BPVJoint(b *testing.B) {
	ex, data := bpvData(b, getSuite(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.SolveJoint(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2BPVIndividual(b *testing.B) {
	ex, data := bpvData(b, getSuite(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.SolveIndividual(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 3: sensitivity decomposition ----

func BenchmarkFig3Sensitivities(b *testing.B) {
	s := getSuite(b)
	for i := 0; i < b.N; i++ {
		bpv.SensitivitiesAt(s.VS.NMOS, device.NMOS, 600e-9, 40e-9, bpv.Targets{Vdd: 0.9})
	}
}

// ---- Table III / Fig. 4: device-level MC sample ----

func benchDeviceSample(b *testing.B, m core.StatModel) {
	tg := bpv.Targets{Vdd: 0.9}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.EvalVec(m.SampleDevice(rng, device.NMOS, 600e-9, 40e-9))
	}
}

func BenchmarkTable3DeviceSampleVS(b *testing.B)     { benchDeviceSample(b, getSuite(b).VS) }
func BenchmarkTable3DeviceSampleGolden(b *testing.B) { benchDeviceSample(b, getSuite(b).Golden) }

func BenchmarkFig4Ellipse(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.5*xs[i] + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.ConfidenceEllipse(xs, ys, 3)
	}
}

// ---- Fig. 5 / Fig. 6 / Table IV NAND2: one gate-delay MC sample ----

func benchInvDelay(b *testing.B, m core.StatModel) {
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bch := circuits.InverterFO(3, 0.9, sz, m.Statistical(rng))
		res, err := bch.Ckt.Transient(spice.TranOpts{Stop: 560e-12, Step: 1.5e-12})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.PairDelay(res, bch.In, bch.Out, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5InvDelayVS(b *testing.B)     { benchInvDelay(b, getSuite(b).VS) }
func BenchmarkFig5InvDelayGolden(b *testing.B) { benchInvDelay(b, getSuite(b).Golden) }

func BenchmarkFig6LeakageOP(b *testing.B) {
	s := getSuite(b)
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bch := circuits.InverterFO(3, 0.9, sz, s.VS.Statistical(rng))
		bch.Ckt.SetVSource(bch.VinSrc, spice.DC(0))
		op, err := bch.Ckt.OP()
		if err != nil {
			b.Fatal(err)
		}
		measure.Leakage(op, bch.VddSrc)
	}
}

func benchNAND2Delay(b *testing.B, m core.StatModel, vdd float64) {
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bch := circuits.NAND2FO(3, vdd, sz, m.Statistical(rng))
		res, err := bch.Ckt.Transient(spice.TranOpts{Stop: 560e-12, Step: 1.5e-12})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.PairDelay(res, bch.In, bch.Out, vdd); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 7 and the NAND2 row of Table IV.
func BenchmarkFig7NAND2VS(b *testing.B)       { benchNAND2Delay(b, getSuite(b).VS, 0.9) }
func BenchmarkFig7NAND2Golden(b *testing.B)   { benchNAND2Delay(b, getSuite(b).Golden, 0.9) }
func BenchmarkFig7NAND2LowVddVS(b *testing.B) { benchNAND2Delay(b, getSuite(b).VS, 0.55) }
func BenchmarkTable4NAND2VS(b *testing.B)     { benchNAND2Delay(b, getSuite(b).VS, 0.9) }
func BenchmarkTable4NAND2Golden(b *testing.B) { benchNAND2Delay(b, getSuite(b).Golden, 0.9) }

// ---- Fig. 8 / Table IV DFF: one setup-time bisection ----

func benchSetup(b *testing.B, m core.StatModel) {
	opts := measure.DefaultSetupOpts()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ff := circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), m.Statistical(rng))
		if _, err := measure.SetupTime(ff, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SetupVS(b *testing.B)     { benchSetup(b, getSuite(b).VS) }
func BenchmarkFig8SetupGolden(b *testing.B) { benchSetup(b, getSuite(b).Golden) }
func BenchmarkTable4DFFVS(b *testing.B)     { benchSetup(b, getSuite(b).VS) }
func BenchmarkTable4DFFGolden(b *testing.B) { benchSetup(b, getSuite(b).Golden) }

// ---- Fig. 9 / Table IV SRAM: one butterfly + SNM ----

func benchSRAM(b *testing.B, m core.StatModel) {
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := circuits.NewSRAMCell(0.9, circuits.DefaultSRAMSizing(), m.Statistical(rng))
		l, r, err := cell.Butterfly(false, 61)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.SNM(l, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9SRAMVS(b *testing.B)       { benchSRAM(b, getSuite(b).VS) }
func BenchmarkFig9SRAMGolden(b *testing.B)   { benchSRAM(b, getSuite(b).Golden) }
func BenchmarkTable4SRAMVS(b *testing.B)     { benchSRAM(b, getSuite(b).VS) }
func BenchmarkTable4SRAMGolden(b *testing.B) { benchSRAM(b, getSuite(b).Golden) }

// ---- Pooled Monte Carlo engine: rebuild-per-sample vs pooled templates ----
//
// The paired benchmarks behind the pooled-engine speedup claim. Each
// iteration does identical per-sample work — statistical device draw,
// fixed-step transient, pair delay — and the variants differ only in the
// engine: Rebuild constructs the bench from scratch (the pre-pooling
// per-sample cost), Pooled re-stamps a per-worker template (bit-identical
// delays, ~no allocation), PooledFast adds the carried-Jacobian fast solver
// (delays match to the fast tolerance floor).

func pooledBenchSizing() circuits.Sizing {
	return circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
}

func benchPooledGateDelay(b *testing.B, bch *circuits.PooledGate, m core.StatModel, vdd float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bch.Restat(m.Statistical(rng))
		res, err := bch.Transient(560e-12, 1.5e-12)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := measure.PairDelay(res, bch.In, bch.Out, vdd); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPooledInv(b *testing.B, fast bool) {
	m := core.DefaultStatVS()
	bch, err := circuits.NewPooledInverterFO(3, 0.9, pooledBenchSizing(), m.Nominal(), fast)
	if err != nil {
		b.Fatal(err)
	}
	benchPooledGateDelay(b, bch, m, 0.9)
}

func benchPooledNand2(b *testing.B, fast bool) {
	m := core.DefaultStatVS()
	bch, err := circuits.NewPooledNAND2FO(3, 0.9, pooledBenchSizing(), m.Nominal(), fast)
	if err != nil {
		b.Fatal(err)
	}
	benchPooledGateDelay(b, bch, m, 0.9)
}

func BenchmarkMCInvFO3Rebuild(b *testing.B)      { benchInvDelay(b, core.DefaultStatVS()) }
func BenchmarkMCInvFO3Pooled(b *testing.B)       { benchPooledInv(b, false) }
func BenchmarkMCInvFO3PooledFast(b *testing.B)   { benchPooledInv(b, true) }
func BenchmarkMCNand2FO3Rebuild(b *testing.B)    { benchNAND2Delay(b, core.DefaultStatVS(), 0.9) }
func BenchmarkMCNand2FO3Pooled(b *testing.B)     { benchPooledNand2(b, false) }
func BenchmarkMCNand2FO3PooledFast(b *testing.B) { benchPooledNand2(b, true) }

// ---- Ablations (DESIGN.md §5) ----

// Raw model evaluation cost: the purest form of the paper's Table IV claim
// that the ultra-compact VS model is cheaper per evaluation.
func benchRawEval(b *testing.B, d device.Device) {
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		v := 0.9 * float64(i%16) / 15
		sink += d.Eval(v, 0.9, 0, 0).Id
	}
	_ = sink
}

func BenchmarkAblationRawEvalVS(b *testing.B) {
	n := vsmodel.NMOS40(1e-6)
	benchRawEval(b, &n)
}

func BenchmarkAblationRawEvalGolden(b *testing.B) {
	n := bsim.NMOS40(1e-6)
	benchRawEval(b, &n)
}

// Transient integrator ablation: trapezoidal vs backward Euler on the same
// inverter bench.
func benchIntegrator(b *testing.B, trap bool) {
	s := getSuite(b)
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	bch := circuits.InverterFO(3, 0.9, sz, s.VS.Nominal())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bch.Ckt.Transient(spice.TranOpts{Stop: 560e-12, Step: 1.5e-12, Trap: trap}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTranBE(b *testing.B)   { benchIntegrator(b, false) }
func BenchmarkAblationTranTrap(b *testing.B) { benchIntegrator(b, true) }

// α2=α3 constraint ablation: constrained vs unconstrained joint solve.
func BenchmarkAblationBPVUnconstrained(b *testing.B) {
	ex, data := bpvData(b, getSuite(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.SolveJointUnconstrained(data); err != nil {
			b.Fatal(err)
		}
	}
}

// Monte Carlo driver overhead.
func BenchmarkAblationMCDriver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := montecarlo.MapCtx(context.Background(), 64, 1, 0, func(idx int, rng *rand.Rand) (float64, error) {
			return rng.NormFloat64(), nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Dense LU solve at MNA-typical sizes.
func BenchmarkAblationLUSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 16
	a := linalg.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu, err := linalg.NewLU(a)
		if err != nil {
			b.Fatal(err)
		}
		lu.Solve(rhs)
	}
}
