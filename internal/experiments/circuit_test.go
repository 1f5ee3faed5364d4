package experiments

import (
	"math"
	"testing"
)

func TestFig4BivariateComparison(t *testing.T) {
	s := testSuite(t)
	r, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	// Positive Ion/log10Ioff correlation in both models: low-VT samples
	// drive harder and leak more (the upward trend of the paper's scatter).
	if r.CorrGolden < 0.3 || r.CorrVS < 0.3 {
		t.Fatalf("correlations too weak: golden %g, VS %g", r.CorrGolden, r.CorrVS)
	}
	// Cross-model containment: VS 3σ ellipse holds most golden samples.
	if r.CoverageVS[2] < 0.9 {
		t.Fatalf("VS 3σ ellipse covers only %g of golden samples", r.CoverageVS[2])
	}
	// Ellipse sizes comparable between models (within 2× on both axes).
	for k := 0; k < 3; k++ {
		if r.VSEll[k].A < r.GoldenEll[k].A/2 || r.VSEll[k].A > r.GoldenEll[k].A*2 {
			t.Fatalf("%dσ major axes diverge: %g vs %g", k+1, r.VSEll[k].A, r.GoldenEll[k].A)
		}
	}
	pinOutput(t, "Fig4", r.String())
}

func TestFig5DelayDistributions(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sizes) != 3 {
		t.Fatalf("sizes %d", len(r.Sizes))
	}
	for _, sz := range r.Sizes {
		// Delays are ps-scale, positive, with small relative σ.
		if sz.Golden.Mean < 1e-12 || sz.Golden.Mean > 60e-12 {
			t.Fatalf("%s: golden mean %g", sz.Label, sz.Golden.Mean)
		}
		// Headline claim: VS delay distribution matches golden.
		if d := math.Abs(sz.VS.Mean-sz.Golden.Mean) / sz.Golden.Mean; d > 0.15 {
			t.Fatalf("%s: mean delay differs %g%%", sz.Label, 100*d)
		}
		if rσ := sz.VS.SD / sz.Golden.SD; rσ < 0.5 || rσ > 2 {
			t.Fatalf("%s: σ ratio %g", sz.Label, rσ)
		}
		if len(sz.VS.KDEx) == 0 {
			t.Fatal("missing KDE series")
		}
	}
	pinOutput(t, "Fig5", r.String())
}

func TestFig6LeakageFrequency(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// Leakage spreads over an order of magnitude or more; frequency spread
	// is tens of percent (the paper reports 37× and 45–50% at N=5000; a
	// small-N run sees a smaller extreme ratio).
	if r.GoldenLeakSpread < 3 || r.VSLeakSpread < 3 {
		t.Fatalf("leakage spreads too tight: %g / %g", r.GoldenLeakSpread, r.VSLeakSpread)
	}
	if r.GoldenFreqSpreadPct < 5 || r.GoldenFreqSpreadPct > 100 {
		t.Fatalf("golden freq spread %g%%", r.GoldenFreqSpreadPct)
	}
	if d := math.Abs(r.VSFreqSpreadPct - r.GoldenFreqSpreadPct); d > 25 {
		t.Fatalf("freq spreads diverge: %g vs %g", r.VSFreqSpreadPct, r.GoldenFreqSpreadPct)
	}
	pinOutput(t, "Fig6", r.String())
}

func TestFig7NonGaussianOnset(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vdds) != 3 {
		t.Fatalf("vdd columns %d", len(r.Vdds))
	}
	// Mean delay grows as Vdd falls; relative σ grows too.
	for i := 1; i < 3; i++ {
		if r.Vdds[i].Golden.Mean <= r.Vdds[i-1].Golden.Mean {
			t.Fatalf("golden mean delay must grow as Vdd falls")
		}
		relPrev := r.Vdds[i-1].VS.SD / r.Vdds[i-1].VS.Mean
		relCur := r.Vdds[i].VS.SD / r.Vdds[i].VS.Mean
		if relCur <= relPrev {
			t.Fatalf("VS relative delay spread must grow at low Vdd: %g vs %g", relCur, relPrev)
		}
	}
	// Non-Gaussianity rises from 0.9 V to 0.55 V in the VS model even
	// though its parameters are Gaussian (paper's key Fig. 7 claim).
	if r.Vdds[2].VSQQNL <= r.Vdds[0].VSQQNL {
		t.Fatalf("VS QQ nonlinearity should grow at 0.55 V: %g vs %g",
			r.Vdds[2].VSQQNL, r.Vdds[0].VSQQNL)
	}
	// Model agreement at each Vdd.
	for _, c := range r.Vdds {
		if d := math.Abs(c.VS.Mean-c.Golden.Mean) / c.Golden.Mean; d > 0.2 {
			t.Fatalf("Vdd=%g: mean delays differ %g%%", c.Vdd, 100*d)
		}
	}
	pinOutput(t, "Fig7", r.String())
}

func TestFig8SetupTimeDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if r.Golden.Mean <= 0 || r.VS.Mean <= 0 {
		t.Fatalf("setup means: %g %g", r.Golden.Mean, r.VS.Mean)
	}
	if d := math.Abs(r.VS.Mean-r.Golden.Mean) / r.Golden.Mean; d > 0.35 {
		t.Fatalf("setup means differ %g%%", 100*d)
	}
	if r.TrialsPerSample < 5 {
		t.Fatalf("bisection cost %g implausibly low", r.TrialsPerSample)
	}
	pinOutput(t, "Fig8", r.String())
}

func TestFig9SRAMSNM(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// Read SNM below hold SNM for both models.
	if r.GoldenRead.Mean >= r.GoldenHold.Mean || r.VSRead.Mean >= r.VSHold.Mean {
		t.Fatal("read SNM must be below hold SNM")
	}
	// Model agreement on means within 20%.
	if d := math.Abs(r.VSHold.Mean-r.GoldenHold.Mean) / r.GoldenHold.Mean; d > 0.2 {
		t.Fatalf("hold SNM means differ %g%%", 100*d)
	}
	if d := math.Abs(r.VSRead.Mean-r.GoldenRead.Mean) / r.GoldenRead.Mean; d > 0.3 {
		t.Fatalf("read SNM means differ %g%%", 100*d)
	}
	// Butterfly curves exist and span the rails.
	if len(r.ReadLeft.In) == 0 || len(r.HoldLeft.In) == 0 {
		t.Fatal("missing butterfly curves")
	}
	pinOutput(t, "Fig9", r.String())
}

func TestTable4RuntimeComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime benches in -short mode")
	}
	s := testSuite(t)
	// Trim to a fast comparison: the real numbers come from bench_test.go.
	saved := s.Cfg.Scale
	s.Cfg.Scale = 0.02
	defer func() { s.Cfg.Scale = saved }()
	r, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.VSTime <= 0 || row.GoldenTime <= 0 {
			t.Fatalf("%s: zero times", row.Cell)
		}
		if row.Speedup <= 0 {
			t.Fatalf("%s: speedup %g", row.Cell, row.Speedup)
		}
	}
	_ = r.String() // all timings, so not in the figure pin
}
