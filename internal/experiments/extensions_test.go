package experiments

import (
	"math"
	"testing"
)

func TestExtCornersBoundMC(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.ExtCorners()
	if err != nil {
		t.Fatal(err)
	}
	// Corner ordering: FF fastest (smallest delay), SS slowest.
	if !(r.FF < r.TT && r.TT < r.SS) {
		t.Fatalf("corner delays not ordered: FF %g TT %g SS %g", r.FF, r.TT, r.SS)
	}
	// MC median near TT, and the corners contain nearly all MC mass.
	if math.Abs(r.MCMed-r.TT)/r.TT > 0.1 {
		t.Fatalf("MC median %g far from TT %g", r.MCMed, r.TT)
	}
	if r.CoveragePct < 97 {
		t.Fatalf("corner coverage %g%%", r.CoveragePct)
	}
	pinOutput(t, "ExtCorners", r.String())
}

func TestExtSSTAAndYieldFromSmallPopulations(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	f7, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := s.ExtSSTA(f7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Rows) != 3 {
		t.Fatalf("rows %d", len(sr.Rows))
	}
	for i, row := range sr.Rows {
		if row.GaussMu <= 0 || row.MCQ999 <= row.GaussMu {
			t.Fatalf("row %d implausible: %+v", i, row)
		}
	}
	// Tail error grows (or at least does not shrink drastically) toward
	// 0.55 V where delays are skewed.
	if sr.Rows[2].TailErrPct < sr.Rows[0].TailErrPct-1 {
		t.Fatalf("tail error did not grow at low Vdd: %+v", sr.Rows)
	}
	pinOutput(t, "ExtSSTA", sr.String())

	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	yr := s.ExtYield(f6)
	if yr.YieldVS < 0.3 || yr.YieldVS > 1 {
		t.Fatalf("VS yield %g", yr.YieldVS)
	}
	if math.Abs(yr.YieldVS-yr.YieldGolden) > 0.2 {
		t.Fatalf("yields diverge: %g vs %g", yr.YieldVS, yr.YieldGolden)
	}
	if yr.LeakKS > 0.25 {
		t.Fatalf("leakage far from lognormal: KS %g", yr.LeakKS)
	}
	pinOutput(t, "ExtYield", yr.String())
}

func TestFig8HoldDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.Fig8Hold()
	if err != nil {
		t.Fatal(err)
	}
	// Hold times are small (can be negative) and must agree across models
	// within a couple of σ.
	spread := math.Max(r.Golden.SD, r.VS.SD)
	if math.Abs(r.VS.Mean-r.Golden.Mean) > 3*spread+5e-12 {
		t.Fatalf("hold means diverge: %g vs %g (σ %g)", r.VS.Mean, r.Golden.Mean, spread)
	}
	pinOutput(t, "Fig8Hold", r.String())
}

func TestExtRing(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.ExtRing()
	if err != nil {
		t.Fatal(err)
	}
	if r.Golden.Mean < 5e9 || r.Golden.Mean > 200e9 {
		t.Fatalf("golden ring %g Hz", r.Golden.Mean)
	}
	if d := math.Abs(r.VS.Mean-r.Golden.Mean) / r.Golden.Mean; d > 0.15 {
		t.Fatalf("ring frequencies differ %g%%", 100*d)
	}
	// Mismatch averages over 2N stages: relative σ should be well below a
	// single gate's delay spread.
	if rel := r.VS.SD / r.VS.Mean; rel > 0.05 {
		t.Fatalf("ring σ/µ %g implausibly large", rel)
	}
	pinOutput(t, "ExtRing", r.String())
}

func TestExtNConvShrinksWithN(t *testing.T) {
	s := testSuite(t)
	r, err := s.ExtNConv()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// RSD at N=3000 must be well below RSD at N=100 (≈ 1/√30 ≈ 5.5×; allow 2×).
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.Alpha1RSD >= first.Alpha1RSD/2 {
		t.Fatalf("α1 RSD did not shrink: %g -> %g", first.Alpha1RSD, last.Alpha1RSD)
	}
	// Mean α1 stays in the physical band at every N.
	for _, row := range r.Rows {
		if row.Alpha1Mean < 1 || row.Alpha1Mean > 6 {
			t.Fatalf("N=%d: α1 %g out of band", row.N, row.Alpha1Mean)
		}
	}
	pinOutput(t, "ExtNConv", r.String())
}

func TestExtInterdieRecovery(t *testing.T) {
	s := testSuite(t)
	r, err := s.ExtInterdie()
	if err != nil {
		t.Fatal(err)
	}
	// 60 dies: the inter-die σ estimate carries ~10% sampling noise; 25%
	// keeps the test robust while catching sign/assembly errors.
	if mathAbs(r.RecoveredErrPct) > 25 {
		t.Fatalf("inter-die recovery error %g%%", r.RecoveredErrPct)
	}
	if r.MeasuredTotal <= r.MeasuredWithin {
		t.Fatal("total σ must exceed within-die σ with a planted global term")
	}
	pinOutput(t, "ExtInterdie", r.String())
}

func TestExtSRAMAC(t *testing.T) {
	if testing.Short() {
		t.Skip("circuit MC in -short mode")
	}
	s := testSuite(t)
	r, err := s.ExtSRAMAC()
	if err != nil {
		t.Fatal(err)
	}
	// The cross-coupled cell rejects bitline disturbance: coupling below
	// unity but nonzero through the access device.
	for _, d := range []DelayDist{r.Golden, r.VS} {
		if d.Mean <= 0 || d.Mean >= 1 {
			t.Fatalf("coupling mean %g outside (0,1)", d.Mean)
		}
	}
	if ratio := r.VS.Mean / r.Golden.Mean; ratio < 0.5 || ratio > 2 {
		t.Fatalf("models diverge: %g vs %g", r.VS.Mean, r.Golden.Mean)
	}
	pinOutput(t, "ExtSRAMAC", r.String())
}
