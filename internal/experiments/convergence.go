package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"vstat/internal/bpv"
	"vstat/internal/device"
	"vstat/internal/montecarlo"
	"vstat/internal/stats"
)

// ExtNConvRow is one sample-count point of the extraction-convergence study.
type ExtNConvRow struct {
	N          int
	Alpha1Mean float64 // mean extracted α1 over repeats, paper units
	Alpha1RSD  float64 // relative std dev of α1 across repeats
	Alpha2RSD  float64
}

// ExtNConvResult justifies the paper's "sample sizes are more than 1000"
// remark: the repeat-to-repeat scatter of the extracted coefficients
// shrinks like 1/√N and crosses the few-percent level around N≈1000.
type ExtNConvResult struct {
	Repeats int
	Rows    []ExtNConvRow
}

// ExtNConv re-runs the NMOS BPV extraction at several Monte Carlo sample
// counts, several independent repeats each, and reports coefficient
// stability. Device-level only, so it is cheap even at N=3000.
func (s *Suite) ExtNConv() (ExtNConvResult, error) {
	const repeats = 8
	res := ExtNConvResult{Repeats: repeats}
	tg := bpv.Targets{Vdd: s.Cfg.Vdd}
	for _, n := range []int{100, 300, 1000, 3000} {
		var a1s, a2s []float64
		for rep := 0; rep < repeats; rep++ {
			var data []bpv.GeometryVariance
			for gi, g := range ExtractionGeometries {
				seed := s.Cfg.Seed + int64(1e6*rep) + int64(31*gi) + int64(n)
				samples, err := montecarlo.MapCtx(s.Cfg.ctx(), n, seed, s.Cfg.Workers,
					func(idx int, rng *rand.Rand) ([]float64, error) {
						return tg.EvalVec(s.Golden.SampleDevice(rng, device.NMOS, g[0], g[1])), nil
					})
				if err != nil {
					return res, err
				}
				data = append(data, bpv.GeometryVariance{
					W: g[0], L: g[1],
					SigmaIdsat:   stats.StdDev(montecarlo.Column(samples, 0)),
					SigmaLogIoff: stats.StdDev(montecarlo.Column(samples, 1)),
					SigmaCgg:     stats.StdDev(montecarlo.Column(samples, 2)),
				})
			}
			al, err := s.ExtractionN.SolveJoint(data)
			if err != nil {
				return res, err
			}
			a1, a2, _, _, _ := al.PaperUnits()
			a1s = append(a1s, a1)
			a2s = append(a2s, a2)
		}
		res.Rows = append(res.Rows, ExtNConvRow{
			N:          n,
			Alpha1Mean: stats.Mean(a1s),
			Alpha1RSD:  stats.StdDev(a1s) / stats.Mean(a1s),
			Alpha2RSD:  stats.StdDev(a2s) / stats.Mean(a2s),
		})
	}
	return res, nil
}

// String renders the convergence table.
func (r ExtNConvResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: BPV coefficient stability vs MC sample count (%d repeats)\n", r.Repeats)
	fmt.Fprintf(&b, "%8s %14s %14s %14s\n", "N", "mean α1", "RSD(α1) %", "RSD(α2) %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14.3f %14.2f %14.2f\n",
			row.N, row.Alpha1Mean, 100*row.Alpha1RSD, 100*row.Alpha2RSD)
	}
	fmt.Fprintf(&b, "  (the paper uses N > 1000; the scatter shrinks ~1/√N)\n")
	return b.String()
}

// ExtInterdieResult exercises paper Eq. (1) on measured data: a synthetic
// total population combining a shared inter-die shift with independent
// within-die mismatch, decomposed back by the quadrature identity.
type ExtInterdieResult struct {
	NDies, NDevPerDie int
	TrueInterSigma    float64 // planted global σ(Idsat) contribution
	MeasuredTotal     float64
	MeasuredWithin    float64
	RecoveredInter    float64
	RecoveredErrPct   float64
}

// ExtInterdie Monte Carlos dies: each die draws one global ΔVT0 shift
// applied to every device, plus per-device local mismatch; Eq. (1) recovers
// the global component from total and within-die σ of Idsat.
func (s *Suite) ExtInterdie() (ExtInterdieResult, error) {
	const (
		nDies   = 60
		nPerDie = 40
	)
	res := ExtInterdieResult{NDies: nDies, NDevPerDie: nPerDie}
	tg := bpv.Targets{Vdd: s.Cfg.Vdd}
	w, l := 600e-9, 40e-9
	globalSigmaVT := 0.010 // 10 mV die-to-die threshold shift

	rng := rand.New(rand.NewSource(s.Cfg.Seed + 5150))
	var all []float64
	var withinVars []float64
	var perDie []float64
	for d := 0; d < nDies; d++ {
		dvtGlobal := rng.NormFloat64() * globalSigmaVT
		perDie = perDie[:0]
		for i := 0; i < nPerDie; i++ {
			deltas := s.Golden.Alphas(device.NMOS).Sample(rng, w, l)
			deltas.DVT0 += dvtGlobal
			card := s.Golden.Card(device.NMOS, w, l)
			idsat, _, _ := tg.Eval(card.WithDeltas(deltas))
			perDie = append(perDie, idsat)
			all = append(all, idsat)
		}
		withinVars = append(withinVars, stats.Variance(perDie))
	}
	res.MeasuredTotal = stats.StdDev(all)
	res.MeasuredWithin = mathSqrt(stats.Mean(withinVars))
	inter, err := interDie(res.MeasuredTotal, res.MeasuredWithin)
	if err != nil {
		return res, err
	}
	res.RecoveredInter = inter

	// Planted truth: global ΔVT0 maps through the golden ∂Idsat/∂VT0.
	h := 1e-3
	base := s.Golden.Card(device.NMOS, w, l)
	iu, _, _ := tg.Eval(base.WithDeltas(device.Deltas{DVT0: h}))
	idn, _, _ := tg.Eval(base.WithDeltas(device.Deltas{DVT0: -h}))
	res.TrueInterSigma = mathAbs((iu-idn)/(2*h)) * globalSigmaVT
	res.RecoveredErrPct = 100 * (res.RecoveredInter - res.TrueInterSigma) / res.TrueInterSigma
	return res, nil
}

// String renders the decomposition check.
func (r ExtInterdieResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: Eq. (1) inter-die recovery (%d dies × %d devices)\n", r.NDies, r.NDevPerDie)
	fmt.Fprintf(&b, "  measured: σ_total %.3g A, σ_within %.3g A\n", r.MeasuredTotal, r.MeasuredWithin)
	fmt.Fprintf(&b, "  recovered σ_inter %.3g A vs planted %.3g A (%.1f %% error)\n",
		r.RecoveredInter, r.TrueInterSigma, r.RecoveredErrPct)
	return b.String()
}
