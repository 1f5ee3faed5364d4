package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"vstat/internal/bpv"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/extract"
	"vstat/internal/montecarlo"
	"vstat/internal/stats"
)

// Fig1Result is the nominal-fit experiment: fit-quality metrics and the
// I-V curve series of both models (paper Fig. 1, W = 300 nm NMOS).
type Fig1Result struct {
	Report extract.FitReport
	Series extract.Fig1Series
}

// Fig1 reproduces the nominal VS fit against the golden model.
func (s *Suite) Fig1() Fig1Result {
	ref := s.Golden.Card(device.NMOS, 300e-9, 40e-9)
	fitted := s.VS.Card(device.NMOS, 300e-9, 40e-9)
	return Fig1Result{
		Report: s.FitRepN,
		Series: extract.Fig1(&ref, &fitted, s.Cfg.Vdd),
	}
}

// String renders the fit summary and a compact curve table.
func (r Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1: VS model fitted to golden 40-nm data (NMOS, W=300 nm)\n")
	fmt.Fprintf(&b, "  RMS rel. Id error (strong inv.): %.2f %%\n", 100*r.Report.RMSRelId)
	fmt.Fprintf(&b, "  worst rel. error at Vg=Vd=Vdd:   %.2f %%\n", 100*r.Report.MaxRelIdSat)
	fmt.Fprintf(&b, "  RMS subthreshold log10 error:    %.3f decades\n", r.Report.RMSLogIdSub)
	fmt.Fprintf(&b, "  RMS rel. Cgg error:              %.2f %%\n", 100*r.Report.RMSRelCgg)
	fmt.Fprintf(&b, "  Id-Vg at Vds=Vdd (A), golden vs VS:\n")
	for i := 0; i < len(r.Series.VgGrid); i += 6 {
		fmt.Fprintf(&b, "    Vg=%.3f  golden=%.4e  vs=%.4e\n",
			r.Series.VgGrid[i], r.Series.IdVgRef[i], r.Series.IdVgFit[i])
	}
	return b.String()
}

// Fig2Row is one width point of the individual-vs-joint solve comparison.
type Fig2Row struct {
	W                     float64
	DiffVT0, DiffL, DiffW float64 // percent difference in σ
}

// Fig2Result is paper Fig. 2: relative error in σVT0, σLeff, σWeff between
// solving Eq. (10) per geometry and jointly.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 compares the per-geometry solves to the joint solve.
func (s *Suite) Fig2() (Fig2Result, error) {
	joint := s.VS.AlphaN
	var out Fig2Result
	for i, g := range ExtractionGeometries {
		if g[1] != 40e-9 {
			continue // the figure sweeps width at L = 40 nm
		}
		ind, err := s.ExtractionN.SolveIndividual(s.MeasuredN[i])
		if err != nil {
			return out, fmt.Errorf("fig2: W=%g: %w", g[0], err)
		}
		sJ := joint.Sigmas(g[0], g[1])
		sI := ind.Sigmas(g[0], g[1])
		pct := func(a, b float64) float64 {
			if b == 0 {
				return math.NaN()
			}
			return 100 * (a - b) / b
		}
		out.Rows = append(out.Rows, Fig2Row{
			W:       g[0],
			DiffVT0: pct(sI.VT0, sJ.VT0),
			DiffL:   pct(sI.L, sJ.L),
			DiffW:   pct(sI.W, sJ.W),
		})
	}
	return out, nil
}

// String renders the Fig. 2 series.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2: individual vs joint BPV solve, percent difference in sigma (NMOS, L=40 nm)\n")
	fmt.Fprintf(&b, "%10s %12s %12s %12s\n", "W (nm)", "dVT0 (%)", "dLeff (%)", "dWeff (%)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.0f %12.2f %12.2f %12.2f\n", row.W*1e9, row.DiffVT0, row.DiffL, row.DiffW)
	}
	return b.String()
}

// MaxAbsDiff returns the largest |percent difference| across the series —
// the paper observes "less than 10 %".
func (r Fig2Result) MaxAbsDiff() float64 {
	m := 0.0
	for _, row := range r.Rows {
		for _, d := range []float64{row.DiffVT0, row.DiffL, row.DiffW} {
			if a := math.Abs(d); a > m {
				m = a
			}
		}
	}
	return m
}

// Fig3Row is one width point of the Idsat mismatch decomposition.
type Fig3Row struct {
	W         float64
	TotalPct  float64 // σ(Idsat)/mean, %
	VT0Pct    float64 // contribution of VT0 alone, %
	LWPct     float64 // contribution of Leff & Weff, %
	MuPct     float64 // contribution of µ (incl. vxo coupling), %
	CinvPct   float64 // contribution of Cinv, %
	GoldenPct float64 // golden-MC total for reference, %
}

// Fig3Result is paper Fig. 3: σ(Idsat)/µ and the per-parameter
// contributions versus width at L = 40 nm.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 decomposes the Idsat mismatch by statistical parameter using linear
// propagation through the nominal sensitivities.
func (s *Suite) Fig3() (Fig3Result, error) {
	tg := bpv.Targets{Vdd: s.Cfg.Vdd}
	al := s.VS.AlphaN
	var out Fig3Result
	for i, g := range ExtractionGeometries {
		if g[1] != 40e-9 {
			continue
		}
		sens := bpv.SensitivitiesAt(s.VS.NMOS, device.NMOS, g[0], g[1], tg)
		nom := s.VS.Nominal()(device.NMOS, g[0], g[1])
		idsat, _, _ := tg.Eval(nom)
		sg := al.Sigmas(g[0], g[1])
		contrib := func(cols ...int) float64 {
			sig := [5]float64{sg.VT0, sg.L, sg.W, sg.Mu, sg.Cinv}
			v := 0.0
			for _, j := range cols {
				t := sens.D[0][j] * sig[j]
				v += t * t
			}
			return 100 * math.Sqrt(v) / idsat
		}
		out.Rows = append(out.Rows, Fig3Row{
			W:         g[0],
			TotalPct:  contrib(0, 1, 2, 3, 4),
			VT0Pct:    contrib(0),
			LWPct:     contrib(1, 2),
			MuPct:     contrib(3),
			CinvPct:   contrib(4),
			GoldenPct: 100 * s.MeasuredN[i].SigmaIdsat / idsat,
		})
	}
	return out, nil
}

// String renders the Fig. 3 series.
func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 3: Idsat mismatch and parameter contributions, NMOS L=40 nm (sigma/mean, %%)\n")
	fmt.Fprintf(&b, "%10s %10s %10s %10s %10s %10s %12s\n",
		"W (nm)", "total", "VT0", "L&W", "mu", "Cinv", "golden MC")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10.0f %10.2f %10.2f %10.2f %10.2f %10.2f %12.2f\n",
			row.W*1e9, row.TotalPct, row.VT0Pct, row.LWPct, row.MuPct, row.CinvPct, row.GoldenPct)
	}
	return b.String()
}

// Table3Cell is one device row of paper Table III.
type Table3Cell struct {
	Name         string
	W, L         float64
	Kind         device.Kind
	GoldenIdsat  float64 // σ, A
	VSIdsat      float64
	GoldenLogOff float64 // σ of log10 Ioff
	VSLogOff     float64
	MeanIdsat    float64 // golden mean, for context
}

// Table3Result is paper Table III: Monte Carlo σ of Idsat and log10 Ioff
// for wide/medium/short devices, VS vs golden.
type Table3Result struct {
	N     int
	Cells []Table3Cell
}

// Table3Geometries are the paper's wide/medium/short devices.
var Table3Geometries = []struct {
	Name string
	W, L float64
}{
	{"Wide (1500/40)", 1500e-9, 40e-9},
	{"Medium (600/40)", 600e-9, 40e-9},
	{"Short (120/40)", 120e-9, 40e-9},
}

// Table3 runs device-level MC with both statistical models.
func (s *Suite) Table3() (Table3Result, error) {
	n := s.Cfg.samples(2000)
	tg := bpv.Targets{Vdd: s.Cfg.Vdd}
	res := Table3Result{N: n}
	for gi, g := range Table3Geometries {
		for _, k := range []device.Kind{device.NMOS, device.PMOS} {
			seedBase := s.Cfg.Seed + 31*int64(gi) + 17*int64(k)
			run := func(m interface {
				SampleDevice(*rand.Rand, device.Kind, float64, float64) device.Device
			}, seed int64) ([]float64, []float64, error) {
				samples, err := montecarlo.MapCtx(s.Cfg.ctx(), n, seed, s.Cfg.Workers,
					func(idx int, rng *rand.Rand) ([]float64, error) {
						return tg.EvalVec(m.SampleDevice(rng, k, g.W, g.L)), nil
					})
				if err != nil {
					return nil, nil, err
				}
				return montecarlo.Column(samples, 0), montecarlo.Column(samples, 1), nil
			}
			gIds, gLog, err := run(s.Golden, seedBase)
			if err != nil {
				return res, fmt.Errorf("table3 golden: %w", err)
			}
			vIds, vLog, err := run(s.VS, seedBase+1000003)
			if err != nil {
				return res, fmt.Errorf("table3 vs: %w", err)
			}
			res.Cells = append(res.Cells, Table3Cell{
				Name: g.Name, W: g.W, L: g.L, Kind: k,
				GoldenIdsat:  stats.StdDev(gIds),
				VSIdsat:      stats.StdDev(vIds),
				GoldenLogOff: stats.StdDev(gLog),
				VSLogOff:     stats.StdDev(vLog),
				MeanIdsat:    stats.Mean(gIds),
			})
		}
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (r Table3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: MC standard deviations, VS vs golden (N=%d)\n", r.N)
	fmt.Fprintf(&b, "%-18s %-5s %14s %14s %14s %14s\n",
		"device", "type", "golden sIdsat", "VS sIdsat", "golden sLogOff", "VS sLogOff")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-18s %-5s %11.2f uA %11.2f uA %14.3f %14.3f\n",
			c.Name, c.Kind, c.GoldenIdsat*1e6, c.VSIdsat*1e6, c.GoldenLogOff, c.VSLogOff)
	}
	return b.String()
}

// Fig4Result is the bivariate Ion / log10 Ioff comparison for the medium
// NMOS device (paper Fig. 4): scatter statistics and 1/2/3σ ellipses from
// both models.
type Fig4Result struct {
	N                    int
	GoldenIon, GoldenLog []float64
	VSIon, VSLog         []float64
	GoldenEll, VSEll     [3]stats.Ellipse
	CorrGolden, CorrVS   float64
	// CoverageVS[k] is the fraction of golden samples inside the VS k+1 σ
	// ellipse — the cross-model containment check.
	CoverageVS [3]float64
}

// Fig4 runs the bivariate device MC.
func (s *Suite) Fig4() (Fig4Result, error) {
	n := s.Cfg.samples(1000)
	tg := bpv.Targets{Vdd: s.Cfg.Vdd}
	w, l := 600e-9, 40e-9
	res := Fig4Result{N: n}
	run := func(m core.StatModel, seed int64) ([]float64, []float64, error) {
		samples, err := montecarlo.MapCtx(s.Cfg.ctx(), n, seed, s.Cfg.Workers,
			func(idx int, rng *rand.Rand) ([]float64, error) {
				return tg.EvalVec(m.SampleDevice(rng, device.NMOS, w, l)), nil
			})
		if err != nil {
			return nil, nil, err
		}
		return montecarlo.Column(samples, 0), montecarlo.Column(samples, 1), nil
	}
	var err error
	res.GoldenIon, res.GoldenLog, err = run(s.Golden, s.Cfg.Seed+41)
	if err != nil {
		return res, err
	}
	res.VSIon, res.VSLog, err = run(s.VS, s.Cfg.Seed+42)
	if err != nil {
		return res, err
	}
	for k := 0; k < 3; k++ {
		res.GoldenEll[k] = stats.ConfidenceEllipse(res.GoldenIon, res.GoldenLog, float64(k+1))
		res.VSEll[k] = stats.ConfidenceEllipse(res.VSIon, res.VSLog, float64(k+1))
		in := 0
		for i := range res.GoldenIon {
			if res.VSEll[k].Contains(res.GoldenIon[i], res.GoldenLog[i]) {
				in++
			}
		}
		res.CoverageVS[k] = float64(in) / float64(n)
	}
	res.CorrGolden = stats.Correlation(res.GoldenIon, res.GoldenLog)
	res.CorrVS = stats.Correlation(res.VSIon, res.VSLog)
	return res, nil
}

// String renders the scatter/ellipse summary.
func (r Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4: Ion vs log10 Ioff, medium NMOS (W/L=600/40 nm), N=%d\n", r.N)
	fmt.Fprintf(&b, "  golden: mean Ion=%.4g A  sd=%.3g  mean log10Ioff=%.3f  sd=%.3f  corr=%.3f\n",
		stats.Mean(r.GoldenIon), stats.StdDev(r.GoldenIon),
		stats.Mean(r.GoldenLog), stats.StdDev(r.GoldenLog), r.CorrGolden)
	fmt.Fprintf(&b, "  VS    : mean Ion=%.4g A  sd=%.3g  mean log10Ioff=%.3f  sd=%.3f  corr=%.3f\n",
		stats.Mean(r.VSIon), stats.StdDev(r.VSIon),
		stats.Mean(r.VSLog), stats.StdDev(r.VSLog), r.CorrVS)
	for k := 0; k < 3; k++ {
		fmt.Fprintf(&b, "  %dsigma: golden ellipse (a=%.3g,b=%.3g)  VS (a=%.3g,b=%.3g)  golden-in-VS coverage=%.3f (theory %.3f)\n",
			k+1, r.GoldenEll[k].A, r.GoldenEll[k].B, r.VSEll[k].A, r.VSEll[k].B,
			r.CoverageVS[k], stats.SigmaCoverage(float64(k+1)))
	}
	return b.String()
}
