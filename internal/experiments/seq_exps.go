package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/stats"
)

// Fig8Result is paper Fig. 8(c): the setup-time distribution of the
// NMOS-pass master–slave register, 250 Monte Carlo runs per model.
type Fig8Result struct {
	N          int
	Golden, VS DelayDist
	// TrialsPerSample is the measured bisection cost (the ~20×
	// characterization overhead the paper highlights for register timing):
	// the mean number of transients per sample this run solved, zero when
	// it solved none.
	TrialsPerSample float64
	// StepsSolved and StepsReused count the bisection trials' transient
	// steps over the samples this run solved: solved, or restored from the
	// register's record of the previous trial.
	StepsSolved, StepsReused int64
	Health                   Health
}

// Fig8 runs the setup-time Monte Carlo.
func (s *Suite) Fig8() (Fig8Result, error) {
	n := s.Cfg.samples(250)
	opts := measure.DefaultSetupOpts()
	res := Fig8Result{N: n}
	var samples, solved, reused atomic.Int64
	run := func(m core.StatModel, name string, seed int64) ([]float64, error) {
		out, rep, err := runPooledMC[obsState[*circuits.PooledDFF], float64](s.Cfg, name, n, seed,
			newObsState(s.instr, func() (*circuits.PooledDFF, error) {
				return circuits.NewPooledDFF(s.Cfg.Vdd, circuits.DefaultDFFSizing(), m.Nominal(), s.Cfg.FastMC), nil
			}),
			func(st obsState[*circuits.PooledDFF], idx int, rng *rand.Rand) (float64, error) {
				ff, so := st.B, st.So
				sc := so.Scope()
				ff.Ckt.SetObsSample(idx)
				sc.Enter(obs.PhaseRestamp)
				ff.Restat(so.Factory(m.Statistical(rng)))
				sc.Exit()
				o := opts
				o.Res, o.Fast = &ff.Res, ff.Fast
				before := ff.Ckt.Stats()
				// The bisection's transient solves record themselves inside
				// the measure span, pausing it for the solver's share.
				sc.Enter(obs.PhaseMeasure)
				ts, err := measure.SetupTime(ff.DFF, o)
				sc.Exit()
				after := ff.Ckt.Stats()
				samples.Add(1)
				solved.Add(after.TranSteps - before.TranSteps)
				reused.Add(after.TranStepsReused - before.TranStepsReused)
				so.End(after)
				return ts, err
			})
		res.Health.Merge(rep)
		if err != nil {
			return nil, err
		}
		return montecarlo.Compact(out, rep), nil
	}
	g, err := run(s.Golden, "fig8-golden", s.Cfg.Seed+81)
	if err != nil {
		return res, fmt.Errorf("fig8 golden: %w", err)
	}
	v, err := run(s.VS, "fig8-vs", s.Cfg.Seed+82)
	if err != nil {
		return res, fmt.Errorf("fig8 vs: %w", err)
	}
	res.Golden = newDelayDist(g)
	res.VS = newDelayDist(v)
	res.StepsSolved, res.StepsReused = solved.Load(), reused.Load()
	if k := samples.Load(); k > 0 {
		// Every trial solves or restores the whole window's steps.
		stepsPerTrial := math.Round((opts.ClkEdge + opts.Settle) / opts.Step)
		res.TrialsPerSample = float64(res.StepsSolved+res.StepsReused) / stepsPerTrial / float64(k)
	}
	return res, nil
}

// String renders the setup-time summary.
func (r Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8: DFF setup time (NMOS-pass master-slave), N=%d per model\n", r.N)
	fmt.Fprintf(&b, "  golden: mean %.2f ps  sd %.2f ps\n", r.Golden.Mean*1e12, r.Golden.SD*1e12)
	fmt.Fprintf(&b, "  VS    : mean %.2f ps  sd %.2f ps\n", r.VS.Mean*1e12, r.VS.SD*1e12)
	if steps := r.StepsSolved + r.StepsReused; steps > 0 {
		fmt.Fprintf(&b, "  bisection cost: %.1f transients per sample (the paper's ~20x register overhead), "+
			"%.0f%% of their steps restored from the previous trial\n",
			r.TrialsPerSample, 100*float64(r.StepsReused)/float64(steps))
	}
	b.WriteString(healthLine(r.Health))
	return b.String()
}

// Fig9Result is paper Fig. 9: SRAM butterfly curves (nominal), READ/HOLD
// SNM distributions from both models, and the HOLD-SNM QQ series showing a
// slightly non-Gaussian distribution.
type Fig9Result struct {
	N int
	// Nominal VS butterfly curves for plotting (a: read, d: hold).
	ReadLeft, ReadRight circuits.ButterflyCurve
	HoldLeft, HoldRight circuits.ButterflyCurve

	GoldenRead, VSRead DelayDist // SNM in volts (DelayDist reused as dist container)
	GoldenHold, VSHold DelayDist
	VSHoldQQ           []stats.QQPoint
	VSHoldQQNL         float64
	GoldenHoldQQNL     float64
	Health             Health
}

// butterflyPoints is the DC sweep resolution of the SNM extraction.
const butterflyPoints = 61

// snmSample builds one mismatched cell and extracts both SNMs (the unpooled
// reference path, kept for determinism tests).
func snmSample(m core.StatModel, rng *rand.Rand, vdd float64) (read, hold float64, err error) {
	cell := circuits.NewSRAMCell(vdd, circuits.DefaultSRAMSizing(), m.Statistical(rng))
	rl, rr, err := cell.Butterfly(true, butterflyPoints)
	if err != nil {
		return 0, 0, err
	}
	rres, err := measure.SNM(rl, rr)
	if err != nil {
		return 0, 0, err
	}
	hl, hr, err := cell.Butterfly(false, butterflyPoints)
	if err != nil {
		return 0, 0, err
	}
	hres, err := measure.SNM(hl, hr)
	if err != nil {
		return 0, 0, err
	}
	return rres.SNM, hres.SNM, nil
}

// pooledSNMSample re-stamps the pooled cell and extracts both SNMs with the
// same draw and sweep order as snmSample.
func pooledSNMSample(cell *circuits.PooledSRAM, m core.StatModel, rng *rand.Rand) (read, hold float64, err error) {
	cell.Restat(m.Statistical(rng))
	rl, rr, err := cell.Butterfly(true)
	if err != nil {
		return 0, 0, err
	}
	rres, err := measure.SNM(rl, rr)
	if err != nil {
		return 0, 0, err
	}
	hl, hr, err := cell.Butterfly(false)
	if err != nil {
		return 0, 0, err
	}
	hres, err := measure.SNM(hl, hr)
	if err != nil {
		return 0, 0, err
	}
	return rres.SNM, hres.SNM, nil
}

// pooledSNMSampleObs is pooledSNMSample with phase attribution: the
// re-stamp and SNM extraction are spanned while the butterfly DC sweeps
// record themselves as solver time. The draw/sweep order is unchanged, so
// sampled metrics stay bit-identical to the uninstrumented path.
func pooledSNMSampleObs(cell *circuits.PooledSRAM, m core.StatModel, rng *rand.Rand, so *SampleObs) (read, hold float64, err error) {
	sc := so.Scope()
	sc.Enter(obs.PhaseRestamp)
	cell.Restat(so.Factory(m.Statistical(rng)))
	sc.Exit()
	rl, rr, err := cell.Butterfly(true)
	if err != nil {
		return 0, 0, err
	}
	sc.Enter(obs.PhaseMeasure)
	rres, err := measure.SNM(rl, rr)
	sc.Exit()
	if err != nil {
		return 0, 0, err
	}
	hl, hr, err := cell.Butterfly(false)
	if err != nil {
		return 0, 0, err
	}
	sc.Enter(obs.PhaseMeasure)
	hres, err := measure.SNM(hl, hr)
	sc.Exit()
	if err != nil {
		return 0, 0, err
	}
	return rres.SNM, hres.SNM, nil
}

// Fig9 runs the SRAM SNM Monte Carlo.
func (s *Suite) Fig9() (Fig9Result, error) {
	n := s.Cfg.samples(2500)
	res := Fig9Result{N: n}

	// Nominal butterfly curves (panels a and d).
	nomCell := circuits.NewSRAMCell(s.Cfg.Vdd, circuits.DefaultSRAMSizing(), s.VS.Nominal())
	var err error
	res.ReadLeft, res.ReadRight, err = nomCell.Butterfly(true, butterflyPoints)
	if err != nil {
		return res, err
	}
	res.HoldLeft, res.HoldRight, err = nomCell.Butterfly(false, butterflyPoints)
	if err != nil {
		return res, err
	}

	run := func(m core.StatModel, name string, seed int64) (read, hold []float64, err error) {
		pairs, rep, err := runPooledMC[obsState[*circuits.PooledSRAM], [2]float64](s.Cfg, name, n, seed,
			newObsState(s.instr, func() (*circuits.PooledSRAM, error) {
				return circuits.NewPooledSRAM(s.Cfg.Vdd, circuits.DefaultSRAMSizing(),
					m.Nominal(), butterflyPoints, s.Cfg.FastMC), nil
			}),
			func(st obsState[*circuits.PooledSRAM], idx int, rng *rand.Rand) ([2]float64, error) {
				cell, so := st.B, st.So
				cell.SetObsSample(idx)
				r, h, err := pooledSNMSampleObs(cell, m, rng, so)
				so.End(cell.Stats())
				return [2]float64{r, h}, err
			})
		res.Health.Merge(rep)
		if err != nil {
			return nil, nil, err
		}
		pairs = montecarlo.Compact(pairs, rep)
		read = make([]float64, len(pairs))
		hold = make([]float64, len(pairs))
		for i, p := range pairs {
			read[i], hold[i] = p[0], p[1]
		}
		return read, hold, nil
	}
	gr, gh, err := run(s.Golden, "fig9-golden", s.Cfg.Seed+91)
	if err != nil {
		return res, fmt.Errorf("fig9 golden: %w", err)
	}
	vr, vh, err := run(s.VS, "fig9-vs", s.Cfg.Seed+92)
	if err != nil {
		return res, fmt.Errorf("fig9 vs: %w", err)
	}
	res.GoldenRead = newDelayDist(gr)
	res.VSRead = newDelayDist(vr)
	res.GoldenHold = newDelayDist(gh)
	res.VSHold = newDelayDist(vh)
	res.VSHoldQQ = stats.QQNormal(vh)
	res.VSHoldQQNL = stats.QQNonlinearity(vh)
	res.GoldenHoldQQNL = stats.QQNonlinearity(gh)
	return res, nil
}

// String renders the SNM summary.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9: 6T SRAM static noise margins, N=%d per model\n", r.N)
	fmt.Fprintf(&b, "%-12s %14s %12s %14s %12s\n", "mode", "golden mean", "golden sd", "VS mean", "VS sd")
	fmt.Fprintf(&b, "%-12s %11.1f mV %9.1f mV %11.1f mV %9.1f mV\n",
		"READ", r.GoldenRead.Mean*1e3, r.GoldenRead.SD*1e3, r.VSRead.Mean*1e3, r.VSRead.SD*1e3)
	fmt.Fprintf(&b, "%-12s %11.1f mV %9.1f mV %11.1f mV %9.1f mV\n",
		"HOLD", r.GoldenHold.Mean*1e3, r.GoldenHold.SD*1e3, r.VSHold.Mean*1e3, r.VSHold.SD*1e3)
	fmt.Fprintf(&b, "  HOLD SNM QQ nonlinearity: golden %.4f, VS %.4f (slightly non-Gaussian, Fig. 9f)\n",
		r.GoldenHoldQQNL, r.VSHoldQQNL)
	b.WriteString(healthLine(r.Health))
	return b.String()
}

// Eq1Result demonstrates the within-die / inter-die decomposition of paper
// Eq. (1) on the measured Idsat statistics.
type Eq1Result struct {
	TotalSigma, WithinSigma, InterSigma float64
}

// Eq1Demo composes a synthetic total variation from the measured within-die
// σ(Idsat) of the medium NMOS device plus an assumed inter-die component,
// then recovers the inter-die part via Eq. (1).
func (s *Suite) Eq1Demo() (Eq1Result, error) {
	within := s.MeasuredN[2].SigmaIdsat // W=600 nm row
	inter := 1.5 * within               // global component dominates here
	total := mathHypot(within, inter)
	got, err := interDie(total, within)
	if err != nil {
		return Eq1Result{}, err
	}
	return Eq1Result{TotalSigma: total, WithinSigma: within, InterSigma: got}, nil
}

// String renders the decomposition.
func (r Eq1Result) String() string {
	return fmt.Sprintf(
		"Eq. (1): sigma_total=%.3g A, sigma_within=%.3g A -> sigma_inter=%.3g A\n",
		r.TotalSigma, r.WithinSigma, r.InterSigma)
}
