package main

import (
	"context"
	"math/rand"
	"strings"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/lifecycle"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/spice"
)

// Bench settings of the paper experiments the workloads reproduce
// (internal/experiments: Fig. 5, 8 and 9 at Vdd = 0.9 V).
const (
	vdd          = 0.9
	gateTranStop = 560e-12
	gateTranStep = 1.5e-12
	butterflyPts = 61
)

// invSizing is the Fig. 5 P/N 600/300 inverter.
var invSizing = circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}

// output is one sampled quantity of a workload, reported in unit
// (= SI value × scale).
type output struct {
	name, unit string
	scale      float64
}

// workload is one benchmark input set. The population of a run is a
// sequence of MC rounds of round samples each; round r draws sample i from
// montecarlo.SampleRNG(roundSeed(seed, r), i).
type workload struct {
	name    string
	ref     string // reference entry its outputs are checked against
	round   int
	outputs []output
	build   func(m core.StatModel) (bench, error)
	sharded bool
}

// Rounds last 1.5-2.5 s on two workers, so the idle tail at each round's
// end (under one sample per worker) stays near 1% of a round or below,
// and a run overshoots its -seconds by at most one round.
var workloads = []*workload{
	{name: "inv_delay", ref: "inv_delay", round: 512, build: buildInv,
		outputs: []output{{"delay", "ps", 1e12}}},
	{name: "inv_delay_sharded", ref: "inv_delay", round: 512, build: buildInv, sharded: true,
		outputs: []output{{"delay", "ps", 1e12}}},
	{name: "dff_setup", ref: "dff_setup", round: 64, build: buildDFF,
		outputs: []output{{"setup", "ps", 1e12}}},
	{name: "sram_snm", ref: "sram_snm", round: 512, build: buildSRAM,
		outputs: []output{{"read_snm", "mV", 1e3}, {"hold_snm", "mV", 1e3}}},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// roundSeed spreads rounds over seeds far apart, so runs at neighbouring
// seeds do not share rounds. Round 0 runs at seed itself.
func roundSeed(seed int64, r int) int64 {
	return int64(uint64(seed) + uint64(r)*0x9e3779b97f4a7c15)
}

// bench is one pooled circuit template: built once, re-stamped per sample.
type bench interface {
	montecarlo.RescueReporter
	montecarlo.SampleArmer
	// sample re-stamps every device from the statistical model and
	// measures the circuit; p (nil when untraced) times the layers.
	sample(m core.StatModel, rng *rand.Rand, p *probe) ([2]float64, error)
	stats() spice.SolverStats
	matrix() (n, nnz int)
}

type gateBench struct{ *circuits.PooledGate }

func buildInv(m core.StatModel) (bench, error) {
	g, err := circuits.NewPooledInverterFO(3, vdd, invSizing, m.Nominal(), false)
	if err != nil {
		return nil, err
	}
	return gateBench{g}, nil
}

func (b gateBench) sample(m core.StatModel, rng *rand.Rand, p *probe) ([2]float64, error) {
	t := p.begin()
	b.Restat(p.factory(m.Statistical(rng)))
	p.end(layerRestat, "restat", t)
	t = p.begin()
	res, err := b.Transient(gateTranStop, gateTranStep)
	p.end(layerSpice, "transient", t)
	if err != nil {
		return [2]float64{}, err
	}
	t = p.begin()
	d, err := measure.PairDelay(res, b.In, b.Out, vdd)
	p.end(layerMeasure, "pair-delay", t)
	return [2]float64{d}, err
}

func (b gateBench) stats() spice.SolverStats { return b.Ckt.Stats() }

func (b gateBench) matrix() (int, int) {
	n, nnz, _ := b.Ckt.MatrixInfo()
	return n, nnz
}

type dffBench struct{ *circuits.PooledDFF }

func buildDFF(m core.StatModel) (bench, error) {
	return dffBench{circuits.NewPooledDFF(vdd, circuits.DefaultDFFSizing(), m.Nominal(), false)}, nil
}

// sample attributes the whole setup-time bisection (about twenty
// transients and the search around them) to the solver layer.
func (b dffBench) sample(m core.StatModel, rng *rand.Rand, p *probe) ([2]float64, error) {
	t := p.begin()
	b.Restat(p.factory(m.Statistical(rng)))
	p.end(layerRestat, "restat", t)
	o := measure.DefaultSetupOpts()
	o.Res, o.Fast = &b.Res, b.Fast
	t = p.begin()
	ts, err := measure.SetupTime(b.DFF, o)
	p.end(layerSpice, "setup-time", t)
	return [2]float64{ts}, err
}

func (b dffBench) stats() spice.SolverStats { return b.Ckt.Stats() }

func (b dffBench) matrix() (int, int) {
	n, nnz, _ := b.Ckt.MatrixInfo()
	return n, nnz
}

type sramBench struct{ *circuits.PooledSRAM }

func buildSRAM(m core.StatModel) (bench, error) {
	return sramBench{circuits.NewPooledSRAM(vdd, circuits.DefaultSRAMSizing(), m.Nominal(), butterflyPts, false)}, nil
}

func (b sramBench) sample(m core.StatModel, rng *rand.Rand, p *probe) ([2]float64, error) {
	t := p.begin()
	b.Restat(p.factory(m.Statistical(rng)))
	p.end(layerRestat, "restat", t)
	var snm [2]float64
	for i, read := range [2]bool{true, false} {
		name := "butterfly-hold"
		if read {
			name = "butterfly-read"
		}
		t = p.begin()
		l, r, err := b.Butterfly(read)
		p.end(layerSpice, name, t)
		if err != nil {
			return [2]float64{}, err
		}
		t = p.begin()
		res, err := measure.SNM(l, r)
		p.end(layerMeasure, "snm", t)
		if err != nil {
			return [2]float64{}, err
		}
		snm[i] = res.SNM
	}
	return snm, nil
}

func (b sramBench) stats() spice.SolverStats { return b.Stats() }

func (b sramBench) matrix() (int, int) {
	n, nnz, _ := b.MatrixInfo()
	return n, nnz
}

// worker is the per-worker MC state: the pooled template plus the pass it
// currently reports to. It forwards the template's rescue counters and
// per-sample arming to the engine, so rescues reach the run report and
// budgets still bind.
type worker struct {
	id    int // engine worker ordinal (0 for shard-built templates)
	b     bench
	model core.StatModel
	ps    *pass
	probe probe
}

// RescueCounts implements montecarlo.RescueReporter.
func (w *worker) RescueCounts() map[string]int64 { return w.b.RescueCounts() }

// ArmSample implements montecarlo.SampleArmer.
func (w *worker) ArmSample(ctx context.Context, b lifecycle.Budget) { w.b.ArmSample(ctx, b) }
