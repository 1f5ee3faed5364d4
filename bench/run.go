package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vstat/bench/hostspeed"
	"vstat/internal/core"
	"vstat/internal/experiments"
	"vstat/internal/montecarlo"
	"vstat/internal/stats"
)

// suiteSeed is the fixed extraction seed: every run samples the same
// extracted statistical VS model, and -seed moves only the MC draws.
const suiteSeed = 20130318

// setupRepeats is how many times a timed run sets up; setup_s and the
// set-up share of peak_rss_mb are medians over them, and the last set-up
// is the one measured.
const setupRepeats = 5

// nWorkers is the closed-loop client count: pooled MC workers (or shard
// endpoints) that each take the next sample when their previous one ends.
var nWorkers = min(2, runtime.NumCPU())

// runOpts describes one run of one workload.
type runOpts struct {
	w        *workload
	seed     int64
	seconds  float64
	samples  int // > 0: measure exactly this many samples instead (tests)
	trace    bool
	traceOut string
	workdir  string
	log      io.Writer // metric and check lines
}

// result is one run's record in an -out file.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Wall holds the untraced timings as the wall clock read them, before
	// normalization to the reference host speed, and the slowdown between.
	Wall     map[string]metric `json:"wall,omitempty"`
	Checks   []string          `json:"check_failures,omitempty"`
	Findings []string          `json:"findings,omitempty"`
	Rounds   []digest          `json:"rounds"`
}

// digest is one round's output summary: sample count and, per output, the
// exact-sum mean and standard deviation (montecarlo.StreamSummary), so two
// runs of one population compare bit for bit.
type digest struct {
	N     int64      `json:"n"`
	Mean  [2]float64 `json:"mean"`
	Sigma [2]float64 `json:"sigma"`
}

// roundOut is one MC round's outcome.
type roundOut struct {
	sum                   [2]montecarlo.StreamSummary
	attempted, ok, failed int
	vals                  [][2]float64 // successful samples, local rounds only
	problems              []string     // shard-layer invariant violations
}

func (r *roundOut) add(v [2]float64) {
	r.sum[0].Add(v[0])
	r.sum[1].Add(v[1])
}

func (r *roundOut) digest() digest {
	d := digest{N: r.sum[0].Count()}
	for k := range r.sum {
		d.Mean[k], d.Sigma[k] = r.sum[k].Mean(), r.sum[k].Std()
	}
	return d
}

// pass is one measured sequence of rounds. Every pass records each
// sample's start and end; a traced pass also carries the tracer.
type pass struct {
	tr    *tracer
	base  time.Time
	sizes []int

	mu          sync.Mutex
	lat         []float64 // sample wall times, ms
	norm        []float64 // the same at the reference host speed (package hostspeed)
	normNs      float64   // Σ normalized sample time
	first, last time.Duration
	busy        time.Duration // Σ sample wall time

	// Shard-layer accounting (sharded workload only).
	templateBuilds                    atomic.Int64
	journalCommits, retries, peakLive int64
	commitLatency, fold               time.Duration
}

func newPass(tr *tracer) *pass { return &pass{tr: tr, base: time.Now(), first: -1} }

// addSample records a sample that ran from t0 to t1 on a host slowed by f.
func (p *pass) addSample(t0, t1 time.Time, f float64) {
	s, e := t0.Sub(p.base), t1.Sub(p.base)
	p.mu.Lock()
	p.lat = append(p.lat, float64(e-s)/1e6)
	p.norm = append(p.norm, float64(e-s)/1e6/f)
	p.normNs += float64(e-s) / f
	if p.first < 0 || s < p.first {
		p.first = s
	}
	if e > p.last {
		p.last = e
	}
	p.busy += e - s
	p.mu.Unlock()
}

// wall is the span from the first sample's start to the last one's end.
func (p *pass) wall() time.Duration { return p.last - p.first }

func (p *pass) wallSamplesPerS() float64 { return float64(len(p.lat)) / p.wall().Seconds() }

// slowdown is the host's mean slowdown over the pass, weighted by sample
// time.
func (p *pass) slowdown() float64 { return float64(p.busy) / p.normNs }

// samplesPerS is the pass's throughput at the reference host speed.
func (p *pass) samplesPerS() float64 { return p.wallSamplesPerS() * p.slowdown() }

// budget says how many rounds a pass runs: whole rounds until seconds
// have passed, exactly samples samples, or a replay of earlier sizes.
type budget struct {
	seconds float64
	samples int
	replay  []int
}

// next returns the size of round r, or 0 when the pass is complete.
func (b budget) next(w *workload, r, done int, elapsed time.Duration) int {
	switch {
	case b.replay != nil:
		if r < len(b.replay) {
			return b.replay[r]
		}
		return 0
	case b.samples > 0:
		return max(0, min(w.round, b.samples-done))
	case r == 0 || elapsed.Seconds() < b.seconds:
		return w.round
	}
	return 0
}

// rig is one set-up workload: the extracted model plus either pooled
// workers (the local engine) or the shard layer in front of them.
type rig struct {
	w        *workload
	model    core.StatModel
	suiteDur time.Duration
	workers  []*worker
	sh       *shardRig

	mu           sync.Mutex
	builds       int
	buildTime    time.Duration
	matN, matNNZ int
}

// newRig sets a workload up: extraction suite, then the templates with one
// warm-up sample each (or, for the sharded workload, the HTTP endpoints
// and a warm-up round through them), all drawn from seed ^seed, outside
// every measured round.
func newRig(w *workload, seed int64, workdir string) (*rig, error) {
	g := &rig{w: w}
	t0 := time.Now()
	s, err := experiments.NewSuite(experiments.Config{Seed: suiteSeed, Workers: nWorkers, Scale: 1, Vdd: vdd})
	if err != nil {
		return nil, err
	}
	g.suiteDur = time.Since(t0)
	g.model = s.VS
	if w.sharded {
		if g.sh, err = newShardRig(g, workdir); err != nil {
			return nil, err
		}
		if _, err := g.sh.round(newPass(nil), ^seed, 2*nWorkers*shardSize); err != nil {
			g.close()
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		return g, nil
	}
	if err := g.addWorkers(^seed); err != nil {
		return nil, err
	}
	return g, nil
}

// addWorkers builds the local engine's templates, each warmed up by one
// sample from warmSeed.
func (g *rig) addWorkers(warmSeed int64) error {
	for i := len(g.workers); i < nWorkers; i++ {
		wk, err := g.newWorker()
		if err != nil {
			return err
		}
		wk.id = i
		if _, err := wk.b.sample(g.model, montecarlo.SampleRNG(warmSeed, i), nil); err != nil {
			return fmt.Errorf("warm-up sample: %w", err)
		}
		g.workers = append(g.workers, wk)
	}
	return nil
}

// newWorker builds one template, timing the pool constructor.
func (g *rig) newWorker() (*worker, error) {
	t0 := time.Now()
	b, err := g.w.build(g.model)
	if err != nil {
		return nil, fmt.Errorf("template: %w", err)
	}
	d := time.Since(t0)
	n, nnz := b.matrix()
	g.mu.Lock()
	g.builds++
	g.buildTime += d
	g.matN, g.matNNZ = n, nnz
	g.mu.Unlock()
	return &worker{b: b, model: g.model}, nil
}

func (g *rig) close() {
	if g.sh != nil {
		g.sh.close()
	}
}

// measure runs one pass.
func (g *rig) measure(b budget, seed int64, tr *tracer) (*pass, []roundOut, error) {
	ps := newPass(tr)
	var rounds []roundOut
	done := 0
	for r := 0; ; r++ {
		n := b.next(g.w, r, done, time.Since(ps.base))
		if n == 0 {
			break
		}
		tr.beginRound(r)
		var ro roundOut
		var err error
		if g.sh != nil {
			ro, err = g.sh.round(ps, roundSeed(seed, r), n)
		} else {
			ro, err = g.localRound(ps, roundSeed(seed, r), n)
		}
		tr.endRound()
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, ro)
		ps.sizes = append(ps.sizes, n)
		done += n
	}
	return ps, rounds, nil
}

// localRound runs one round on the pooled local engine.
func (g *rig) localRound(ps *pass, seed int64, n int) (roundOut, error) {
	for _, wk := range g.workers {
		wk.ps = ps
	}
	out, rep, err := montecarlo.MapPooledReportCtx(context.Background(), n, seed, len(g.workers),
		montecarlo.RunOpts{Policy: montecarlo.Policy{OnFailure: montecarlo.SkipAndRecord}},
		func(i int) (*worker, error) { return g.workers[i], nil }, runSample)
	if err != nil {
		return roundOut{}, err
	}
	failed := make(map[int]bool, len(rep.Failures))
	for _, f := range rep.Failures {
		failed[f.Idx] = true
	}
	ro := roundOut{attempted: rep.Attempted, ok: rep.Succeeded, failed: rep.Failed}
	for i, v := range out {
		if !failed[i] {
			ro.add(v)
			ro.vals = append(ro.vals, v)
		}
	}
	return ro, nil
}

// runSample is the MC sample function of every workload and engine. It
// brackets the timed sample with host-speed probes.
func runSample(wk *worker, idx int, rng *rand.Rand) ([2]float64, error) {
	ps := wk.ps
	p := wk.probe.start(ps.tr, wk.b)
	before := hostspeed.Probe()
	t0 := time.Now()
	v, err := wk.b.sample(wk.model, rng, p)
	t1 := time.Now()
	after := hostspeed.Probe()
	p.finish(idx, wk.id, t0, t1, wk.b)
	ps.addSample(t0, t1, hostspeed.Slowdown(before, after))
	return v, err
}

// runOne performs one run of o.w in this process.
func runOne(o runOpts) (result, error) {
	res := result{Workload: o.w.name, Seed: o.seed, Trace: o.trace, Metrics: map[string]metric{}}
	if err := hostspeed.CheckLayout(); err != nil {
		// The normalized timings would move with the program's code layout.
		res.Checks = append(res.Checks, err.Error())
	}
	setups := 1
	if !o.trace {
		setups = setupRepeats
	}
	var g *rig
	var setupS, setupWallS, setupRSS []float64
	for i := 0; i < setups; i++ {
		if g != nil {
			g.close()
		}
		resetPeakRSS()
		before := hostspeed.ProbeAll(nWorkers)
		t0 := time.Now()
		var err error
		if g, err = newRig(o.w, o.seed, o.workdir); err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0).Seconds()
		setupWallS = append(setupWallS, d)
		setupS = append(setupS, d/hostspeed.Slowdown(before, hostspeed.ProbeAll(nWorkers)))
		setupRSS = append(setupRSS, peakRSSMiB())
	}
	defer g.close()
	resetPeakRSS()

	b := budget{seconds: o.seconds, samples: o.samples}
	if o.trace {
		b.seconds /= 2 // the traced pass replays the untraced pass's rounds
	}
	rt0 := readRuntime()
	ps, rounds, err := g.measure(b, o.seed, nil)
	if err != nil {
		return res, err
	}
	rt := readRuntime().sub(rt0)
	res.addRounds(rounds, true)
	if !o.trace {
		res.Metrics["samples_per_s"] = metric{ps.samplesPerS(), "1/s"}
		res.Metrics["sample_ms_p50"] = metric{stats.Quantile(ps.norm, 0.5), "ms"}
		res.Metrics["sample_ms_p90"] = metric{stats.Quantile(ps.norm, 0.9), "ms"}
		res.Metrics["setup_s"] = metric{stats.Median(setupS), "s"}
		res.Metrics["peak_rss_mb"] = metric{max(stats.Median(setupRSS), peakRSSMiB()), "MiB"}
		res.Wall = map[string]metric{
			"host_slowdown": {ps.slowdown(), "ratio"},
			"samples_per_s": {ps.wallSamplesPerS(), "1/s"},
			"sample_ms_p50": {stats.Quantile(ps.lat, 0.5), "ms"},
			"sample_ms_p90": {stats.Quantile(ps.lat, 0.9), "ms"},
			"setup_s":       {stats.Median(setupWallS), "s"},
		}
	} else {
		tr := newTracer(o.w.name)
		tps, trounds, err := g.measure(budget{replay: ps.sizes}, o.seed, tr)
		if err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
		res.addRounds(trounds, false)
		for i := range rounds {
			if a, t := rounds[i].digest(), trounds[i].digest(); a != t {
				res.Checks = append(res.Checks, fmt.Sprintf("traced round %d differs from untraced: %+v vs %+v", i, t, a))
			}
		}
		res.Findings = append(res.Findings, tr.reconcile()...)
		layerMetrics(res.Metrics, g, ps, rt, tps, tr)
		if o.traceOut != "" {
			if err := tr.writeFile(o.traceOut); err != nil {
				return res, fmt.Errorf("trace: %w", err)
			}
		}
	}
	if g.sh != nil {
		bad, err := g.recheckLocal(o.seed, ps.sizes[0], rounds[0])
		if err != nil {
			return res, err
		}
		res.Checks = append(res.Checks, bad...)
	}
	ref, ok := references.Workloads[o.w.ref]
	if !ok {
		res.Checks = append(res.Checks, "no reference recorded for "+o.w.ref)
	} else {
		res.Checks = append(res.Checks, checkOutputs(o.w, o.seed, rounds, ref)...)
	}
	res.Correct = len(res.Checks) == 0
	res.report(o.w, o.log, len(ps.lat))
	return res, nil
}

// recheckLocal re-runs round 0 of the sharded workload on the local
// engine: the shard layer must fold the same population to bit-equal
// statistics.
func (g *rig) recheckLocal(seed int64, n int, sharded roundOut) ([]string, error) {
	if err := g.addWorkers(^seed); err != nil {
		return nil, err
	}
	lo, err := g.localRound(newPass(nil), roundSeed(seed, 0), n)
	if err != nil {
		return nil, fmt.Errorf("local recheck: %w", err)
	}
	if l, s := lo.digest(), sharded.digest(); l != s {
		return []string{fmt.Sprintf("sharded round 0 %+v differs from the local engine's %+v", s, l)}, nil
	}
	return nil, nil
}

// addRounds counts a pass's samples; keep records its round summaries.
func (r *result) addRounds(rounds []roundOut, keep bool) {
	for i := range rounds {
		r.Attempted += rounds[i].attempted
		r.Failed += rounds[i].failed
		if keep {
			r.Rounds = append(r.Rounds, rounds[i].digest())
		}
	}
}

// report prints every metric, the sample count, the round summaries and
// the check outcome.
func (r *result) report(w *workload, log io.Writer, samples int) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(log, "%s %s %s %s\n", w.name, d.name, strconv.FormatFloat(r.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	for _, name := range []string{"samples_per_s", "sample_ms_p50", "sample_ms_p90", "setup_s", "host_slowdown"} {
		if m, ok := r.Wall[name]; ok {
			fmt.Fprintf(log, "%s wall.%s %s %s\n", w.name, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
	}
	fmt.Fprintf(log, "%s samples %d count\n", w.name, samples)
	fmt.Fprintf(log, "%s failed %d count\n", w.name, r.Failed)
	for i, d := range r.Rounds {
		var parts []string
		for k, o := range w.outputs {
			parts = append(parts, fmt.Sprintf("%s_mean=%.17g %s_sigma=%.17g", o.name, d.Mean[k], o.name, d.Sigma[k]))
		}
		fmt.Fprintf(log, "%s round %d n=%d %s\n", w.name, i, d.N, strings.Join(parts, " "))
	}
	for _, f := range r.Findings {
		fmt.Fprintf(log, "%s FINDING %s\n", w.name, f)
	}
	if r.Correct {
		fmt.Fprintf(log, "%s check outputs ok\n", w.name)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(log, "%s check FAIL %s\n", w.name, c)
	}
}

// checkOutputs checks a run's population against the recorded reference.
// Any seed: the pooled mean lies within 4 standard errors of the
// reference mean, and σ within max(10%, 4 standard errors). The reference
// seed additionally pins round 0: mean within 1e-3 and σ within 1e-2,
// relative. Every round must also account for each attempted sample.
func checkOutputs(w *workload, seed int64, rounds []roundOut, ref workloadRef) []string {
	var bad []string
	for i := range rounds {
		ro := &rounds[i]
		if ro.attempted != ro.ok+ro.failed || int64(ro.ok) != ro.sum[0].Count() {
			bad = append(bad, fmt.Sprintf("round %d: attempted %d, ok %d, failed %d, summarized %d",
				i, ro.attempted, ro.ok, ro.failed, ro.sum[0].Count()))
		}
		bad = append(bad, ro.problems...)
	}
	if len(ref.Outputs) != len(w.outputs) {
		return append(bad, fmt.Sprintf("reference has %d outputs, workload %d", len(ref.Outputs), len(w.outputs)))
	}
	for k, out := range w.outputs {
		r := ref.Outputs[k]
		var tot montecarlo.StreamSummary
		for i := range rounds {
			tot.Merge(&rounds[i].sum[k])
		}
		inv := 1/float64(tot.Count()) + 1/float64(ref.Samples)
		mean, sd := tot.Mean()*out.scale, tot.Std()*out.scale
		if tol := 4 * r.Sigma * math.Sqrt(inv); !(math.Abs(mean-r.Mean) <= tol) {
			bad = append(bad, fmt.Sprintf("%s mean %.6g %s, reference %.6g ± %.3g over %d samples",
				out.name, mean, out.unit, r.Mean, tol, tot.Count()))
		}
		if tol := math.Max(0.10, 4*math.Sqrt((r.ExcessKurtosis+2)/4*inv)); !(math.Abs(sd/r.Sigma-1) <= tol) {
			bad = append(bad, fmt.Sprintf("%s sigma %.6g %s, reference %.6g ± %.0f%% over %d samples",
				out.name, sd, out.unit, r.Sigma, 100*tol, tot.Count()))
		}
		if seed != references.Seed || len(rounds) == 0 || rounds[0].attempted != ref.Round {
			continue
		}
		m0, s0 := rounds[0].sum[k].Mean()*out.scale, rounds[0].sum[k].Std()*out.scale
		if !(math.Abs(m0-r.Round0Mean) <= 1e-3*math.Abs(r.Round0Mean)) {
			bad = append(bad, fmt.Sprintf("%s round-0 mean %.9g %s, reference %.9g (1e-3 relative)", out.name, m0, out.unit, r.Round0Mean))
		}
		if !(math.Abs(s0-r.Round0Sigma) <= 1e-2*r.Round0Sigma) {
			bad = append(bad, fmt.Sprintf("%s round-0 sigma %.9g %s, reference %.9g (1e-2 relative)", out.name, s0, out.unit, r.Round0Sigma))
		}
	}
	return bad
}

// runtimeSample holds the runtime/metrics counters a pass is charged.
type runtimeSample struct{ allocs, bytes, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3]}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs - b.allocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// resetPeakRSS starts a new peak-RSS window: it returns the freed heap to
// the OS and resets VmHWM to the current resident set. Set-up's peak
// depends on where the collector happens to run during the extraction
// suite's allocation burst, so each set-up gets its own window and the
// median is reported. Without procfs the windows simply accumulate.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the peak resident set (VmHWM) since the last
// resetPeakRSS, in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the runtime's view of memory obtained from the OS.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
