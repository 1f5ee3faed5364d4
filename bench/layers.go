package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/obs/trace"
	"vstat/internal/spice"
)

// The traced pass attributes each sample's time to the layers it calls
// into, using only wrappers the benchmark owns: spans around the calls a
// bench makes (re-stamp, solver, measurement), a transparent device
// decorator that counts and times every compact-model evaluation without
// recording a span per evaluation, and, on the sharded workload, spans
// around the shard transport and executor. Spans stay in memory and are
// written as Chrome trace-event JSON when the run ends.

// layer is a span category inside a sample.
type layer int

const (
	layerRestat  layer = iota // circuits: re-stamping the template's devices
	layerSpice                // spice + linalg: transient, DC sweep, setup bisection
	layerMeasure              // measure: delay and SNM extraction
	numLayers
)

var layerCat = [numLayers]string{"circuits", "spice", "measure"}

// probe is one template's per-sample accounting in a traced pass. It is
// touched only by the goroutine running the template's sample, and folds
// into the pass's tracer when the sample ends. A nil probe (untraced pass)
// makes every method a no-op.
type probe struct {
	tr            *tracer
	evals, evalNs int64
	layerNs       [numLayers]int64
	layerModelNs  [numLayers]int64
	spans         []trace.Event
	stats0        spice.SolverStats
}

// mark is a span start: the time and the model time spent so far.
type mark struct{ t, model int64 }

// start opens a sample of template b on p, or returns nil when tr is nil.
func (p *probe) start(tr *tracer, b bench) *probe {
	if tr == nil {
		return nil
	}
	p.tr, p.stats0 = tr, b.stats()
	p.evals, p.evalNs = 0, 0
	p.layerNs, p.layerModelNs = [numLayers]int64{}, [numLayers]int64{}
	p.spans = p.spans[:0]
	return p
}

func (p *probe) begin() mark {
	if p == nil {
		return mark{}
	}
	return mark{p.tr.now(), p.evalNs}
}

func (p *probe) end(l layer, name string, m mark) {
	if p == nil {
		return
	}
	d := p.tr.now() - m.t
	p.layerNs[l] += d
	p.layerModelNs[l] += p.evalNs - m.model
	p.spans = append(p.spans, trace.Event{Name: name, Cat: layerCat[l], Start: m.t, Dur: d})
}

// factory wraps f so every device it builds is timed by p.
func (p *probe) factory(f circuits.Factory) circuits.Factory {
	if p == nil {
		return f
	}
	return func(k device.Kind, w, l float64) device.Device {
		d := f(k, w, l)
		if nd, ok := d.(device.NativeDerivs); ok {
			return &timedNative{timedDevice{d, p}, nd}
		}
		return &timedDevice{d, p}
	}
}

// finish closes the sample of template b that ran from t0 to t1.
func (p *probe) finish(idx, workerID int, t0, t1 time.Time, b bench) {
	if p == nil {
		return
	}
	p.tr.addSample(p, idx, workerID, t0, t1, b.stats())
}

// timedDevice counts and times a device's evaluations into its probe.
// It forwards to the wrapped model unchanged, so solver results stay
// bit-identical to an undecorated run.
type timedDevice struct {
	device.Device
	p *probe
}

func (d *timedDevice) Eval(vd, vg, vs, vb float64) device.Eval {
	t0 := time.Now()
	e := d.Device.Eval(vd, vg, vs, vb)
	d.p.evalNs += int64(time.Since(t0))
	d.p.evals++
	return e
}

// timedNative is timedDevice for models with an analytic derivative
// bundle, which the solver prefers (device.EvalDerivs).
type timedNative struct {
	timedDevice
	nd device.NativeDerivs
}

func (d *timedNative) EvalDerivs4(vd, vg, vs, vb float64) device.Derivs {
	t0 := time.Now()
	e := d.nd.EvalDerivs4(vd, vg, vs, vb)
	d.p.evalNs += int64(time.Since(t0))
	d.p.evals++
	return e
}

// spanRef locates a worker-side shard execution span.
type spanRef struct {
	id uint64
	ep int
}

// tracer is the traced pass's recorder and layer totals.
type tracer struct {
	name   string
	base   time.Time
	baseNs int64
	nextID atomic.Uint64

	mu     sync.Mutex
	events []trace.Event
	runID  uint64
	round  uint64
	roundN int
	roundT int64
	// Shard-layer span linkage: a dispatch attempt's span by (shard,
	// attempt), and the executing span of each sample index.
	dispatchOf map[[2]int]uint64
	execOf     map[int]spanRef

	samples, sampleNs           int64
	layerNs, layerModelNs       [numLayers]int64
	evals, evalNs               int64
	newton, jac, steps, rescues int64
	modelEvals                  int64
	dispatchNs, execNs          int64
}

func newTracer(name string) *tracer {
	t := &tracer{name: name, base: time.Now(), dispatchOf: map[[2]int]uint64{}, execOf: map[int]spanRef{}}
	t.baseNs = t.base.UnixNano()
	t.runID = t.newID()
	return t
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// now is the time since the tracer started, in ns (monotonic).
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

// span appends a finished span; start and dur are tracer-relative ns.
func (t *tracer) spanLocked(ev trace.Event) uint64 {
	if ev.ID == 0 {
		ev.ID = t.newID()
	}
	ev.Start += t.baseNs
	t.events = append(t.events, ev)
	return ev.ID
}

func (t *tracer) beginRound(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round, t.roundN, t.roundT = t.newID(), r, t.now()
	t.mu.Unlock()
}

func (t *tracer) endRound() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spanLocked(trace.Event{Name: fmt.Sprintf("round %d", t.roundN), Cat: trace.CatMCRun, ID: t.round, Parent: t.runID,
		Start: t.roundT, Dur: t.now() - t.roundT, Proc: "coordinator", Sample: -1})
	clear(t.execOf)
	clear(t.dispatchOf)
	t.mu.Unlock()
}

func (t *tracer) addSample(p *probe, idx, workerID int, t0, t1 time.Time, st spice.SolverStats) {
	start, dur := t.at(t0), int64(t1.Sub(t0))
	iters, resc := st.Work()
	iters0, resc0 := p.stats0.Work()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, proc := t.round, "engine"
	if ref, ok := t.execOf[idx]; ok {
		parent, proc, workerID = ref.id, fmt.Sprintf("endpoint-%d", ref.ep), ref.ep
	}
	id := t.spanLocked(trace.Event{Name: "sample", Cat: trace.CatSample, Parent: parent,
		Start: start, Dur: dur, Proc: proc, Worker: workerID, Sample: idx})
	for _, ev := range p.spans {
		ev.Parent, ev.Proc, ev.Worker, ev.Sample = id, proc, workerID, idx
		t.spanLocked(ev)
	}
	t.samples++
	t.sampleNs += dur
	for l := range t.layerNs {
		t.layerNs[l] += p.layerNs[l]
		t.layerModelNs[l] += p.layerModelNs[l]
	}
	t.evals += p.evals
	t.evalNs += p.evalNs
	t.newton += iters - iters0
	t.rescues += resc - resc0
	t.jac += st.JacRefreshes - p.stats0.JacRefreshes
	t.steps += st.TranSteps - p.stats0.TranSteps
	t.modelEvals += st.ModelEvals - p.stats0.ModelEvals
}

// dispatch records one coordinator-side shard attempt around call.
func (t *tracer) dispatch(shardIdx, attempt, ep int, call func()) {
	t.mu.Lock()
	id, parent := t.newID(), t.round
	t.dispatchOf[[2]int{shardIdx, attempt}] = id
	t.mu.Unlock()
	t0 := t.now()
	call()
	d := t.now() - t0
	t.mu.Lock()
	t.dispatchNs += d
	t.spanLocked(trace.Event{Name: fmt.Sprintf("dispatch shard %d attempt %d", shardIdx, attempt),
		Cat: trace.CatDispatch, ID: id, Parent: parent, Start: t0, Dur: d, Proc: "coordinator", Worker: ep, Sample: -1})
	t.mu.Unlock()
}

// exec records one worker-side shard execution over samples [lo, hi).
func (t *tracer) exec(shardIdx, attempt, lo, hi, ep int, call func()) {
	t.mu.Lock()
	id, parent := t.newID(), t.dispatchOf[[2]int{shardIdx, attempt}]
	for i := lo; i < hi; i++ {
		t.execOf[i] = spanRef{id, ep}
	}
	t.mu.Unlock()
	t0 := t.now()
	call()
	d := t.now() - t0
	t.mu.Lock()
	t.execNs += d
	t.spanLocked(trace.Event{Name: fmt.Sprintf("exec shard %d", shardIdx), Cat: trace.CatShard,
		ID: id, Parent: parent, Start: t0, Dur: d, Proc: fmt.Sprintf("endpoint-%d", ep), Worker: ep, Sample: -1})
	t.mu.Unlock()
}

// coverage is the share of sample wall time the layer spans account for.
func (t *tracer) coverage() float64 {
	var covered int64
	for _, ns := range t.layerNs {
		covered += ns
	}
	return float64(covered) / float64(t.sampleNs)
}

// reconcile returns the traced pass's self-consistency failures: the
// decorator must see exactly the evaluations the solver counted, and the
// layer spans must cover the sample spans to within 5%.
func (t *tracer) reconcile() []string {
	var bad []string
	if t.evals != t.modelEvals {
		bad = append(bad, fmt.Sprintf("decorator counted %d model evaluations, solver counters %d", t.evals, t.modelEvals))
	}
	if c := t.coverage(); c < 0.95 {
		bad = append(bad, fmt.Sprintf("layer self times cover %.1f%% of sample time (< 95%%)", 100*c))
	}
	return bad
}

// writeFile writes every span as Chrome trace-event JSON, under one run
// span covering the pass.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	evs := append([]trace.Event{{Name: "vsperf " + t.name, Cat: trace.CatRun, ID: t.runID,
		Start: t.baseNs, Dur: t.now(), Proc: "coordinator", Sample: -1}}, t.events...)
	t.mu.Unlock()
	blob, err := trace.Marshal(evs, trace.Summary{})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// layerMetrics derives the per-layer metrics of a traced run. Layer times
// and solver counts come from the traced pass tp; allocation, GC and
// worker-busy figures from the untraced pass up, which ran the same
// rounds without the decorators' own allocations and clock reads.
func layerMetrics(m map[string]metric, g *rig, up *pass, rt runtimeSample, tp *pass, t *tracer) {
	n := float64(t.samples)
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				m[name] = metric{v, d.unit}
				return
			}
		}
		panic("unknown per-layer metric " + name)
	}
	g.mu.Lock()
	set("circuits.template_ms", ratio(float64(g.buildTime)/1e6, float64(g.builds)))
	set("linalg.matrix_n", float64(g.matN))
	set("linalg.matrix_nnz", float64(g.matNNZ))
	g.mu.Unlock()
	set("experiments.suite_s", g.suiteDur.Seconds())
	set("circuits.restat_us", per(t.layerNs[layerRestat])/1e3)
	set("vsmodel.evals_per_sample", per(t.evals))
	set("vsmodel.eval_ns", ratio(float64(t.evalNs), float64(t.evals)))
	set("vsmodel.ms_per_sample", per(t.evalNs)/1e6)
	set("vsmodel.share_pct", 100*ratio(float64(t.evalNs), float64(t.sampleNs)))
	set("spice.ms_per_sample", per(t.layerNs[layerSpice]-t.layerModelNs[layerSpice])/1e6)
	set("spice.newton_iters_per_sample", per(t.newton))
	set("spice.newton_iters_per_step", ratio(float64(t.newton), float64(t.steps)))
	set("spice.tran_steps_per_sample", per(t.steps))
	set("spice.rescues_per_sample", per(t.rescues))
	set("spice.model_evals_per_sample", per(t.modelEvals))
	set("linalg.lu_factors_per_sample", per(t.jac))
	set("linalg.solves_per_sample", per(t.newton))
	set("measure.ms_per_sample", per(t.layerNs[layerMeasure])/1e6)
	un := float64(len(up.lat))
	set("montecarlo.worker_busy_pct", 100*ratio(float64(up.busy), float64(up.wall())*float64(nWorkers)))
	set("runtime.allocs_per_sample", rt.allocs/un)
	set("runtime.alloc_bytes_per_sample", rt.bytes/un)
	set("runtime.gc_cpu_pct", 100*ratio(rt.gcCPU, rt.totalCPU))
	set("shard.dispatch_ms_per_sample", per(t.dispatchNs)/1e6)
	set("shard.exec_ms_per_sample", per(t.execNs)/1e6)
	set("shard.wire_ms_per_sample", per(t.dispatchNs-t.execNs)/1e6)
	set("shard.commit_latency_ms_per_sample", per(int64(tp.commitLatency))/1e6)
	set("shard.fold_us_per_sample", per(int64(tp.fold))/1e3)
	set("shard.template_builds_per_sample", per(tp.templateBuilds.Load()))
	set("shard.journal_commits_per_sample", per(tp.journalCommits))
	set("shard.retries", float64(tp.retries))
	set("shard.peak_live_envelopes", float64(tp.peakLive))
	if g.sh != nil {
		set("shard.overhead_pct", 100*(1-ratio(float64(t.execNs), float64(tp.wall())*float64(nWorkers))))
	} else {
		set("shard.overhead_pct", 0)
	}
	set("trace.coverage_pct", 100*t.coverage())
	set("trace.overhead_pct", 100*(ratio(up.samplesPerS(), tp.samplesPerS())-1))
}
