// Command vsbench profiles the pooled Monte Carlo engine and writes a
// machine-readable perf record. Each MC unit (INV FO3 delay, NAND2 FO3
// delay, DFF setup time, SRAM SNM) runs n pooled samples while measuring
// wall time, heap traffic, and the solver-effort counters, then the whole
// record lands in BENCH_mc.json.
//
// Usage:
//
//	vsbench [-n 64] [-workers 1] [-mode exact|fast|both] [-out BENCH_mc.json]
//
// The default single worker keeps the per-sample allocation figures free of
// scheduler noise; raise -workers to measure parallel throughput instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/device"
	"vstat/internal/experiments"
	"vstat/internal/lifecycle"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	obstrace "vstat/internal/obs/trace"
	"vstat/internal/shard"
	"vstat/internal/spice"
	"vstat/internal/stats"
	"vstat/internal/variation"
	"vstat/internal/vsmodel"
)

// distRecord summarizes one observability histogram (per-sample Newton
// iterations or per-phase nanoseconds) captured by the instrumented
// distribution pass.
type distRecord struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func distFrom(h obs.HistSnap) distRecord {
	return distRecord{
		Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
}

// unitRecord is one (unit, mode) row of BENCH_mc.json.
type unitRecord struct {
	Unit                 string  `json:"unit"`
	Mode                 string  `json:"mode"`
	MatrixN              int     `json:"matrix_n"`
	MatrixNNZ            int     `json:"matrix_nnz"`
	FillRatio            float64 `json:"nnz_fill_ratio"`
	Samples              int     `json:"samples"`
	Workers              int     `json:"workers"`
	NsPerSample          float64 `json:"ns_per_sample"`
	BytesPerSample       float64 `json:"bytes_per_sample"`
	AllocsPerSample      float64 `json:"allocs_per_sample"`
	NewtonItersPerStep   float64 `json:"newton_iters_per_step"`
	JacRefreshPerStep    float64 `json:"jac_refresh_per_step"`
	NewtonItersPerSample float64 `json:"newton_iters_per_sample"`
	TranStepsPerSample   float64 `json:"tran_steps_per_sample"`
	// Transient steps restored from a spice.TranRecord instead of solved
	// (the setup-time bisection trials share their prefix).
	TranStepsReusedPerSample float64 `json:"tran_steps_reused_per_sample"`
	Rescues                  int64   `json:"rescues"`

	// Sharded-coordinator rows only (-shard-size above 0): the index-range
	// shard count and size, the in-process loopback endpoints dispatched
	// to, and the coordinator's attempt accounting (internal/shard.Stats).
	Shards          int   `json:"shards,omitempty"`
	ShardSize       int   `json:"shard_size,omitempty"`
	ShardEndpoints  int   `json:"shard_endpoints,omitempty"`
	ShardDispatched int64 `json:"shard_dispatched,omitempty"`
	ShardRetried    int64 `json:"shard_retried,omitempty"`
	ShardSpeculated int64 `json:"shard_speculated,omitempty"`
	ShardDuplicates int64 `json:"shard_duplicates,omitempty"`
	ShardLost       int64 `json:"shard_lost,omitempty"`

	// Run health (see montecarlo.RunReport).
	Attempted  int              `json:"attempted"`
	Succeeded  int              `json:"succeeded"`
	Failed     int              `json:"failed"`
	Panics     int              `json:"panics,omitempty"`
	RescuedBy  map[string]int64 `json:"rescued_by_stage,omitempty"`
	FailedIdxs []int            `json:"failed_sample_idxs,omitempty"`

	// Distribution records from the instrumented second pass (same seed as
	// the timed pass, which runs uninstrumented so the perf figures stay
	// comparable across revisions).
	NewtonItersDist *distRecord           `json:"newton_iters_dist,omitempty"`
	PhaseNsDist     map[string]distRecord `json:"phase_ns_dist,omitempty"`
}

// lifecycleRecord captures the run-lifecycle overhead figures: what
// checkpointing and per-sample budget enforcement cost on the hot path.
type lifecycleRecord struct {
	// Checkpoint.Record cost per sample (no flush), microbenched on a
	// 1000-sample float64 checkpoint.
	CheckpointRecordNsPerSample float64 `json:"checkpoint_record_ns_per_sample"`
	// One atomic write-rename flush of a 1000-sample checkpoint state.
	CheckpointFlushNsPer1k float64 `json:"checkpoint_flush_ns_per_1k_samples"`
	// Armed-minus-unarmed wall time per sample on the INV FO3 delay MC:
	// the cooperative budget checks' cost on the real hot path. Noise can
	// drive small negative values; treat anything near zero as free.
	BudgetCheckNsPerSample float64 `json:"budget_check_ns_per_sample_inv_delay"`
}

// benchFile is the whole BENCH_mc.json document.
type benchFile struct {
	Generated string            `json:"generated"`
	GoVersion string            `json:"go_version"`
	Vdd       float64           `json:"vdd"`
	Seed      int64             `json:"seed"`
	Interrupt string            `json:"interrupted,omitempty"` // set when the run was cancelled and the rows below are partial
	Lifecycle *lifecycleRecord  `json:"lifecycle,omitempty"`
	ModelEval []modelEvalRecord `json:"model_eval,omitempty"`
	Units     []unitRecord      `json:"units"`
}

// modelEvalRecord is one row of the raw VS-model microbench: the cost of
// one full derivative-bundle evaluation (current, charges, and every
// first-order derivative, internal series-resistance solve included).
// Lanes 1 times one device through EvalDerivs4, a group of one; lanes 4
// times EvalDerivsLanes on groups of four devices, the grouped path circuit
// assemblies take, and the ns figures are then per bundle. A row times
// Passes passes of EvalsPerPass evaluations; NsPerEval is the median pass
// and NsPerEvalQ1/Q3 the quartiles.
type modelEvalRecord struct {
	Lanes        int     `json:"lanes"`
	Passes       int     `json:"passes"`
	EvalsPerPass int     `json:"evals_per_pass"`
	NsPerEval    float64 `json:"ns_per_eval"`
	NsPerEvalQ1  float64 `json:"ns_per_eval_q1"`
	NsPerEvalQ3  float64 `json:"ns_per_eval_q3"`
	EvalsPerSec  float64 `json:"evals_per_sec"`
}

// modelEvalRun returns a function that evaluates n VS derivative bundles
// over a fixed gate/drain bias grid on Pelgrom-perturbed statistical
// instances of the 40-nm NMOS card, bound (vsmodel.Instance) as the circuit
// factories bind every device. With lanes 1 one instance evaluates the grid
// point after point; with lanes up to device.LaneWidth that many instances
// evaluate consecutive grid points together, one per lane.
func modelEvalRun(vdd float64, lanes int) func(n int) {
	rng := rand.New(rand.NewSource(40613))
	p := vsmodel.NMOS40(300e-9).WithGeometry(300e-9, 40e-9)
	group := make([]device.Lane, lanes)
	bundles := make([]device.Derivs, lanes)
	for k := range group {
		group[k].Dev = p.WithDeltas(device.Deltas{
			DVT0:  rng.NormFloat64() * 0.03,
			DL:    rng.NormFloat64() * 2e-9,
			DW:    rng.NormFloat64() * 10e-9,
			DMu:   rng.NormFloat64() * 0.002,
			DCinv: rng.NormFloat64() * 0.0005,
		}).(device.LaneDerivs)
		group[k].Out = &bundles[k]
	}
	nd := group[0].Dev
	const gridN = 16 // 16x16 gate/drain plane, vb = 0
	bias := make([][2]float64, 0, gridN*gridN)
	for i := 0; i < gridN; i++ {
		for j := 0; j < gridN; j++ {
			bias = append(bias, [2]float64{
				vdd * float64(i) / (gridN - 1),
				vdd * float64(j) / (gridN - 1),
			})
		}
	}
	var sink float64
	run := func(n int) {
		if lanes == 1 {
			for e := 0; e < n; e++ {
				b := bias[e%len(bias)]
				der := nd.EvalDerivs4(b[1], b[0], 0, 0)
				sink += der.Id
			}
			return
		}
		for e := 0; e < n; e += lanes {
			for k := range group {
				b := bias[(e+k)%len(bias)]
				group[k].V = [4]float64{b[1], b[0], 0, 0}
			}
			nd.EvalDerivsLanes(group)
			sink += bundles[0].Id
		}
	}
	run(len(bias)) // warm up (branch predictors)
	return run
}

// measureModelEval times the one-lane and the device.LaneWidth-lane rows in
// passes passes of evals evaluations each. The rows alternate pass by pass,
// so a change in host load reaches both, and each row reports its median
// pass with the quartiles beside it.
func measureModelEval(vdd float64, evals, passes int) []modelEvalRecord {
	widths := []int{1, device.LaneWidth}
	runs := make([]func(int), len(widths))
	ns := make([][]float64, len(widths))
	for i, w := range widths {
		runs[i] = modelEvalRun(vdd, w)
	}
	runtime.GC()
	for range passes {
		for i, run := range runs {
			t0 := time.Now()
			run(evals)
			ns[i] = append(ns[i], float64(time.Since(t0).Nanoseconds())/float64(evals))
		}
	}
	recs := make([]modelEvalRecord, len(widths))
	for i, w := range widths {
		q := stats.Quantiles(ns[i], []float64{0.25, 0.5, 0.75})
		recs[i] = modelEvalRecord{
			Lanes: w, Passes: passes, EvalsPerPass: evals,
			NsPerEvalQ1: q[0], NsPerEval: q[1], NsPerEvalQ3: q[2],
			EvalsPerSec: 1e9 / q[1],
		}
	}
	return recs
}

// statsPool collects solver-counter readers from the per-worker templates so
// the run can be summed after the MC drains.
type statsPool struct {
	mu      sync.Mutex
	readers []func() spice.SolverStats
}

func (p *statsPool) add(f func() spice.SolverStats) {
	p.mu.Lock()
	p.readers = append(p.readers, f)
	p.mu.Unlock()
}

func (p *statsPool) total() spice.SolverStats {
	var t spice.SolverStats
	for _, f := range p.readers {
		t = t.Add(f())
	}
	return t
}

// unitFn runs one n-sample pooled MC and reports the summed solver stats
// plus the run's health report. ctx cancels the run mid-unit (claiming
// stops, in-flight samples drain); opts carries the failure policy plus the
// lifecycle knobs (per-sample budget, hang watchdog, checkpoint). A non-nil
// mi attaches per-sample phase timing and Newton-work histograms (the
// distribution pass); nil keeps the hot path on its nil-scope no-op
// branches (the timed pass). mr (when non-nil) receives the template's MNA
// matrix shape.
type unitFn func(ctx context.Context, n int, seed int64, workers int, opts montecarlo.RunOpts, fast bool, mi *experiments.MCInstr, mr *matRec) (spice.SolverStats, montecarlo.RunReport, error)

// matRec captures the MNA matrix shape of a unit's template circuit, filled
// once by the first worker that builds one (all workers share the topology).
type matRec struct {
	mu     sync.Mutex
	set    bool
	n, nnz int
}

func (m *matRec) record(n, nnz int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if !m.set {
		m.set = true
		m.n, m.nnz = n, nnz
	}
	m.mu.Unlock()
}

// instrState pairs a pooled bench with its per-worker recording handle
// while keeping the bench's rescue counters visible to the run report.
type instrState[B montecarlo.RescueReporter] struct {
	b  B
	so *experiments.SampleObs
}

// RescueCounts forwards the bench counters (montecarlo.RescueReporter).
func (s instrState[B]) RescueCounts() map[string]int64 { return s.b.RescueCounts() }

// ArmSample forwards the per-sample lifecycle arming to the wrapped bench
// (montecarlo.SampleArmer), so budgeted runs kill over-budget samples.
func (s instrState[B]) ArmSample(ctx context.Context, bud lifecycle.Budget) {
	if a, ok := any(s.b).(montecarlo.SampleArmer); ok {
		a.ArmSample(ctx, bud)
	}
}

// Gate transient window, matching the experiments' delay MCs.
const (
	gateTranStop = 560e-12
	gateTranStep = 1.5e-12
)

func gateUnit(m core.StatModel, vdd float64, sz circuits.Sizing,
	build func(vdd float64, sz circuits.Sizing, nominal circuits.Factory, fast bool) (*circuits.PooledGate, error)) unitFn {
	return func(ctx context.Context, n int, seed int64, workers int, opts montecarlo.RunOpts, fast bool, mi *experiments.MCInstr, mr *matRec) (spice.SolverStats, montecarlo.RunReport, error) {
		var pool statsPool
		_, rep, err := montecarlo.MapPooledReportCtx(ctx, n, seed, workers, opts,
			func(int) (instrState[*circuits.PooledGate], error) {
				b, err := build(vdd, sz, m.Nominal(), fast)
				if err != nil {
					return instrState[*circuits.PooledGate]{}, err
				}
				mn, nnz, _ := b.Ckt.MatrixInfo()
				mr.record(mn, nnz)
				pool.add(b.Ckt.Stats)
				so := mi.NewWorker()
				b.SetObs(so.Scope())
				return instrState[*circuits.PooledGate]{b: b, so: so}, nil
			},
			func(st instrState[*circuits.PooledGate], idx int, rng *rand.Rand) (float64, error) {
				b, so := st.b, st.so
				sc := so.Scope()
				b.Ckt.SetObsSample(idx)
				sc.Enter(obs.PhaseRestamp)
				b.Restat(so.Factory(m.Statistical(rng)))
				sc.Exit()
				res, err := b.Transient(gateTranStop, gateTranStep)
				if err != nil {
					so.End(b.Ckt.Stats())
					return 0, err
				}
				sc.Enter(obs.PhaseMeasure)
				d, derr := measure.PairDelay(res, b.In, b.Out, vdd)
				sc.Exit()
				so.End(b.Ckt.Stats())
				return d, derr
			})
		return pool.total(), rep, err
	}
}

// shardSide receives the coordinator accounting of a sharded unit's run:
// shard tiling, endpoint count, and the dispatch/retry/speculation
// counters.
type shardSide struct {
	mu        sync.Mutex
	shards    int
	size, eps int
	stats     shard.Stats
}

func (s *shardSide) set(shards, size, eps int, st shard.Stats) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.shards, s.size, s.eps, s.stats = shards, size, eps, st
	s.mu.Unlock()
}

func (s *shardSide) apply(rec *unitRecord) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Shards = s.shards
	rec.ShardSize = s.size
	rec.ShardEndpoints = s.eps
	rec.ShardDispatched = s.stats.Dispatched
	rec.ShardRetried = s.stats.Retried
	rec.ShardSpeculated = s.stats.Speculated
	rec.ShardDuplicates = s.stats.Duplicates
	rec.ShardLost = s.stats.Lost
}

// shardGateUnit routes a gate delay MC through the internal/shard
// coordinator over in-process loopback endpoints: the same physics as
// gateUnit, but claimed in index-range shards, dispatched, envelope-
// validated, and merged. The merged row is bit-identical to the plain
// pooled run at any shard size; the coordinator accounting lands in the
// record's shard_* fields via side. Each endpoint runs a single-worker
// engine, so total parallelism matches the endpoint count and the
// per-sample alloc figures stay comparable to the local rows.
func shardGateUnit(m core.StatModel, model string, vdd float64, sz circuits.Sizing, shardSize, endpoints int, side *shardSide,
	build func(vdd float64, sz circuits.Sizing, nominal circuits.Factory, fast bool) (*circuits.PooledGate, error)) unitFn {
	return func(ctx context.Context, n int, seed int64, workers int, opts montecarlo.RunOpts, fast bool, mi *experiments.MCInstr, mr *matRec) (spice.SolverStats, montecarlo.RunReport, error) {
		if opts.Checkpoint != nil {
			return spice.SolverStats{}, montecarlo.RunReport{}, fmt.Errorf("sharded rows cannot checkpoint (shards are the retry unit)")
		}
		var pool statsPool
		hash := montecarlo.ConfigHash("vsbench-shard", seed, n, vdd, fast, model)
		exec := shard.NewExecutor(hash, workers,
			func(int) (instrState[*circuits.PooledGate], error) {
				b, err := build(vdd, sz, m.Nominal(), fast)
				if err != nil {
					return instrState[*circuits.PooledGate]{}, err
				}
				mn, nnz, _ := b.Ckt.MatrixInfo()
				mr.record(mn, nnz)
				pool.add(b.Ckt.Stats)
				so := mi.NewWorker()
				b.SetObs(so.Scope())
				return instrState[*circuits.PooledGate]{b: b, so: so}, nil
			},
			func(st instrState[*circuits.PooledGate], idx int, rng *rand.Rand) (float64, error) {
				b, so := st.b, st.so
				sc := so.Scope()
				b.Ckt.SetObsSample(idx)
				sc.Enter(obs.PhaseRestamp)
				b.Restat(so.Factory(m.Statistical(rng)))
				sc.Exit()
				res, err := b.Transient(gateTranStop, gateTranStep)
				if err != nil {
					so.End(b.Ckt.Stats())
					return 0, err
				}
				sc.Enter(obs.PhaseMeasure)
				d, derr := measure.PairDelay(res, b.In, b.Out, vdd)
				sc.Exit()
				so.End(b.Ckt.Stats())
				return d, derr
			})
		eps := make([]shard.Endpoint[float64], endpoints)
		for i := range eps {
			eps[i] = shard.Endpoint[float64]{
				Name:      fmt.Sprintf("loopback-%d", i),
				Transport: shard.Loopback[float64]{Exec: exec},
			}
		}
		scfg := shard.Config{
			N:            n,
			Seed:         seed,
			ConfigHash:   hash,
			ShardSize:    shardSize,
			Bench:        "vsbench",
			SampleBudget: opts.Budget,
			HangGrace:    opts.HangGrace,
		}
		if opts.Policy.OnFailure == montecarlo.SkipAndRecord {
			scfg.MaxFailFrac = opts.Policy.MaxFailFrac
			if scfg.MaxFailFrac <= 0 {
				scfg.MaxFailFrac = 1.0 // uncapped SkipAndRecord
			}
		}
		res, err := shard.Run(ctx, scfg, eps, exec)
		if err != nil {
			return spice.SolverStats{}, montecarlo.RunReport{}, err
		}
		side.set(res.Shards, shardSize, endpoints, res.Stats)
		return pool.total(), res.Report, nil
	}
}

func dffUnit(m core.StatModel, vdd float64) unitFn {
	return func(ctx context.Context, n int, seed int64, workers int, runOpts montecarlo.RunOpts, fast bool, mi *experiments.MCInstr, mr *matRec) (spice.SolverStats, montecarlo.RunReport, error) {
		opts := measure.DefaultSetupOpts()
		var pool statsPool
		_, rep, err := montecarlo.MapPooledReportCtx(ctx, n, seed, workers, runOpts,
			func(int) (instrState[*circuits.PooledDFF], error) {
				ff := circuits.NewPooledDFF(vdd, circuits.DefaultDFFSizing(), m.Nominal(), fast)
				mn, nnz, _ := ff.Ckt.MatrixInfo()
				mr.record(mn, nnz)
				pool.add(ff.Ckt.Stats)
				so := mi.NewWorker()
				ff.SetObs(so.Scope())
				return instrState[*circuits.PooledDFF]{b: ff, so: so}, nil
			},
			func(st instrState[*circuits.PooledDFF], idx int, rng *rand.Rand) (float64, error) {
				ff, so := st.b, st.so
				sc := so.Scope()
				ff.Ckt.SetObsSample(idx)
				sc.Enter(obs.PhaseRestamp)
				ff.Restat(so.Factory(m.Statistical(rng)))
				sc.Exit()
				o := opts
				o.Res, o.Fast = &ff.Res, ff.Fast
				sc.Enter(obs.PhaseMeasure)
				ts, err := measure.SetupTime(ff.DFF, o)
				sc.Exit()
				so.End(ff.Ckt.Stats())
				return ts, err
			})
		return pool.total(), rep, err
	}
}

func sramUnit(m core.StatModel, vdd float64) unitFn {
	const points = 61 // butterfly sweep resolution, matching Fig. 9
	return func(ctx context.Context, n int, seed int64, workers int, opts montecarlo.RunOpts, fast bool, mi *experiments.MCInstr, mr *matRec) (spice.SolverStats, montecarlo.RunReport, error) {
		var pool statsPool
		_, rep, err := montecarlo.MapPooledReportCtx(ctx, n, seed, workers, opts,
			func(int) (instrState[*circuits.PooledSRAM], error) {
				cell := circuits.NewPooledSRAM(vdd, circuits.DefaultSRAMSizing(), m.Nominal(), points, fast)
				mn, nnz, _ := cell.MatrixInfo()
				mr.record(mn, nnz)
				pool.add(cell.Stats)
				so := mi.NewWorker()
				cell.SetObs(so.Scope())
				return instrState[*circuits.PooledSRAM]{b: cell, so: so}, nil
			},
			func(st instrState[*circuits.PooledSRAM], idx int, rng *rand.Rand) ([2]float64, error) {
				cell, so := st.b, st.so
				sc := so.Scope()
				cell.SetObsSample(idx)
				sc.Enter(obs.PhaseRestamp)
				cell.Restat(so.Factory(m.Statistical(rng)))
				sc.Exit()
				rl, rr, err := cell.Butterfly(true)
				if err != nil {
					so.End(cell.Stats())
					return [2]float64{}, err
				}
				sc.Enter(obs.PhaseMeasure)
				read, err := measure.SNM(rl, rr)
				sc.Exit()
				if err != nil {
					so.End(cell.Stats())
					return [2]float64{}, err
				}
				hl, hr, err := cell.Butterfly(false)
				if err != nil {
					so.End(cell.Stats())
					return [2]float64{}, err
				}
				sc.Enter(obs.PhaseMeasure)
				hold, err := measure.SNM(hl, hr)
				sc.Exit()
				so.End(cell.Stats())
				return [2]float64{read.SNM, hold.SNM}, nil
			})
		return pool.total(), rep, err
	}
}

// benchObs carries the cross-unit observability wiring: the shared trace
// sink attached to every distribution pass, the registry currently served
// at /metrics, and the per-(unit, mode) snapshots collected for
// -metrics-out.
type benchObs struct {
	sink  *obs.EventSink
	live  atomic.Pointer[obs.Registry]
	snaps []unitSnapshot
}

// unitSnapshot is one -metrics-out entry: the full registry snapshot of a
// distribution pass.
type unitSnapshot struct {
	Unit    string       `json:"unit"`
	Mode    string       `json:"mode"`
	Metrics obs.Snapshot `json:"metrics"`
}

// benchCkpt is the slice of the generic Checkpoint[T] API runUnit needs
// without knowing a unit's sample type.
type benchCkpt interface {
	montecarlo.CheckpointSink
	Flush() error
	Restored() int
	Report() montecarlo.RunReport
}

// ckOpener returns an open function for a unit whose samples are T: remove
// any stale file unless resuming, then open the typed checkpoint.
func ckOpener[T any]() func(path, hash string, n int, resume bool) (benchCkpt, error) {
	return func(path, hash string, n int, resume bool) (benchCkpt, error) {
		if !resume {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return nil, fmt.Errorf("checkpoint reset: %w", err)
			}
		}
		return montecarlo.OpenCheckpoint[T](path, hash, n, 0)
	}
}

// benchLC bundles the run-lifecycle wiring every unit run shares: the
// cancellable run context, the per-sample budget/watchdog options, and the
// checkpoint directory settings.
type benchLC struct {
	ctx    context.Context
	opts   montecarlo.RunOpts // Policy + Budget + HangGrace; Checkpoint added per unit
	ckDir  string
	resume bool
	vdd    float64
	model  string // modelID of the statistical model every unit draws from

	// rec/runSpan/traceK drive the -trace-out flight recorder: each unit's
	// distribution pass runs with a trace.MC under a per-unit span parented
	// to runSpan. Never attached to the timed pass
	// (its ns/allocs per sample must stay comparable across revisions).
	rec     *obstrace.Recorder
	runSpan uint64
	traceK  int
}

// modelID identifies a statistical model in the checkpoint and shard config
// hashes: its nominal cards and mismatch coefficients, each float printed
// exactly. A checkpoint written under other α's, such as zero ones, then
// fails its hash check on -resume instead of mixing two populations.
func modelID(m *core.StatVS) string { return fmt.Sprintf("%v", *m) }

// runUnit times one unit and turns the raw counters into a record. The
// timed pass always runs uninstrumented so ns/allocs per sample stay
// comparable across revisions; when dist is set, a second pass with the
// same seed re-runs under instrumentation and attaches the Newton-iteration
// and per-phase wall-time distributions. With a checkpoint directory the
// timed pass records every sample to <dir>/<unit>-<mode>.ckpt.json
// (resumed samples are skipped, so resumed perf figures cover only the
// freshly-run remainder; the distribution pass never checkpoints).
func runUnit(name, mode string, fn unitFn,
	openCk func(path, hash string, n int, resume bool) (benchCkpt, error),
	n int, seed int64, workers int, lc benchLC, dist bool, bo *benchObs) (unitRecord, error) {
	fast := mode == "fast"
	opts := lc.opts
	var ck benchCkpt
	if lc.ckDir != "" && openCk != nil {
		if err := os.MkdirAll(lc.ckDir, 0o755); err != nil {
			return unitRecord{}, fmt.Errorf("checkpoint dir: %w", err)
		}
		path := filepath.Join(lc.ckDir, fmt.Sprintf("%s-%s.ckpt.json", name, mode))
		hash := montecarlo.ConfigHash(seed, n, lc.vdd, name, mode, lc.model)
		var err error
		ck, err = openCk(path, hash, n, lc.resume)
		if err != nil {
			return unitRecord{}, err
		}
		opts.Checkpoint = ck
		if r := ck.Restored(); r > 0 {
			fmt.Printf("%-10s %-5s  resuming: %d of %d samples restored from checkpoint\n",
				name, mode, r, n)
		}
	}
	runtime.GC()
	var mr matRec
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	stats, rep, err := fn(lc.ctx, n, seed, workers, opts, fast, nil, &mr)
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	if ck != nil {
		if ferr := ck.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if err == nil {
			rep = ck.Report() // full-run view: restored + fresh samples
		}
	}
	if err != nil {
		return unitRecord{}, fmt.Errorf("%s (%s): %w", name, mode, err)
	}
	rec := unitRecord{
		Unit:                     name,
		Mode:                     mode,
		MatrixN:                  mr.n,
		MatrixNNZ:                mr.nnz,
		Samples:                  n,
		Workers:                  workers,
		NsPerSample:              float64(elapsed.Nanoseconds()) / float64(n),
		BytesPerSample:           float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		AllocsPerSample:          float64(after.Mallocs-before.Mallocs) / float64(n),
		NewtonItersPerSample:     float64(stats.NewtonIters) / float64(n),
		TranStepsPerSample:       float64(stats.TranSteps) / float64(n),
		TranStepsReusedPerSample: float64(stats.TranStepsReused) / float64(n),
		Rescues:                  stats.Rescues,
	}
	if mr.n > 0 {
		rec.FillRatio = float64(mr.nnz) / (float64(mr.n) * float64(mr.n))
	}
	if stats.TranSteps > 0 {
		rec.NewtonItersPerStep = float64(stats.NewtonIters) / float64(stats.TranSteps)
		rec.JacRefreshPerStep = float64(stats.JacRefreshes) / float64(stats.TranSteps)
	}
	rec.Attempted, rec.Succeeded, rec.Failed, rec.Panics = rep.Attempted, rep.Succeeded, rep.Failed, rep.Panics
	rec.RescuedBy = rep.Rescued
	for _, f := range rep.Failures {
		rec.FailedIdxs = append(rec.FailedIdxs, f.Idx)
	}
	if dist {
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		reg := obs.NewRegistry()
		mi := experiments.NewMCInstr(reg)
		if bo != nil {
			mi.Sink = bo.sink
			bo.live.Store(reg)
		}
		distOpts := lc.opts // never the checkpoint: the pass re-runs every sample
		var unitSpan *obstrace.Span
		if lc.rec != nil {
			unit := fmt.Sprintf("%s/%s", name, mode)
			unitSpan = lc.rec.Start(unit, obstrace.CatExperiment, lc.runSpan)
			distOpts.Trace = obstrace.NewMC(lc.rec, unit, unitSpan.ID(), lc.traceK)
		}
		if _, _, err := fn(lc.ctx, n, seed, workers, distOpts, fast, mi, nil); err != nil {
			unitSpan.End()
			return unitRecord{}, fmt.Errorf("%s (%s) distribution pass: %w", name, mode, err)
		}
		distOpts.Trace.Finish()
		unitSpan.End()
		snap := reg.Snapshot()
		if bo != nil {
			bo.snaps = append(bo.snaps, unitSnapshot{Unit: name, Mode: mode, Metrics: snap})
		}
		it := distFrom(snap.Find("mc_newton_iters"))
		rec.NewtonItersDist = &it
		rec.PhaseNsDist = make(map[string]distRecord, obs.NumPhases)
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			// A phase the unit never entered is left out rather than
			// reported as zeros.
			if h := snap.Find("mc_phase_" + p.String() + "_ns"); h.Sum != 0 {
				rec.PhaseNsDist[p.String()] = distFrom(h)
			}
		}
	}
	return rec, nil
}

// measureCheckpointOverhead microbenches the checkpoint hot path: Record
// cost per sample with flushing suppressed, then the cost of one atomic
// write-rename flush of a 1000-sample state.
func measureCheckpointOverhead() (recordNs, flushNs float64, err error) {
	dir, err := os.MkdirTemp("", "vsbench-ck-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	const n = 1000
	ck, err := montecarlo.OpenCheckpoint[float64](
		filepath.Join(dir, "bench.ckpt.json"),
		montecarlo.ConfigHash("vsbench-lifecycle", n), n, 1<<30)
	if err != nil {
		return 0, 0, err
	}
	rescued := map[string]int64{"dc-gmin": 1}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ck.Record(i, float64(i), rescued, nil)
	}
	recordNs = float64(time.Since(t0).Nanoseconds()) / n
	const flushes = 20
	t0 = time.Now()
	for i := 0; i < flushes; i++ {
		if err := ck.Flush(); err != nil {
			return 0, 0, err
		}
	}
	flushNs = float64(time.Since(t0).Nanoseconds()) / flushes
	return recordNs, flushNs, nil
}

// measureBudgetOverhead runs the INV FO3 delay unit with the same seed —
// unarmed and under a never-binding budget — and reports the per-sample
// wall-time delta the cooperative budget checks cost. Each arm takes the
// minimum of three runs so scheduler and GC noise (far larger than the
// three compares being measured) mostly cancels.
func measureBudgetOverhead(ctx context.Context, inv unitFn, n int, seed int64, workers int) (float64, error) {
	run := func(opts montecarlo.RunOpts) (float64, error) {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			runtime.GC()
			t0 := time.Now()
			_, _, err := inv(ctx, n, seed, workers, opts, false, nil, nil)
			if err != nil {
				return 0, err
			}
			ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
			if rep == 0 || ns < best {
				best = ns
			}
		}
		return best, nil
	}
	plain, err := run(montecarlo.RunOpts{})
	if err != nil {
		return 0, err
	}
	armed, err := run(montecarlo.RunOpts{
		Budget: lifecycle.Budget{Wall: time.Hour, MaxNewton: 1 << 40}})
	if err != nil {
		return 0, err
	}
	return armed - plain, nil
}

func main() {
	var (
		n        = flag.Int("n", 64, "Monte Carlo samples per unit")
		workers  = flag.Int("workers", 1, "parallel workers (1 keeps alloc counts clean)")
		mode     = flag.String("mode", "both", "solver path: exact, fast, or both")
		shardSz  = flag.Int("shard-size", 16, "samples per shard for the sharded-coordinator INV/NAND2 rows (0 = skip those rows)")
		shardEps = flag.Int("shard-endpoints", 2, "in-process loopback endpoints for the sharded rows")
		modelB   = flag.Bool("model-bench", true, "microbench the raw VS model evaluation and record it under \"model_eval\" in -out")
		out      = flag.String("out", "BENCH_mc.json", "output JSON path")
		seed     = flag.Int64("seed", 20130318, "master random seed")
		vdd      = flag.Float64("vdd", 0.9, "nominal supply voltage")
		skip     = flag.Bool("skip-failed", false, "isolate failing samples instead of aborting the unit")
		dist     = flag.Bool("dist", true, "run an instrumented second pass per unit and record Newton-iteration and per-phase time distributions")
		failFrac = flag.Float64("max-fail-frac", 0, "with -skip-failed, abort once this failure fraction is exceeded (0 = no cap)")

		timeout       = flag.Duration("timeout", 0, "overall bench deadline (0 = none); on expiry the completed unit rows still land in -out")
		sampleTimeout = flag.Duration("sample-timeout", 0, "per-sample wall-clock budget; an over-budget or hung sample becomes a recorded per-sample failure under -skip-failed")
		hangGrace     = flag.Duration("hang-grace", 0, "how far past -sample-timeout the watchdog lets a wedged sample run before abandoning it (0 = one extra -sample-timeout)")
		ckDir         = flag.String("checkpoint", "", "directory for per-unit checkpoint files written by the timed pass")
		resume        = flag.Bool("resume", false, "resume per-unit checkpoints, re-running only missing samples (their perf figures then cover only the fresh remainder)")
		lifecycleB    = flag.Bool("lifecycle-bench", true, "measure checkpoint and budget-check overheads and record them under \"lifecycle\" in -out")

		metricsOut = flag.String("metrics-out", "", "write the per-unit observability snapshots (JSON) to this path; implies -dist")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON file of the distribution passes (per-unit spans + worst-sample flight recorder) to this path; implies -dist")
		traceK     = flag.Int("trace-k", 0, "with -trace-out, keep full span detail for the K worst samples per unit (0 = default 8)")
		trace      = flag.Int("trace", 0, "emit every Nth structured solver trace event to stderr during the distribution passes (0 = off)")
		logLevel   = flag.String("log-level", "warn", "minimum trace event level: debug|info|warn|error")
		pprofAddr  = flag.String("pprof", "", "serve /debug/pprof and a Prometheus /metrics endpoint on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context; the unit loop below flushes the
	// completed rows (and any per-unit checkpoints) instead of exiting
	// silently.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	bo := &benchObs{}
	if *metricsOut != "" || *trace > 0 || *pprofAddr != "" || *traceOut != "" {
		*dist = true
	}
	if *trace > 0 {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			fmt.Fprintf(os.Stderr, "vsbench: -log-level: %v\n", err)
			os.Exit(2)
		}
		bo.sink = obs.NewEventSink(os.Stderr, lvl, *trace)
	}
	if *pprofAddr != "" {
		// /metrics tracks whichever unit's distribution pass is live.
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			reg := bo.live.Load()
			if reg == nil {
				http.Error(w, "no distribution pass has run yet", http.StatusServiceUnavailable)
				return
			}
			reg.Handler().ServeHTTP(w, r)
		})
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "vsbench: pprof server:", err)
			}
		}()
		fmt.Printf("serving /debug/pprof and /metrics on http://%s\n", *pprofAddr)
	}

	pol := montecarlo.Policy{}
	if *skip {
		pol = montecarlo.Policy{OnFailure: montecarlo.SkipAndRecord, MaxFailFrac: *failFrac}
	}
	lc := benchLC{
		ctx: ctx,
		opts: montecarlo.RunOpts{
			Policy:    pol,
			Budget:    lifecycle.Budget{Wall: *sampleTimeout},
			HangGrace: *hangGrace,
		},
		ckDir:  *ckDir,
		resume: *resume,
		vdd:    *vdd,
	}
	var traceRunSpan *obstrace.Span
	if *traceOut != "" {
		lc.rec = obstrace.New("vsbench", *traceK)
		traceRunSpan = lc.rec.Start("vsbench", obstrace.CatRun, 0)
		lc.runSpan = traceRunSpan.ID()
		lc.traceK = *traceK
	}

	if *n < 1 {
		fmt.Fprintf(os.Stderr, "vsbench: -n must be at least 1 (got %d)\n", *n)
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "vsbench: -workers must be at least 1 (got %d)\n", *workers)
		os.Exit(2)
	}

	var modes []string
	switch *mode {
	case "exact":
		modes = []string{"exact"}
	case "fast":
		modes = []string{"fast"}
	case "both":
		modes = []string{"exact", "fast"}
	default:
		fmt.Fprintf(os.Stderr, "vsbench: unknown -mode %q (want exact, fast, or both)\n", *mode)
		os.Exit(2)
	}

	// Every unit draws mismatched devices: the golden-truth α's, which the
	// contract tests draw from too. DefaultStatVS alone has zero α's and
	// would give every device its nominal card.
	m := core.DefaultStatVS()
	m.AlphaN = variation.GoldenTruthNMOS()
	m.AlphaP = variation.GoldenTruthPMOS()
	lc.model = modelID(m)
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	invBuild := func(vdd float64, sz circuits.Sizing, f circuits.Factory, fast bool) (*circuits.PooledGate, error) {
		return circuits.NewPooledInverterFO(3, vdd, sz, f, fast)
	}
	nandBuild := func(vdd float64, sz circuits.Sizing, f circuits.Factory, fast bool) (*circuits.PooledGate, error) {
		return circuits.NewPooledNAND2FO(3, vdd, sz, f, fast)
	}
	invFn := gateUnit(m, *vdd, sz, invBuild)
	type unitRun struct {
		name string
		fn   unitFn
		ck   func(path, hash string, n int, resume bool) (benchCkpt, error)
		ssd  *shardSide
	}
	units := []unitRun{
		{name: "INV_FO3", fn: invFn, ck: ckOpener[float64]()},
		{name: "NAND2_FO3", fn: gateUnit(m, *vdd, sz, nandBuild), ck: ckOpener[float64]()},
		{name: "DFF", fn: dffUnit(m, *vdd), ck: ckOpener[float64]()},
		{name: "SRAM", fn: sramUnit(m, *vdd), ck: ckOpener[[2]float64]()},
	}
	if *shardSz > 0 {
		// Sharded-coordinator rows: the same two gate MCs routed through
		// internal/shard over loopback endpoints. No checkpoint opener —
		// shards are the retry unit, and a run-level checkpoint would
		// overlay (and zero out) the merged report.
		invSS, nandSS := &shardSide{}, &shardSide{}
		units = append(units,
			unitRun{name: "INV_FO3_SHARD",
				fn: shardGateUnit(m, lc.model, *vdd, sz, *shardSz, *shardEps, invSS, invBuild), ssd: invSS},
			unitRun{name: "NAND2_FO3_SHARD",
				fn: shardGateUnit(m, lc.model, *vdd, sz, *shardSz, *shardEps, nandSS, nandBuild), ssd: nandSS},
		)
	}

	doc := benchFile{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Vdd:       *vdd,
		Seed:      *seed,
	}
	// writeOut lands whatever rows exist in -out (plus the -metrics-out
	// snapshots), so an interrupted bench keeps its completed units.
	writeOut := func() {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsbench: %v\n", err)
			os.Exit(1)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "vsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d unit records)\n", *out, len(doc.Units))
		if lc.rec != nil {
			traceRunSpan.End()
			traceRunSpan = nil
			if err := lc.rec.WriteFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "vsbench: trace: %v\n", err)
			} else {
				fmt.Printf("trace written to %s (inspect with 'vstrace summarize %s')\n", *traceOut, *traceOut)
			}
			lc.rec = nil
		}
		if *metricsOut != "" {
			blob, err := json.MarshalIndent(struct {
				Units []unitSnapshot `json:"units"`
			}{bo.snaps}, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "vsbench: metrics snapshot: %v\n", err)
				os.Exit(1)
			}
			blob = append(blob, '\n')
			if err := os.WriteFile(*metricsOut, blob, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "vsbench: metrics snapshot: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("observability snapshots written to %s\n", *metricsOut)
		}
	}
	for _, u := range units {
		for _, md := range modes {
			rec, err := runUnit(u.name, md, u.fn, u.ck, *n, *seed, *workers, lc, *dist, bo)
			if err != nil {
				if lifecycle.IsCancellation(err) {
					doc.Interrupt = err.Error()
					fmt.Fprintf(os.Stderr, "vsbench: interrupted: %v\n", err)
					fmt.Fprintf(os.Stderr, "vsbench: flushing the %d completed unit records\n", len(doc.Units))
					if *ckDir != "" {
						fmt.Fprintf(os.Stderr, "vsbench: completed samples are preserved in %s; re-run with -resume to finish\n", *ckDir)
					}
					writeOut()
					os.Exit(130)
				}
				fmt.Fprintf(os.Stderr, "vsbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("%-15s %-5s  n=%-3d nnz=%-4d fill=%.2f  %8.2f us/sample  %10.0f B/sample  %7.1f allocs/sample  %.2f iters/step\n",
				u.name, rec.Mode, rec.MatrixN, rec.MatrixNNZ, rec.FillRatio,
				rec.NsPerSample/1e3, rec.BytesPerSample, rec.AllocsPerSample,
				rec.NewtonItersPerStep)
			u.ssd.apply(&rec)
			if rec.Shards > 0 {
				fmt.Printf("%-15s %-5s  shards: %d of size %d over %d endpoints, dispatched %d, retried %d, lost %d\n",
					u.name, rec.Mode, rec.Shards, rec.ShardSize, rec.ShardEndpoints,
					rec.ShardDispatched, rec.ShardRetried, rec.ShardLost)
			}
			if rec.Failed > 0 || len(rec.RescuedBy) > 0 {
				fmt.Printf("%-15s %-5s  health: attempted %d, succeeded %d, failed %d, rescued %v\n",
					u.name, rec.Mode, rec.Attempted, rec.Succeeded, rec.Failed, rec.RescuedBy)
			}
			doc.Units = append(doc.Units, rec)
		}
	}

	if *modelB {
		// Raw model microbench: the derivative bundle, so BENCH_mc.json
		// records the VS evaluation cost independent of solver and circuit
		// effects, one device at a time and in groups of four, each the
		// median of 15 passes of 40,000 evaluations.
		doc.ModelEval = measureModelEval(*vdd, 40_000, 15)
		for _, rec := range doc.ModelEval {
			fmt.Printf("model-eval  lanes %d  %8.1f ns/eval (quartiles %.1f–%.1f)  %10.0f evals/sec\n",
				rec.Lanes, rec.NsPerEval, rec.NsPerEvalQ1, rec.NsPerEvalQ3, rec.EvalsPerSec)
		}
	}

	if *lifecycleB {
		recNs, flushNs, err := measureCheckpointOverhead()
		if err != nil {
			fmt.Fprintf(os.Stderr, "vsbench: checkpoint overhead: %v\n", err)
			os.Exit(1)
		}
		budNs, err := measureBudgetOverhead(ctx, invFn, *n, *seed, *workers)
		if err != nil {
			if lifecycle.IsCancellation(err) {
				doc.Interrupt = err.Error()
				writeOut()
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "vsbench: budget overhead: %v\n", err)
			os.Exit(1)
		}
		doc.Lifecycle = &lifecycleRecord{
			CheckpointRecordNsPerSample: recNs,
			CheckpointFlushNsPer1k:      flushNs,
			BudgetCheckNsPerSample:      budNs,
		}
		fmt.Printf("lifecycle: checkpoint record %.0f ns/sample, flush %.0f ns/1k-state, budget checks %+.0f ns/sample on INV delay\n",
			recNs, flushNs, budNs)
	}

	writeOut()
}
