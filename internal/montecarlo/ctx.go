package montecarlo

// Entry points and run options of the Monte Carlo engine (engine.go).

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"vstat/internal/lifecycle"
	"vstat/internal/obs"
	"vstat/internal/obs/trace"
)

// SampleArmer is implemented by pooled worker states whose circuits enforce
// per-sample budgets (see spice.Circuit.ArmSample). The engine arms each
// sample just before fn runs; states without the method run unarmed.
type SampleArmer interface {
	ArmSample(ctx context.Context, b lifecycle.Budget)
}

// TraceAttacher is implemented by worker states that can route solver
// phase spans to a sample tracer (pooled circuit benches forward to their
// obs.Scope). In a traced run the engine attaches each worker's tracer
// once at startup; states without the method still get sample-level
// spans and diagnostics, just no phase detail.
type TraceAttacher interface {
	AttachTracer(t obs.Tracer)
}

// WorkReporter exposes a state's cumulative solver work — Newton
// iterations and rescue stages — as two integers, cheap enough to snapshot
// around every sample. The flight recorder ranks samples on the deltas;
// both counters must be pure functions of (seed, idx) so the worst-K set
// is identical at any worker count (see spice.SolverStats.Work).
type WorkReporter interface {
	SolverWork() (iters, rescues int64)
}

// CheckpointSink receives per-sample completions during a run and answers
// which samples an earlier run already completed. *Checkpoint[T] is the
// concrete implementation; the interface keeps the engine non-generic over
// the checkpoint. Implementations must be safe for concurrent use.
type CheckpointSink interface {
	// Completed reports whether sample idx was already recorded (by a
	// previous run being resumed); the engine skips it.
	Completed(idx int) bool
	// Record stores sample idx's outcome: its value (nil when err != nil),
	// the rescue-counter delta attributable to just this sample, and its
	// error if it failed.
	Record(idx int, value any, rescued map[string]int64, err error)
}

// RunOpts bundles the lifecycle knobs of a run. The zero value runs
// FailFast, unbudgeted, untraced and without a checkpoint.
type RunOpts struct {
	// Policy is the failure policy (FailFast / SkipAndRecord + cap).
	Policy Policy
	// Budget bounds each sample's solver work (see lifecycle.Budget); armed
	// on states implementing SampleArmer. Budget.Wall also activates the
	// hang watchdog.
	Budget lifecycle.Budget
	// HangGrace is how far past Budget.Wall an in-flight sample may run
	// before the watchdog abandons it; <= 0 defaults to Budget.Wall. Only
	// meaningful when Budget.Wall > 0.
	HangGrace time.Duration
	// Checkpoint, when non-nil, records completions and marks already-done
	// samples to skip (resume).
	Checkpoint CheckpointSink
	// Offset shifts the run's global sample identity: the engine still claims
	// local indices 0..n-1, but sample i runs as global index Offset+i — its
	// RNG is SampleRNG(seed, Offset+i), fn receives the global index, and
	// RunReport failures carry global indices. An index-range shard
	// [Offset, Offset+n) therefore computes exactly the samples (and failure
	// records) a full run computes for those indices, which is what makes
	// sharded results mergeable bit-identically (internal/shard). The result
	// slice and any CheckpointSink stay local (indices 0..n-1).
	Offset int
	// Trace, when non-nil, arms the distributed-tracing flight recorder:
	// each worker gets a trace.SampleTracer (attached to states
	// implementing TraceAttacher), every sample is bracketed by a span
	// carrying its fixed-size diagnostic, and the K worst samples keep full
	// span detail (merged deterministically across workers). Nil keeps the
	// hot path at one pointer check per sample and zero allocations.
	Trace *trace.MC
}

// classifyVerdict maps a sample outcome onto the flight-recorder verdict
// vocabulary.
func classifyVerdict(err error) string {
	if err == nil {
		return trace.VerdictOK
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return trace.VerdictPanic
	}
	var be *lifecycle.BudgetError
	if errors.As(err, &be) {
		switch be.Kind {
		case lifecycle.OverIters:
			return trace.VerdictBudgetIters
		case lifecycle.OverHang:
			return trace.VerdictBudgetHang
		default:
			return trace.VerdictBudgetWall
		}
	}
	return trace.VerdictFailed
}

// MapCtx runs fn for samples 0..n-1 on a bounded worker pool and returns
// the results in sample order. Work is claimed from an atomic counter (no
// O(n) queue fill before work starts); each sample's PRNG depends only on
// (seed, idx), so results are bit-identical for any worker count. The first
// error (by sample index) aborts the run. A cancelled ctx stops new claims,
// drains in-flight samples, and returns the partial results with an error
// wrapping ctx.Err().
func MapCtx[T any](ctx context.Context, n int, seed int64, workers int,
	fn func(idx int, rng *rand.Rand) (T, error)) ([]T, error) {
	out, _, err := MapPooledReportCtx(ctx, n, seed, workers, RunOpts{},
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, idx int, rng *rand.Rand) (T, error) { return fn(idx, rng) })
	return out, err
}
