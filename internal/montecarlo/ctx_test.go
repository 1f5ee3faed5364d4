package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vstat/internal/lifecycle"
)

// ctxSample is the deterministic per-index value the lifecycle tests use:
// non-zero for every index, dependent on the per-sample RNG stream so a
// wrong (seed, idx) pairing is caught.
func ctxSample(idx int, rng *rand.Rand) (float64, error) {
	return 1 + float64(idx) + rng.Float64(), nil
}

func TestMapCtxNilContextMatchesMap(t *testing.T) {
	const n, seed = 64, int64(7)
	want, err := MapCtx(context.Background(), n, seed, 3, ctxSample)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MapCtx[float64](nil, n, seed, 3, ctxSample)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %.17g, a background context gives %.17g", i, got[i], want[i])
		}
	}
}

// TestMapCtxCancelPartialBitIdentical is the drain contract: a run cancelled
// midway returns its partial results, and every sample it did complete is
// bit-identical to the same index of an uninterrupted run — at any worker
// count, because a sample's outcome depends only on (seed, idx).
func TestMapCtxCancelPartialBitIdentical(t *testing.T) {
	const n, seed = 400, int64(99)
	want, err := MapCtx(context.Background(), n, seed, 1, ctxSample)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 7} {
		ctx, cancel := context.WithCancel(context.Background())
		var done atomic.Int64
		got, rep, err := MapPooledReportCtx(ctx, n, seed, workers, RunOpts{}, noState,
			func(_ struct{}, idx int, rng *rand.Rand) (float64, error) {
				if done.Add(1) == n/2 {
					cancel()
				}
				return ctxSample(idx, rng)
			})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: cancelled run returned nil error", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error %v does not wrap context.Canceled", workers, err)
		}
		if !rep.Cancelled {
			t.Fatalf("workers=%d: report not marked cancelled: %s", workers, rep.String())
		}
		if rep.Succeeded == 0 || rep.Succeeded >= n {
			t.Fatalf("workers=%d: expected a partial run, got %d/%d completed",
				workers, rep.Succeeded, n)
		}
		completed := 0
		for i := range got {
			if got[i] == 0 {
				continue // never claimed (or in flight at cancel)
			}
			if got[i] != want[i] {
				t.Fatalf("workers=%d: completed sample %d = %.17g, uninterrupted run %.17g",
					workers, i, got[i], want[i])
			}
			completed++
		}
		if completed != rep.Succeeded {
			t.Fatalf("workers=%d: %d non-zero results vs %d reported successes",
				workers, completed, rep.Succeeded)
		}
	}
}

// TestMapCtxInFlightCancellationNotAFailure: a sample whose solve dies with
// the context's own error (the armed-circuit path) is counted as
// Interrupted, not Failed — it will produce the identical result when the
// resumed run re-runs it, so it must not burn failure budget or be
// recorded anywhere.
func TestMapCtxInFlightCancellationNotAFailure(t *testing.T) {
	const n, seed = 16, int64(3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, rep, err := MapPooledReportCtx(ctx, n, seed, 1, RunOpts{Policy: Policy{OnFailure: FailFast}}, noState,
		func(_ struct{}, idx int, rng *rand.Rand) (float64, error) {
			if idx == 5 {
				cancel()
				return 0, context.Canceled // what an armed solver returns
			}
			return ctxSample(idx, rng)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if rep.Interrupted != 1 {
		t.Fatalf("Interrupted = %d, want 1 (report %s)", rep.Interrupted, rep.String())
	}
	if rep.Failed != 0 || len(rep.Failures) != 0 {
		t.Fatalf("in-flight cancellation recorded as failure: %s", rep.String())
	}
	if rep.Attempted != rep.Succeeded {
		t.Fatalf("interrupted sample counted as attempted: %s", rep.String())
	}
}

// armRecorder is a worker state that records the budget each sample was
// armed with, standing in for a spice.Circuit.
type armRecorder struct {
	budget lifecycle.Budget
	armed  bool
}

func (a *armRecorder) ArmSample(ctx context.Context, b lifecycle.Budget) {
	a.budget = b
	a.armed = true
}

// TestBudgetArmsStateAndFailsSample: the engine must arm every sample with
// RunOpts.Budget, and a *lifecycle.BudgetError coming back from the sample
// is an ordinary per-sample failure under SkipAndRecord.
func TestBudgetArmsStateAndFailsSample(t *testing.T) {
	const n, seed = 12, int64(41)
	budget := lifecycle.Budget{Wall: time.Hour, MaxNewton: 50}
	out, rep, err := MapPooledReportCtx(context.Background(), n, seed, 2,
		RunOpts{Policy: SkipUpTo(0.5), Budget: budget},
		func(int) (*armRecorder, error) { return &armRecorder{}, nil },
		func(st *armRecorder, idx int, rng *rand.Rand) (float64, error) {
			if !st.armed || st.budget != budget {
				t.Errorf("sample %d ran with budget %+v, want %+v", idx, st.budget, budget)
			}
			st.armed = false
			if idx == 4 {
				return 0, &lifecycle.BudgetError{Kind: lifecycle.OverIters, Iters: 51, Max: 50}
			}
			return ctxSample(idx, rng)
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || len(rep.Failures) != 1 || rep.Failures[0].Idx != 4 {
		t.Fatalf("report %s", rep.String())
	}
	if !lifecycle.IsBudget(rep.Failures[0].Err) {
		t.Fatalf("failure %v is not a budget error", rep.Failures[0].Err)
	}
	if out[4] != 0 {
		t.Fatalf("failed sample holds value %g", out[4])
	}
}

// TestWatchdogAbandonsHungSample is the hang contract: one sample wedges
// inside its evaluation (no iteration boundary, so no cooperative check can
// fire), the watchdog abandons it as a typed OverHang failure within
// Wall+HangGrace, a replacement worker keeps the pool at strength, and every
// sibling sample still completes bit-identically.
func TestWatchdogAbandonsHungSample(t *testing.T) {
	const n, seed = 40, int64(13)
	const hungIdx = 9
	want, err := MapCtx(context.Background(), n, seed, 1, ctxSample)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release) // let the abandoned goroutine exit at test end
	start := time.Now()
	out, rep, err := MapPooledReportCtx(context.Background(), n, seed, 2,
		RunOpts{
			Policy:    SkipUpTo(0.25),
			Budget:    lifecycle.Budget{Wall: 20 * time.Millisecond},
			HangGrace: 20 * time.Millisecond,
		},
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, idx int, rng *rand.Rand) (float64, error) {
			if idx == hungIdx {
				<-release // a wedged model evaluation
			}
			return ctxSample(idx, rng)
		})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("run with one hung sample took %v — watchdog did not fire", elapsed)
	}
	if rep.Failed != 1 || len(rep.Failures) != 1 || rep.Failures[0].Idx != hungIdx {
		t.Fatalf("report %s", rep.String())
	}
	var be *lifecycle.BudgetError
	if !errors.As(rep.Failures[0].Err, &be) || be.Kind != lifecycle.OverHang {
		t.Fatalf("hung sample failed with %v, want an OverHang budget error", rep.Failures[0].Err)
	}
	if rep.Succeeded != n-1 {
		t.Fatalf("siblings of the hung sample did not all complete: %s", rep.String())
	}
	for i := range want {
		if i == hungIdx {
			continue
		}
		if out[i] != want[i] {
			t.Fatalf("sample %d = %.17g, clean run %.17g — hang not isolated", i, out[i], want[i])
		}
	}
}

// TestWatchdogHangFailFast: under the default policy a hang abandonment
// trips the failure cap and aborts the run instead of silently stalling it.
func TestWatchdogHangFailFast(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, rep, err := MapPooledReportCtx(context.Background(), 8, 1, 1,
		RunOpts{Budget: lifecycle.Budget{Wall: 10 * time.Millisecond}, HangGrace: 10 * time.Millisecond},
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, idx int, rng *rand.Rand) (float64, error) {
			if idx == 2 {
				<-release
			}
			return ctxSample(idx, rng)
		})
	if err == nil {
		t.Fatal("FailFast run with a hung sample returned nil error")
	}
	if !lifecycle.IsBudget(err) {
		t.Fatalf("abort error %v is not a budget error", err)
	}
	if rep.Failed != 1 || rep.Failures[0].Idx != 2 {
		t.Fatalf("report %s", rep.String())
	}
}

// TestOffsetShardsBitIdenticalToFullRun splits one run into index-range
// shards executed via RunOpts.Offset and checks the concatenation is
// bit-identical to the single full run — the determinism contract the
// internal/shard coordinator is built on. Failures must carry global
// indices.
func TestOffsetShardsBitIdenticalToFullRun(t *testing.T) {
	const n = 96
	const seed = int64(4242)
	newState := func(worker int) (struct{}, error) { return struct{}{}, nil }
	fn := func(_ struct{}, idx int, rng *rand.Rand) (float64, error) {
		if idx%17 == 5 {
			return 0, fmt.Errorf("synthetic failure at sample %d", idx)
		}
		return float64(idx) + rng.Float64(), nil
	}
	pol := SkipUpTo(1.0)

	want, wantRep, err := MapPooledReportCtx(context.Background(), n, seed, 3,
		RunOpts{Policy: pol}, newState, fn)
	if err != nil {
		t.Fatal(err)
	}

	for _, shardSize := range []int{16, 32, 96, 7} {
		got := make([]float64, 0, n)
		var failures []SampleFailure
		for lo := 0; lo < n; lo += shardSize {
			hi := lo + shardSize
			if hi > n {
				hi = n
			}
			part, rep, err := MapPooledReportCtx(context.Background(), hi-lo, seed, 2,
				RunOpts{Policy: pol, Offset: lo}, newState, fn)
			if err != nil {
				t.Fatalf("shard [%d,%d): %v", lo, hi, err)
			}
			got = append(got, part...)
			failures = append(failures, rep.Failures...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shardSize %d: sample %d = %.17g, full run %.17g",
					shardSize, i, got[i], want[i])
			}
		}
		if len(failures) != len(wantRep.Failures) {
			t.Fatalf("shardSize %d: %d failures, full run %d",
				shardSize, len(failures), len(wantRep.Failures))
		}
		for i, f := range failures {
			if f.Idx != wantRep.Failures[i].Idx || f.Err.Error() != wantRep.Failures[i].Err.Error() {
				t.Fatalf("shardSize %d: failure %d = (%d, %q), full run (%d, %q)",
					shardSize, i, f.Idx, f.Err.Error(),
					wantRep.Failures[i].Idx, wantRep.Failures[i].Err.Error())
			}
		}
	}
}
