package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"vstat/internal/obs/trace"
)

// batchFromScalar lifts a scalar sample function into the batch shape.
func batchFromScalar[S, T any](fn func(st S, idx int, rng *rand.Rand) (T, error)) func(S, []int, []*rand.Rand, []T, []error) {
	return func(st S, idxs []int, rngs []*rand.Rand, out []T, errs []error) {
		for j, idx := range idxs {
			out[j], errs[j] = fn(st, idx, rngs[j])
		}
	}
}

// TestBatchMatchesScalarEngine pins the determinism contract: for any lane
// width and worker count, the batched engine produces exactly the values and
// report (failures, messages and rescue totals included) the scalar engine
// produces for the same (seed, idx) stream. Each case also runs under a
// flight recorder, which must leave the values bit-identical: one-lane runs
// keep their worst-K records, lockstep batches stay untraced.
func TestBatchMatchesScalarEngine(t *testing.T) {
	const n, seed, k = 37, 42, 5
	newState := func(int) (*rescueState, error) { return &rescueState{}, nil }
	fn := func(st *rescueState, idx int, rng *rand.Rand) (float64, error) {
		v := rng.NormFloat64() + float64(idx)
		if idx%7 == 2 {
			st.gmin++
		}
		if idx%9 == 4 {
			return 0, fmt.Errorf("sample %d synthetic failure", idx)
		}
		return v, nil
	}
	pol := Policy{OnFailure: SkipAndRecord, MaxFailFrac: 1}
	want, wantRep, err := MapPooledReportCtx(context.Background(), n, seed, 1, RunOpts{Policy: pol}, newState, fn)
	if err != nil {
		t.Fatalf("scalar engine: %v", err)
	}
	if len(wantRep.Failures) == 0 || len(wantRep.Rescued) == 0 {
		t.Fatalf("reference report exercises no failures or rescues: %s", wantRep.String())
	}
	for _, lanes := range []int{1, 4, 16} {
		for _, workers := range []int{1, 3} {
			for _, traced := range []bool{false, true} {
				name := fmt.Sprintf("lanes=%d workers=%d traced=%v", lanes, workers, traced)
				opts := RunOpts{Policy: pol}
				if traced {
					rec := trace.New("test", k)
					opts.Trace = trace.NewMC(rec, "mc", rec.Start("mc", trace.CatMCRun, 0).ID(), k)
				}
				got, rep, err := MapPooledBatchReportCtx(context.Background(), n, seed, workers, lanes,
					opts, newState, batchFromScalar(fn))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s sample %d: got %v want %v", name, i, got[i], want[i])
					}
				}
				if rep.Attempted != wantRep.Attempted || rep.Succeeded != wantRep.Succeeded || rep.Failed != wantRep.Failed {
					t.Fatalf("%s report %+v, want %+v", name, rep, wantRep)
				}
				if len(rep.Failures) != len(wantRep.Failures) {
					t.Fatalf("%s: %d failures, want %d", name, len(rep.Failures), len(wantRep.Failures))
				}
				for i, f := range rep.Failures {
					if w := wantRep.Failures[i]; f.Idx != w.Idx || f.Err.Error() != w.Err.Error() {
						t.Fatalf("%s failure %d = (%d, %q), want (%d, %q)", name, i, f.Idx, f.Err, w.Idx, w.Err)
					}
				}
				if !reflect.DeepEqual(rep.Rescued, wantRep.Rescued) {
					t.Fatalf("%s rescued %v, want %v", name, rep.Rescued, wantRep.Rescued)
				}
				if !traced {
					continue
				}
				wantRecs := 0
				if lanes == 1 {
					wantRecs = k
				}
				if recs := opts.Trace.Finish(); len(recs) != wantRecs {
					t.Fatalf("%s kept %d worst-K records, want %d", name, len(recs), wantRecs)
				}
			}
		}
	}
}

// fakeSink records checkpoint traffic and marks a fixed set as completed.
type fakeSink struct {
	mu   sync.Mutex
	done map[int]bool
	rec  map[int]bool
}

func (f *fakeSink) Completed(idx int) bool { return f.done[idx] }
func (f *fakeSink) Record(idx int, _ any, _ map[string]int64, _ error) {
	f.mu.Lock()
	f.rec[idx] = true
	f.mu.Unlock()
}

// TestBatchCheckpointSkipsCompleted verifies resumed batches go ragged:
// already-completed indices inside a claimed block are skipped, never re-run,
// and never re-recorded.
func TestBatchCheckpointSkipsCompleted(t *testing.T) {
	const n = 24
	sink := &fakeSink{done: map[int]bool{}, rec: map[int]bool{}}
	for i := 0; i < n; i += 2 {
		sink.done[i] = true // evens restored by a previous run
	}
	var mu sync.Mutex
	ran := map[int]bool{}
	_, rep, err := MapPooledBatchReportCtx(context.Background(), n, 7, 2, 8,
		RunOpts{Checkpoint: sink},
		func(int) (struct{}, error) { return struct{}{}, nil },
		batchFromScalar(func(_ struct{}, idx int, rng *rand.Rand) (int, error) {
			mu.Lock()
			ran[idx] = true
			mu.Unlock()
			return idx, nil
		}))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < n; i++ {
		odd := i%2 == 1
		if ran[i] != odd {
			t.Fatalf("sample %d ran=%v, want %v", i, ran[i], odd)
		}
		if sink.rec[i] != odd {
			t.Fatalf("sample %d recorded=%v, want %v", i, sink.rec[i], odd)
		}
	}
	if rep.Succeeded != n/2 {
		t.Fatalf("succeeded %d, want %d", rep.Succeeded, n/2)
	}
}

// TestBatchCancelledContext verifies a dead context yields a cancelled
// partial run, mirroring the scalar engine.
func TestBatchCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := MapPooledBatchReportCtx(ctx, 16, 1, 2, 4, RunOpts{},
		func(int) (struct{}, error) { return struct{}{}, nil },
		batchFromScalar(func(_ struct{}, idx int, _ *rand.Rand) (int, error) { return idx, nil }))
	if !rep.Cancelled {
		t.Fatalf("report not marked cancelled: %+v", rep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestBatchFailFast verifies FailFast aborts on the first failing lane.
func TestBatchFailFast(t *testing.T) {
	boom := errors.New("boom")
	_, _, err := MapPooledBatchReportCtx(context.Background(), 32, 3, 1, 4,
		RunOpts{Policy: Policy{OnFailure: FailFast}},
		func(int) (struct{}, error) { return struct{}{}, nil },
		batchFromScalar(func(_ struct{}, idx int, _ *rand.Rand) (int, error) {
			if idx == 5 {
				return 0, boom
			}
			return idx, nil
		}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrap of boom", err)
	}
}

// TestBatchPanicPoisonsBlock verifies a panicking batch surfaces a
// *PanicError on each of its samples under SkipAndRecord.
func TestBatchPanicPoisonsBlock(t *testing.T) {
	_, rep, err := MapPooledBatchReportCtx(context.Background(), 8, 3, 1, 4,
		RunOpts{Policy: Policy{OnFailure: SkipAndRecord, MaxFailFrac: 1}},
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ struct{}, idxs []int, _ []*rand.Rand, out []int, errs []error) {
			for _, idx := range idxs {
				if idx == 6 {
					panic("kernel meltdown")
				}
			}
			for j, idx := range idxs {
				out[j], errs[j] = idx, nil
			}
		})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Panics != 4 {
		t.Fatalf("panics = %d, want 4 (the whole block)", rep.Panics)
	}
	if rep.Failed != 4 || rep.Succeeded != 4 {
		t.Fatalf("failed=%d succeeded=%d, want 4/4", rep.Failed, rep.Succeeded)
	}
}

// recordSink captures every drained (recorded) sample's value and error so a
// cancelled run's partial results can be compared against a full run.
type recordSink struct {
	mu   sync.Mutex
	vals map[int]float64
	errs map[int]string
}

func (s *recordSink) Completed(int) bool { return false }
func (s *recordSink) Record(idx int, v any, _ map[string]int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.errs[idx] = err.Error()
		return
	}
	s.vals[idx] = v.(float64)
}

// TestBatchMidRunCancelDrainsBitIdentical cancels a batched run midway and
// pins the drain contract: blocks already claimed finish, every drained
// sample's value is bit-identical to the uncancelled run's, the report
// counts exactly the drained samples, and unclaimed indices are simply never
// run (they are neither attempted nor interrupted).
func TestBatchMidRunCancelDrainsBitIdentical(t *testing.T) {
	const n, seed, lanes, workers = 64, 99, 4, 2
	pol := Policy{OnFailure: SkipAndRecord, MaxFailFrac: 1}
	fn := func(_ struct{}, idx int, rng *rand.Rand) (float64, error) {
		v := rng.NormFloat64() * float64(idx+1)
		if idx%11 == 3 {
			return 0, fmt.Errorf("sample %d synthetic failure", idx)
		}
		return v, nil
	}
	ref, refRep, err := MapPooledBatchReportCtx(context.Background(), n, seed, workers, lanes,
		RunOpts{Policy: pol},
		func(int) (struct{}, error) { return struct{}{}, nil }, batchFromScalar(fn))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refErrs := make(map[int]string)
	for _, f := range refRep.Failures {
		refErrs[f.Idx] = f.Err.Error()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &recordSink{vals: map[int]float64{}, errs: map[int]string{}}
	var done atomic.Int64
	_, rep, err := MapPooledBatchReportCtx(ctx, n, seed, workers, lanes,
		RunOpts{Policy: pol, Checkpoint: sink},
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(st struct{}, idxs []int, rngs []*rand.Rand, out []float64, errs []error) {
			batchFromScalar(fn)(st, idxs, rngs, out, errs)
			// Trip the cancel once a couple of blocks have drained; blocks
			// claimed before the trip still commit their results below.
			if done.Add(int64(len(idxs))) >= 2*lanes {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of context.Canceled", err)
	}
	if !rep.Cancelled {
		t.Fatalf("report not marked cancelled: %+v", rep)
	}
	drained := len(sink.vals) + len(sink.errs)
	if drained == 0 || drained >= n {
		t.Fatalf("drained %d of %d samples; want a genuine partial run", drained, n)
	}
	if rep.Attempted != drained {
		t.Fatalf("report attempted %d, sink drained %d", rep.Attempted, drained)
	}
	if rep.Interrupted != 0 {
		// Plain compute lanes never observe ctx mid-batch, so every claimed
		// lane drains; armed circuit lanes are covered by the experiments
		// package's eviction test.
		t.Fatalf("interrupted %d lanes, want 0 (all claimed blocks drain)", rep.Interrupted)
	}
	for idx, v := range sink.vals {
		if v != ref[idx] {
			t.Fatalf("drained sample %d = %v, full run computed %v", idx, v, ref[idx])
		}
	}
	for idx, msg := range sink.errs {
		if refErrs[idx] != msg {
			t.Fatalf("drained failure %d = %q, full run recorded %q", idx, msg, refErrs[idx])
		}
	}
}
