package montecarlo

// The Monte Carlo engine. MapPooledBatchReportCtx is its one body;
// MapPooledReportCtx is its one-lane case and MapCtx the stateless one.
// Each worker builds one pooled state, then claims contiguous blocks of up
// to `lanes` sample indices from a shared atomic counter and runs each
// block in one call — the seam the lockstep SoA device-evaluation path
// (spice.BatchSim) plugs into. A sample's RNG is derived from (seed, idx)
// alone, so its value is independent of worker count, lane width, and claim
// interleaving.
//
//   - State errors: the first workers all build their states before any of
//     them claims a sample, so a state error aborts the run before any
//     sample runs.
//   - Cancellation: workers re-check ctx at every claim, so a cancelled run
//     drains the blocks in flight and returns partial results. A lane
//     interrupted by ctx counts in RunReport.Interrupted (recorded nowhere,
//     re-run on resume).
//   - Budget: samples are armed right before the batch call (per lane on a
//     BatchSampleArmer, the whole state on a one-lane SampleArmer). All
//     lanes share one arming instant, so a batch's legitimate wall time is
//     bounded like a single sample's and the watchdog needs no scaling.
//   - Hang watchdog: with Budget.Wall set, the coordinator abandons blocks
//     that run past Wall+HangGrace. A per-sample commit CAS (0 pending → 1
//     committed by the worker, 0 → 2 abandoned) gives each result slot one
//     owner: lanes already committed keep their results, the rest become
//     OverHang failures. The abandoned goroutine leaks until its blocking
//     call returns, then sees the lost CAS and exits touching nothing
//     shared; a replacement worker keeps the pool at strength.
//   - Checkpoint/resume: completed indices inside a claimed block are
//     skipped (their commit word pre-claimed so the watchdog cannot touch
//     them), making resumed batches ragged. Rescue deltas come from
//     LaneRescueReporter, or in a one-lane run from the state's
//     RescueReporter totals.
//   - Flight recorder: a one-lane run with RunOpts.Trace brackets every
//     sample with a span; lockstep batches stay untraced.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vstat/internal/lifecycle"
	"vstat/internal/obs/trace"
)

// BatchSampleArmer is implemented by batched worker states whose per-lane
// circuits enforce per-sample budgets. The engine arms lanes [0, m) just
// before each batch call (m = the batch's live lane count).
type BatchSampleArmer interface {
	ArmLane(lane int, ctx context.Context, b lifecycle.Budget)
}

// LaneRescueReporter exposes one lane's cumulative rescue counters, so the
// engine can attribute per-sample deltas to checkpoint records. States that
// also implement RescueReporter contribute their totals to the run report.
type LaneRescueReporter interface {
	LaneRescueCounts(lane int) map[string]int64
}

// batchSlot is one worker's watchdog-visible in-flight block: the claimed
// index range [lo, hi) and its start time. The worker stores start and hi
// before lo, so a coordinator that observes lo >= 0 observes the rest.
type batchSlot struct {
	lo    atomic.Int64 // -1 when idle
	hi    atomic.Int64
	start atomic.Int64
	gone  bool
}

// safeBatch runs one batch call under a panic guard; a panic poisons every
// lane of the batch with the same *PanicError.
func safeBatch[S, T any](fn func(st S, idxs []int, rngs []*rand.Rand, out []T, errs []error),
	st S, idxs []int, rngs []*rand.Rand, out []T, errs []error) {
	defer func() {
		if r := recover(); r != nil {
			perr := &PanicError{Value: r, Stack: debug.Stack()}
			var zero T
			for j := range idxs {
				out[j], errs[j] = zero, perr
			}
		}
	}()
	fn(st, idxs, rngs, out, errs)
}

// MapPooledBatchReportCtx runs fn over samples 0..n-1 with per-worker pooled
// state, claiming up to `lanes` contiguous indices per batch. fn must fill
// out[j] / errs[j] for every claimed lane j (idxs[j] is lane j's sample
// index, rngs[j] its deterministic (seed, idx) RNG). lanes <= 1 runs
// one-sample batches, the scalar engine: see MapPooledReportCtx for the
// failure, cancellation and checkpoint semantics every lane width shares.
func MapPooledBatchReportCtx[S, T any](ctx context.Context, n int, seed int64, workers, lanes int, opts RunOpts,
	newState func(worker int) (S, error),
	fn func(st S, idxs []int, rngs []*rand.Rand, out []T, errs []error)) ([]T, RunReport, error) {
	rep := RunReport{}
	if n <= 0 {
		return nil, rep, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if lanes < 1 {
		lanes = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > (n+lanes-1)/lanes {
		workers = (n + lanes - 1) / lanes
	}
	pol := opts.Policy
	ck := opts.Checkpoint
	off := opts.Offset

	// failLimit is the largest failure count that does NOT abort the run.
	// Cancellation-interrupted samples never count against it.
	failLimit := int64(n)
	switch {
	case pol.OnFailure == FailFast:
		failLimit = 0
	case pol.MaxFailFrac > 0:
		failLimit = int64(pol.MaxFailFrac * float64(n))
	}

	ps := currentProgress()
	if ps != nil {
		ps.RunStart(n, workers)
		defer ps.RunEnd()
	}

	out := make([]T, n)
	errs := make([]error, n)
	ran := make([]bool, n)
	// commit decides the single owner of each sample's result slot:
	// 0 pending, 1 committed by its worker, 2 abandoned by the watchdog.
	commit := make([]atomic.Int32, n)
	var next, failed atomic.Int64
	var abort atomic.Bool
	base := time.Now()

	// Worker states and state errors are registered at worker exit (never
	// by abandoned workers), so post-run reads race nothing.
	var mu sync.Mutex
	var states []S
	var stateErr error
	// built holds the first `workers` workers until all of them have built
	// their states, so a state error aborts the run before any sample runs.
	var built sync.WaitGroup
	built.Add(workers)

	exitCh := make(chan struct{})
	// runWorker returns true when the worker's in-flight block was abandoned
	// by the watchdog: the coordinator already accounted for it and spawned a
	// replacement, so it vanishes without signalling exit.
	runWorker := func(w int, sl *batchSlot) bool {
		st, err := safeState(newState, w)
		if err != nil {
			mu.Lock()
			if stateErr == nil {
				stateErr = fmt.Errorf("montecarlo: worker %d state: %w", w, err)
			}
			mu.Unlock()
			abort.Store(true)
		}
		if w < workers { // watchdog replacements skip the barrier
			built.Done()
			built.Wait()
		}
		if err != nil {
			return false
		}
		laneArmer, laneArmed := any(st).(BatchSampleArmer)
		var laneCounts func(lane int) map[string]int64
		if lr, ok := any(st).(LaneRescueReporter); ok {
			laneCounts = lr.LaneRescueCounts
		}
		// A one-lane run also takes a scalar state's hooks: whole-state
		// arming, rescue deltas from the state's totals, and the flight
		// recorder.
		var armer SampleArmer
		var wt *trace.SampleTracer
		var workRep WorkReporter
		if lanes == 1 {
			armer, _ = any(st).(SampleArmer)
			if rr, ok := any(st).(RescueReporter); ok && laneCounts == nil {
				laneCounts = func(int) map[string]int64 { return rr.RescueCounts() }
			}
			if wt = opts.Trace.NewWorker(w); wt != nil {
				if ta, ok := any(st).(TraceAttacher); ok {
					ta.AttachTracer(wt)
				}
				workRep, _ = any(st).(WorkReporter)
			}
		}
		idxs := make([]int, lanes)  // local indices (result slots, commit words)
		gidxs := make([]int, lanes) // global indices (Offset-shifted; fn and RNG see these)
		rngs := make([]*rand.Rand, lanes)
		bout := make([]T, lanes)
		berrs := make([]error, lanes)
		prev := make([]map[string]int64, lanes)
		for !abort.Load() && ctx.Err() == nil {
			lo := int(next.Add(int64(lanes))) - lanes
			if lo >= n {
				break
			}
			hi := lo + lanes
			if hi > n {
				hi = n
			}
			m := 0
			for idx := lo; idx < hi; idx++ {
				if ck != nil && ck.Completed(idx) {
					// Pre-claim the slot so the watchdog never abandons a
					// sample that is not actually running.
					commit[idx].CompareAndSwap(0, 1)
					continue
				}
				idxs[m] = idx
				gidxs[m] = off + idx
				m++
			}
			if m == 0 {
				continue
			}
			sl.start.Store(int64(time.Since(base)))
			sl.hi.Store(int64(hi))
			sl.lo.Store(int64(lo))
			for j := 0; j < m; j++ {
				rngs[j] = SampleRNG(seed, gidxs[j])
				berrs[j] = nil
				if ck != nil && laneCounts != nil {
					prev[j] = laneCounts(j)
				}
				if laneArmed {
					laneArmer.ArmLane(j, ctx, opts.Budget)
				}
			}
			if armer != nil {
				armer.ArmSample(ctx, opts.Budget)
			}
			var preIters, preRescues int64
			if wt != nil {
				if workRep != nil {
					preIters, preRescues = workRep.SolverWork()
				}
				wt.BeginSample(gidxs[0])
			}
			safeBatch(fn, st, gidxs[:m], rngs[:m], bout[:m], berrs[:m])
			sl.lo.Store(-1)
			lost := false
			for j := 0; j < m; j++ {
				idx := idxs[j]
				if !commit[idx].CompareAndSwap(0, 1) {
					// The watchdog gave up on this block: it owns every slot
					// we have not already committed, and a replacement worker
					// is running. Keep what we won, touch nothing else (the
					// tracer is worker-local and never collected from an
					// abandoned worker, so dropping its sample races nothing).
					lost = true
					continue
				}
				if wt != nil {
					endSample(wt, workRep, preIters, preRescues, berrs[j])
				}
				ran[idx] = true
				out[idx], errs[idx] = bout[j], berrs[j]
				if lifecycle.IsCancellation(berrs[j]) {
					// In flight when the run died: recorded nowhere, re-run on
					// resume, excluded from failure accounting and progress.
					continue
				}
				if ck != nil {
					var v any
					if berrs[j] == nil {
						v = bout[j]
					}
					var delta map[string]int64
					if laneCounts != nil {
						delta = countDelta(laneCounts(j), prev[j])
					}
					ck.Record(idx, v, delta, berrs[j])
				}
				if ps != nil {
					ps.SampleDone(berrs[j] != nil)
				}
				if berrs[j] != nil && failed.Add(1) > failLimit {
					abort.Store(true)
				}
			}
			if lost {
				return true
			}
		}
		opts.Trace.FinishWorker(wt)
		mu.Lock()
		states = append(states, st)
		mu.Unlock()
		return false
	}

	slots := make([]*batchSlot, 0, workers)
	spawn := func(w int) *batchSlot {
		sl := &batchSlot{}
		sl.lo.Store(-1)
		slots = append(slots, sl)
		go func() {
			if !runWorker(w, sl) {
				exitCh <- struct{}{}
			}
		}()
		return sl
	}
	for w := 0; w < workers; w++ {
		spawn(w)
	}
	spawned := workers

	// Coordinator: drain worker exits and, with a wall budget, scan in-flight
	// blocks for hangs (a nil tick channel never fires).
	var tickC <-chan time.Time
	var hangLimit time.Duration
	if opts.Budget.Wall > 0 {
		grace := opts.HangGrace
		if grace <= 0 {
			grace = opts.Budget.Wall
		}
		hangLimit = opts.Budget.Wall + grace
		tick := hangLimit / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		tickC = ticker.C
	}
	received, abandoned := 0, 0
	for received+abandoned < spawned {
		select {
		case <-exitCh:
			received++
		case now := <-tickC:
			nowNs := int64(now.Sub(base))
			for _, sl := range slots {
				if sl.gone {
					continue
				}
				lo := sl.lo.Load()
				if lo < 0 || nowNs-sl.start.Load() <= int64(hangLimit) {
					continue
				}
				// Abandon the whole block: every slot the worker has not
				// committed becomes an OverHang failure; slots it already
				// committed (or checkpoint-skips) keep their state.
				sl.gone = true
				abandoned++
				herr := &lifecycle.BudgetError{
					Kind:    lifecycle.OverHang,
					Elapsed: time.Duration(nowNs - sl.start.Load()),
					Wall:    opts.Budget.Wall,
				}
				for idx := lo; idx < sl.hi.Load(); idx++ {
					if !commit[idx].CompareAndSwap(0, 2) {
						continue
					}
					ran[idx] = true
					errs[idx] = herr
					if ck != nil {
						ck.Record(int(idx), nil, nil, herr)
					}
					if ps != nil {
						ps.SampleDone(true)
					}
					if failed.Add(1) > failLimit {
						abort.Store(true)
					}
				}
				if !abort.Load() && ctx.Err() == nil {
					spawn(spawned)
					spawned++
				}
			}
		}
	}

	if stateErr != nil {
		return nil, rep, stateErr
	}

	for idx := range errs {
		if !ran[idx] {
			continue
		}
		err := errs[idx]
		if err != nil && lifecycle.IsCancellation(err) {
			rep.Interrupted++
			continue
		}
		rep.Attempted++
		switch {
		case err == nil:
			rep.Succeeded++
		default:
			rep.Failed++
			var pe *PanicError
			if errors.As(err, &pe) {
				rep.Panics++
			}
			rep.Failures = append(rep.Failures, SampleFailure{Idx: off + idx, Err: err})
		}
	}
	mu.Lock()
	for _, st := range states {
		if rr, ok := any(st).(RescueReporter); ok {
			for k, v := range rr.RescueCounts() {
				if v == 0 {
					continue
				}
				if rep.Rescued == nil {
					rep.Rescued = make(map[string]int64)
				}
				rep.Rescued[k] += v
			}
		}
	}
	mu.Unlock()

	if ctx.Err() != nil {
		rep.Cancelled = true
		return out, rep, fmt.Errorf("montecarlo: run cancelled after %d completed samples: %w",
			rep.Succeeded, ctx.Err())
	}
	if int64(rep.Failed) > failLimit {
		if pol.OnFailure == FailFast {
			f := rep.Failures[0]
			return nil, rep, fmt.Errorf("montecarlo: sample %d: %w", f.Idx, f.Err)
		}
		rep.CapTripped = true
		return nil, rep, fmt.Errorf("montecarlo: %d of %d attempted samples failed (cap %g): %w",
			rep.Failed, rep.Attempted, pol.MaxFailFrac, ErrTooManyFailures)
	}
	return out, rep, nil
}

// endSample files a traced sample's diagnostic: its verdict, the solver
// work it did since the (iters0, rescues0) snapshot, and its error text and
// worst node.
func endSample(wt *trace.SampleTracer, wr WorkReporter, iters0, rescues0 int64, err error) {
	d := trace.SampleDiag{Verdict: classifyVerdict(err)}
	if wr != nil {
		iters, rescues := wr.SolverWork()
		d.Iters, d.Rescues = iters-iters0, rescues-rescues0
	}
	if err != nil {
		d.Err = err.Error()
		var ne interface{ WorstNode() string }
		if errors.As(err, &ne) {
			d.WorstNode = ne.WorstNode()
		}
	}
	wt.EndSample(d)
}

// countDelta returns cur minus prev, keeping nonzero entries (nil when
// nothing changed).
func countDelta(cur, prev map[string]int64) map[string]int64 {
	var d map[string]int64
	for k, v := range cur {
		if dv := v - prev[k]; dv != 0 {
			if d == nil {
				d = make(map[string]int64, len(cur))
			}
			d[k] = dv
		}
	}
	return d
}
