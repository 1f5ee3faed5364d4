package montecarlo

// The Monte Carlo engine. MapPooledReportCtx is its one body and MapCtx its
// stateless case. Each worker builds one pooled state, then claims sample
// indices one at a time from a shared atomic counter. A sample's RNG is
// derived from (seed, idx) alone, so its value is independent of worker
// count and claim interleaving.
//
//   - State errors: the first workers all build their states before any of
//     them claims a sample, so a state error aborts the run before any
//     sample runs.
//   - Cancellation: workers re-check ctx at every claim, so a cancelled run
//     drains the samples in flight and returns partial results. A sample
//     interrupted by ctx counts in RunReport.Interrupted (recorded nowhere,
//     re-run on resume).
//   - Budget: a state implementing SampleArmer is armed right before each
//     sample runs.
//   - Hang watchdog: with Budget.Wall set, the coordinator abandons samples
//     that run past Wall+HangGrace. A per-sample commit CAS (0 pending → 1
//     committed by the worker, 0 → 2 abandoned) gives each result slot one
//     owner. The abandoned goroutine leaks until its blocking call returns,
//     then sees the lost CAS and exits touching nothing shared; a
//     replacement worker keeps the pool at strength.
//   - Checkpoint/resume: completed indices are skipped, and every other
//     completion is recorded with its rescue delta from the state's
//     RescueReporter totals.
//   - Flight recorder: with RunOpts.Trace every sample is bracketed by a
//     span.

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

// workerSlot is one worker's watchdog-visible in-flight sample: its local
// index and start time. The worker stores start before idx, so a
// coordinator that observes idx >= 0 observes the start too.
type workerSlot struct {
	idx   atomic.Int64 // -1 when idle
	start atomic.Int64
	gone  bool
}

// safeSample runs one sample under a panic guard; a panic becomes the
// sample's *PanicError.
func safeSample[S, T any](fn func(st S, idx int, rng *rand.Rand) (T, error),
	st S, idx int, rng *rand.Rand) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(st, idx, rng)
}

// MapPooledReportCtx is MapCtx with per-worker pooled state, a RunReport
// and lifecycle options. newState builds one S per worker (a circuit
// template with preallocated solver scratch, say) and fn evaluates sample
// idx against its worker's state, which must not leak sample-dependent
// results across samples.
//
//   - A newState error or panic aborts the run before any sample runs; a
//     panicking sample becomes a per-sample *PanicError and its worker and
//     state carry on.
//   - Under SkipAndRecord failed slots keep the zero value (drop them with
//     Compact); under FailFast or a tripped cap the slice is nil and the
//     error names the lowest failing index or the cap, with the RunReport
//     still populated.
//   - On cancellation the run returns its partial results with Cancelled
//     set, in-flight samples counted as Interrupted (not Attempted), and an
//     error wrapping ctx.Err().
//   - A sample over its budget fails with *lifecycle.BudgetError under the
//     failure policy.
//   - With a checkpoint, completed samples are skipped and every completion
//     is recorded.
func MapPooledReportCtx[S, T any](ctx context.Context, n int, seed int64, workers int, opts RunOpts,
	newState func(worker int) (S, error),
	fn func(st S, idx int, rng *rand.Rand) (T, error)) ([]T, RunReport, error) {
	rep := RunReport{}
	if n <= 0 {
		return nil, rep, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
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
	// runWorker returns true when the worker's in-flight sample was
	// abandoned by the watchdog: the coordinator already accounted for it
	// and spawned a replacement, so it vanishes without signalling exit.
	runWorker := func(w int, sl *workerSlot) bool {
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
		armer, _ := any(st).(SampleArmer)
		reporter, _ := any(st).(RescueReporter)
		var workRep WorkReporter
		wt := opts.Trace.NewWorker(w)
		if wt != nil {
			if ta, ok := any(st).(TraceAttacher); ok {
				ta.AttachTracer(wt)
			}
			workRep, _ = any(st).(WorkReporter)
		}
		for !abort.Load() && ctx.Err() == nil {
			idx := int(next.Add(1)) - 1
			if idx >= n {
				break
			}
			if ck != nil && ck.Completed(idx) {
				continue
			}
			sl.start.Store(int64(time.Since(base)))
			sl.idx.Store(int64(idx))
			var prev map[string]int64
			if ck != nil && reporter != nil {
				prev = reporter.RescueCounts()
			}
			if armer != nil {
				armer.ArmSample(ctx, opts.Budget)
			}
			var preIters, preRescues int64
			if wt != nil {
				if workRep != nil {
					preIters, preRescues = workRep.SolverWork()
				}
				wt.BeginSample(off + idx)
			}
			v, serr := safeSample(fn, st, off+idx, SampleRNG(seed, off+idx))
			sl.idx.Store(-1)
			if !commit[idx].CompareAndSwap(0, 1) {
				// The watchdog gave up on this sample: it owns the result
				// slot and a replacement worker is running. Touch nothing
				// shared (the tracer is worker-local and never collected
				// from an abandoned worker, so dropping its sample races
				// nothing).
				return true
			}
			if wt != nil {
				endSample(wt, workRep, preIters, preRescues, serr)
			}
			ran[idx] = true
			out[idx], errs[idx] = v, serr
			if lifecycle.IsCancellation(serr) {
				// In flight when the run died: recorded nowhere, re-run on
				// resume, excluded from failure accounting and progress.
				continue
			}
			if ck != nil {
				var rv any
				if serr == nil {
					rv = v
				}
				var delta map[string]int64
				if reporter != nil {
					delta = countDelta(reporter.RescueCounts(), prev)
				}
				ck.Record(idx, rv, delta, serr)
			}
			if ps != nil {
				ps.SampleDone(serr != nil)
			}
			if serr != nil && failed.Add(1) > failLimit {
				abort.Store(true)
			}
		}
		opts.Trace.FinishWorker(wt)
		mu.Lock()
		states = append(states, st)
		mu.Unlock()
		return false
	}

	slots := make([]*workerSlot, 0, workers)
	spawn := func(w int) {
		sl := &workerSlot{}
		sl.idx.Store(-1)
		slots = append(slots, sl)
		go func() {
			if !runWorker(w, sl) {
				exitCh <- struct{}{}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		spawn(w)
	}
	spawned := workers

	// Coordinator: drain worker exits and, with a wall budget, scan in-flight
	// samples for hangs (a nil tick channel never fires).
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
				idx := sl.idx.Load()
				if idx < 0 || nowNs-sl.start.Load() <= int64(hangLimit) {
					continue
				}
				if !commit[idx].CompareAndSwap(0, 2) {
					continue // just committed; the worker is fine
				}
				// Abandon the sample as an OverHang failure and spawn a
				// replacement, so siblings do not inherit the hung worker's
				// share of the population.
				sl.gone = true
				abandoned++
				herr := &lifecycle.BudgetError{
					Kind:    lifecycle.OverHang,
					Elapsed: time.Duration(nowNs - sl.start.Load()),
					Wall:    opts.Budget.Wall,
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
