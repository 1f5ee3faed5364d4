package spice

// Run-lifecycle enforcement inside the solver. ArmSample installs a
// context and per-sample budget on the circuit; checkLifecycle, called at
// every Newton iteration boundary (the one place all analyses — DC ladder
// rungs, transient steps, sub-step rescue pieces — funnel through), turns a
// cancelled context or an exceeded budget into a typed error that the
// rescue ladders refuse to retry (see lifecycle.Interrupted short-circuits
// in dc.go and tran.go). Disarmed circuits pay two predictable branches per
// iteration and zero allocations; armed circuits add one non-blocking
// channel poll and, when a wall bound is set, one time.Now() compare.
// Budget-check time is attributed to the newton-solve phase: a check costs
// a channel poll and a compare, too little to time as a phase of its own.

import (
	"context"
	"time"

	"vstat/internal/lifecycle"
)

// ArmSample installs ctx and a per-sample budget ahead of the next solve.
// Passing a nil (or Background) context and a zero budget disarms every
// check. The iteration counter restarts from zero, so MaxNewton bounds the
// total Newton work of everything solved until the next ArmSample —
// exactly one Monte Carlo sample in the pooled drivers.
func (c *Circuit) ArmSample(ctx context.Context, b lifecycle.Budget) {
	c.lcCtx = ctx
	c.lcDone = nil
	if ctx != nil {
		c.lcDone = ctx.Done() // nil for Background/TODO: stays disarmed
	}
	c.lcBudget = b
	c.lcDeadline = time.Time{}
	if b.Wall > 0 {
		c.lcDeadline = time.Now().Add(b.Wall)
	}
	c.lcIters = 0
}

// DisarmSample clears any armed context and budget.
func (c *Circuit) DisarmSample() {
	c.lcCtx = nil
	c.lcDone = nil
	c.lcBudget = lifecycle.Budget{}
	c.lcDeadline = time.Time{}
	c.lcIters = 0
}

// LifecycleIters reports the Newton iterations counted against the current
// budget since the last ArmSample.
func (c *Circuit) LifecycleIters() int64 { return c.lcIters }

// checkLifecycle runs at the top of each Newton iteration. It returns nil
// on the hot path without allocating; errors (which allocate) occur at most
// once per sample, at the moment the sample dies.
func (c *Circuit) checkLifecycle() error {
	if c.lcDone != nil {
		select {
		case <-c.lcDone:
			return c.lcCtx.Err()
		default:
		}
	}
	c.lcIters++
	if m := c.lcBudget.MaxNewton; m > 0 && c.lcIters > m {
		return &lifecycle.BudgetError{
			Kind:  lifecycle.OverIters,
			Iters: c.lcIters,
			Max:   m,
		}
	}
	if !c.lcDeadline.IsZero() && time.Now().After(c.lcDeadline) {
		return &lifecycle.BudgetError{
			Kind:    lifecycle.OverWall,
			Elapsed: time.Since(c.lcDeadline.Add(-c.lcBudget.Wall)),
			Wall:    c.lcBudget.Wall,
		}
	}
	return nil
}
