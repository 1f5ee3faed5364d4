package measure

import (
	"errors"
	"fmt"

	"vstat/internal/circuits"
	"vstat/internal/spice"
)

// ErrNoPassRegion is returned when the flip-flop fails even at the largest
// tested offset (broken register).
var ErrNoPassRegion = errors.New("measure: no passing data-to-clock offset")

// SetupOpts configures the setup-time search.
type SetupOpts struct {
	ClkEdge   float64 // rising clock edge time, s
	MaxOffset float64 // largest data-to-clock offset tried, s
	Tol       float64 // bisection resolution, s
	Step      float64 // transient step, s
	Settle    float64 // time after the edge at which Q is checked, s

	// Res, when non-nil, is a reusable transient result refilled by every
	// bisection trial (the pooled Monte Carlo path); nil keeps the classic
	// allocate-per-trial behavior.
	Res *spice.TranResult
	// Fast selects the carried-Jacobian transient path for the trials.
	Fast bool
}

// DefaultSetupOpts returns a search window suited to the 40-nm register.
func DefaultSetupOpts() SetupOpts {
	return SetupOpts{
		ClkEdge:   300e-12,
		MaxOffset: 150e-12,
		Tol:       1e-12,
		Step:      2e-12,
		Settle:    300e-12,
	}
}

// SetupTime finds the minimum time by which a 0→1 data transition must
// precede the rising clock edge for the register to capture the 1 (checked
// at ClkEdge+Settle), searching offsets in [−MaxOffset/4, MaxOffset]. As in
// the paper, every probe of the bisection is a transient, which is what
// makes register characterization ~20× more expensive than a combinational
// cell and motivates the ultra-compact VS model. The probes share the
// register's transient record (DFF.Rec): they start from the same state
// under the same clock, so each probe solves only the steps from its data
// edge on, with the same result bit for bit as a transient from t = 0.
func SetupTime(ff *circuits.DFF, o SetupOpts) (float64, error) {
	setClock(ff, o)
	return search(-o.MaxOffset/4, o.MaxOffset, o.Tol, func(offset float64) (bool, error) {
		return setupTrialPasses(ff, o, offset)
	})
}

// HoldTime finds the minimum time the data must remain stable *after* the
// rising clock edge: data goes high well before the edge, then falls at
// ClkEdge+offset; the register must still capture the 1. Returned is the
// smallest passing offset in [−MaxOffset, MaxOffset] (can be negative when
// the data may fall before the edge). Like SetupTime's, the probes share
// the register's transient record and each solves only the steps from its
// data fall on.
func HoldTime(ff *circuits.DFF, o SetupOpts) (float64, error) {
	setClock(ff, o)
	return search(-o.MaxOffset, o.MaxOffset, o.Tol, func(offset float64) (bool, error) {
		return holdTrialPasses(ff, o, offset)
	})
}

// search returns the smallest offset in [lo, hi] at which pass holds, to
// within tol, for a pass that fails below some offset and holds from it on
// (monotone capture). It bisects the bracket first and runs a bracket end
// only when no midpoint decided it: the upper end when every midpoint
// failed (ErrNoPassRegion if it fails too), the lower end when every
// midpoint passed (returned if it passes). A passing and a failing
// midpoint already imply both ends' outcomes, so under monotone capture
// this returns what checking both ends first would, from the same
// midpoints in the same order, and a sample decided inside the bracket
// runs no end trial at all. An error from pass comes back unchanged.
// Bounds that are not finite with lo < hi, or a tol that is not finite and
// positive, are rejected before any trial.
func search(lo, hi, tol float64, pass func(offset float64) (bool, error)) (float64, error) {
	if !(lo < hi && tol > 0) || !finite(lo) || !finite(hi) || !finite(tol) {
		return 0, fmt.Errorf("measure: setup/hold search over [%g, %g] at tolerance %g: "+
			"Tol and MaxOffset must be finite and positive", lo, hi, tol)
	}
	l, h := lo, hi
	for h-l > tol {
		mid := 0.5 * (l + h)
		if mid <= l || mid >= h {
			break // adjacent floats: no offset lies between them
		}
		ok, err := pass(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			h = mid
		} else {
			l = mid
		}
	}
	// Every midpoint lies strictly inside the bracket, so h is still hi
	// only if no midpoint passed, and l still lo only if none failed.
	if h == hi {
		ok, err := pass(hi)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, ErrNoPassRegion
		}
	}
	if l == lo {
		ok, err := pass(lo)
		if err != nil {
			return 0, err
		}
		if ok {
			// Captures even at the lower end (for setup, data after the
			// edge): no constraint in the window; report the lower bound.
			return lo, nil
		}
	}
	return 0.5 * (l + h), nil
}

// setupTrialPasses runs one capture trial with the data edge at
// ClkEdge−offset and reports whether Q latched high.
func setupTrialPasses(ff *circuits.DFF, o SetupOpts, offset float64) (bool, error) {
	tData := o.ClkEdge - offset
	// Data: low, rising at tData, staying high.
	ff.Data.T = append(ff.Data.T[:0], 0, tData, tData+circuits.EdgeTime)
	ff.Data.V = append(ff.Data.V[:0], 0, 0, ff.Vdd)
	return captures(ff, o, "setup")
}

// holdTrialPasses runs one capture trial with the data falling at
// ClkEdge+offset and reports whether Q still latched high.
func holdTrialPasses(ff *circuits.DFF, o SetupOpts, offset float64) (bool, error) {
	edge := circuits.EdgeTime
	tFall := o.ClkEdge + offset
	// Data: high early (ample setup), falling at tFall.
	ff.Data.T = append(ff.Data.T[:0], 0, 50e-12, 50e-12+edge, tFall, tFall+edge)
	ff.Data.V = append(ff.Data.V[:0], 0, 0, ff.Vdd, ff.Vdd, 0)
	return captures(ff, o, "hold")
}

// captures runs one trial under the data waveform in ff.Data and reports
// whether Q is high at ClkEdge+Settle.
func captures(ff *circuits.DFF, o SetupOpts, kind string) (bool, error) {
	ff.Ckt.SetVSource(ff.DSrc, &ff.Data)
	stop := o.ClkEdge + o.Settle
	res, err := o.runTrial(ff, stop)
	if err != nil {
		return false, fmt.Errorf("%s trial: %w", kind, err)
	}
	q := res.At(ff.Q, stop)
	// NaN compares false and would silently read as "capture failed",
	// steering the bisection instead of surfacing the broken trial.
	if !finite(q) {
		return false, fmt.Errorf("%s trial Q at t=%g: %w", kind, stop, ErrNonFinite)
	}
	return q > ff.Vdd/2, nil
}

// setClock installs the clock of a search, shared by all its trials: low
// long enough for the master to settle at D=0, one rising edge at ClkEdge,
// held high through the check.
func setClock(ff *circuits.DFF, o SetupOpts) {
	ff.Clock.T = append(ff.Clock.T[:0], 0, o.ClkEdge, o.ClkEdge+circuits.EdgeTime)
	ff.Clock.V = append(ff.Clock.V[:0], 0, 0, ff.Vdd)
	ff.Ckt.SetVSource(ff.ClkSrc, &ff.Clock)
}

// runTrial runs one capture transient, into o.Res when pooling is active,
// resuming from the register's record of the previous trial.
func (o SetupOpts) runTrial(ff *circuits.DFF, stop float64) (*spice.TranResult, error) {
	opts := spice.TranOpts{
		Stop: stop, Step: o.Step, UIC: true, IC: ff.ICHoldingZero(), Fast: o.Fast,
		Record: &ff.Rec,
	}
	if o.Res != nil {
		if err := ff.Ckt.TransientInto(opts, o.Res); err != nil {
			return nil, err
		}
		return o.Res, nil
	}
	return ff.Ckt.Transient(opts)
}
