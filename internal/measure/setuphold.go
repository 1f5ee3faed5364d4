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
// at ClkEdge+Settle). As in the paper, every probe of the bisection is a
// transient, which is what makes register characterization ~20× more
// expensive than a combinational cell and motivates the ultra-compact VS
// model. The probes share the register's transient record (DFF.Rec): they
// start from the same state under the same clock, so each probe solves
// only the steps from its data edge on, with the same result bit for bit
// as a transient from t = 0.
func SetupTime(ff *circuits.DFF, o SetupOpts) (float64, error) {
	setClock(ff, o)
	passes := func(offset float64) (bool, error) {
		return setupTrialPasses(ff, o, offset)
	}
	// The largest offset must pass and a zero/negative margin must fail.
	hiPass, err := passes(o.MaxOffset)
	if err != nil {
		return 0, err
	}
	if !hiPass {
		return 0, ErrNoPassRegion
	}
	lo, hi := -o.MaxOffset/4, o.MaxOffset
	loPass, err := passes(lo)
	if err != nil {
		return 0, err
	}
	if loPass {
		// Captures even with data after the edge: effectively no setup
		// constraint in the window; report the lower bound.
		return lo, nil
	}
	for hi-lo > o.Tol {
		mid := 0.5 * (lo + hi)
		ok, err := passes(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// setupTrialPasses runs one capture trial with the data edge at
// ClkEdge−offset and reports whether Q latched high.
func setupTrialPasses(ff *circuits.DFF, o SetupOpts, offset float64) (bool, error) {
	vdd := ff.Vdd
	edge := circuits.EdgeTime
	tData := o.ClkEdge - offset

	// Data: low, rising at tData, staying high.
	ff.Data.T = append(ff.Data.T[:0], 0, tData, tData+edge)
	ff.Data.V = append(ff.Data.V[:0], 0, 0, vdd)
	ff.Ckt.SetVSource(ff.DSrc, &ff.Data)

	stop := o.ClkEdge + o.Settle
	res, err := o.runTrial(ff, stop)
	if err != nil {
		return false, fmt.Errorf("setup trial: %w", err)
	}
	q := res.At(ff.Q, stop)
	// NaN compares false and would silently read as "capture failed",
	// steering the bisection instead of surfacing the broken trial.
	if !finite(q) {
		return false, fmt.Errorf("setup trial Q at t=%g: %w", stop, ErrNonFinite)
	}
	return q > vdd/2, nil
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

// HoldTime finds the minimum time the data must remain stable *after* the
// rising clock edge: data goes high well before the edge, then falls at
// ClkEdge+offset; the register must still capture the 1. Returned is the
// smallest passing offset (can be negative when the data may fall before
// the edge). Like SetupTime's, the probes share the register's transient
// record and each solves only the steps from its data fall on.
func HoldTime(ff *circuits.DFF, o SetupOpts) (float64, error) {
	setClock(ff, o)
	passes := func(offset float64) (bool, error) {
		return holdTrialPasses(ff, o, offset)
	}
	hiPass, err := passes(o.MaxOffset)
	if err != nil {
		return 0, err
	}
	if !hiPass {
		return 0, ErrNoPassRegion
	}
	lo, hi := -o.MaxOffset, o.MaxOffset
	loPass, err := passes(lo)
	if err != nil {
		return 0, err
	}
	if loPass {
		return lo, nil
	}
	for hi-lo > o.Tol {
		mid := 0.5 * (lo + hi)
		ok, err := passes(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

func holdTrialPasses(ff *circuits.DFF, o SetupOpts, offset float64) (bool, error) {
	vdd := ff.Vdd
	edge := circuits.EdgeTime
	tFall := o.ClkEdge + offset

	// Data: high early (ample setup), falling at tFall.
	ff.Data.T = append(ff.Data.T[:0], 0, 50e-12, 50e-12+edge, tFall, tFall+edge)
	ff.Data.V = append(ff.Data.V[:0], 0, 0, vdd, vdd, 0)
	ff.Ckt.SetVSource(ff.DSrc, &ff.Data)
	stop := o.ClkEdge + o.Settle
	res, err := o.runTrial(ff, stop)
	if err != nil {
		return false, fmt.Errorf("hold trial: %w", err)
	}
	q := res.At(ff.Q, stop)
	if !finite(q) {
		return false, fmt.Errorf("hold trial Q at t=%g: %w", stop, ErrNonFinite)
	}
	return q > vdd/2, nil
}
