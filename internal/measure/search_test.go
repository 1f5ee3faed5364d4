package measure

import (
	"errors"
	"math"
	"testing"

	"vstat/internal/circuits"
)

// bracketFirstSearch is the oracle for search: the setup/hold bisection as
// it ran before the bracket ends became lazy. It checks the upper end, then
// the lower end, then bisects between them.
func bracketFirstSearch(lo, hi, tol float64, pass func(float64) (bool, error)) (float64, error) {
	hiPass, err := pass(hi)
	if err != nil {
		return 0, err
	}
	if !hiPass {
		return 0, ErrNoPassRegion
	}
	loPass, err := pass(lo)
	if err != nil {
		return 0, err
	}
	if loPass {
		return lo, nil
	}
	for hi-lo > tol {
		mid := 0.5 * (lo + hi)
		ok, err := pass(mid)
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

// errRunaway ends a stub search after more trials than bisecting any
// bracket of finite floats down to adjacent floats takes, so a search that
// does not end fails its test instead of growing its trial log forever.
var errRunaway = errors.New("search ran 4096 trials")

// threshold is a monotone stub trial, pass(x) = x ≥ theta, that records
// every offset it is asked about.
type threshold struct {
	theta  float64
	trials []float64
}

func (s *threshold) pass(x float64) (bool, error) {
	if len(s.trials) == 4096 {
		return false, errRunaway
	}
	s.trials = append(s.trials, x)
	return x >= s.theta, nil
}

// bisections is the number of midpoints a search of [lo, hi] at tol runs:
// the halvings that take the bracket's width to tol or below.
func bisections(lo, hi, tol float64) (n int) {
	for w := hi - lo; w > tol; w /= 2 {
		n++
	}
	return n
}

// checkSearch runs search and its oracle on the stub pass(x) = x ≥ theta
// and fails unless they return the same value bit for bit and the same
// error. The search's trials must be midpoints strictly inside the bracket
// followed by at most one bracket end. For theta inside the bracket those
// midpoints are the oracle's, in order, and an end runs only when every
// one of them had the same outcome; outside it, all midpoints agree and
// the end on theta's side decides.
func checkSearch(t *testing.T, lo, hi, tol, theta float64) {
	t.Helper()
	got, want := &threshold{theta: theta}, &threshold{theta: theta}
	v, err := search(lo, hi, tol, got.pass)
	wv, werr := bracketFirstSearch(lo, hi, tol, want.pass)
	if err != werr || math.Float64bits(v) != math.Float64bits(wv) {
		t.Fatalf("[%g, %g] tol %g theta %g: search %.17g (%v), oracle %.17g (%v)",
			lo, hi, tol, theta, v, err, wv, werr)
	}
	var mids, ends []float64
	for _, x := range got.trials {
		switch {
		case x == lo || x == hi:
			ends = append(ends, x)
		case lo < x && x < hi && len(ends) == 0:
			mids = append(mids, x)
		default:
			t.Fatalf("[%g, %g] tol %g theta %g: trials %g", lo, hi, tol, theta, got.trials)
		}
	}
	if len(mids) == 0 || len(ends) > 1 {
		t.Fatalf("[%g, %g] tol %g theta %g: %d midpoints and %d bracket ends",
			lo, hi, tol, theta, len(mids), len(ends))
	}
	if theta <= lo || theta > hi {
		end := lo
		if theta > hi {
			end = hi
		}
		if len(ends) != 1 || ends[0] != end {
			t.Fatalf("theta %g outside [%g, %g]: bracket ends %g, want %g", theta, lo, hi, ends, end)
		}
		return
	}
	wantMids := want.trials[2:]
	if len(mids) != len(wantMids) {
		t.Fatalf("[%g, %g] tol %g theta %g: midpoints %g, oracle %g", lo, hi, tol, theta, mids, wantMids)
	}
	passed, failed := false, false
	for i, x := range mids {
		if math.Float64bits(x) != math.Float64bits(wantMids[i]) {
			t.Fatalf("[%g, %g] tol %g theta %g: midpoints %g, oracle %g", lo, hi, tol, theta, mids, wantMids)
		}
		passed, failed = passed || x >= theta, failed || x < theta
	}
	if decided := passed && failed; decided != (len(ends) == 0) {
		t.Fatalf("[%g, %g] tol %g theta %g: midpoints decided %v, bracket ends %g", lo, hi, tol, theta, decided, ends)
	}
}

// The bracket-end paths: theta above the bracket fails every midpoint and
// then the upper end, which gives ErrNoPassRegion; theta at or below the
// lower end passes every midpoint and then the lower end, which the search
// returns. Either costs the midpoints plus that one end trial. theta on
// the upper end fails every midpoint too, but the upper end passes, so the
// search returns the last cell's midpoint, as the oracle does.
func TestSearchBracketEnds(t *testing.T) {
	lo, hi, tol := -37.5e-12, 150e-12, 1e-12
	k := bisections(lo, hi, tol)
	for _, c := range []struct {
		theta, end float64
		err        error
	}{
		{200e-12, hi, ErrNoPassRegion},
		{math.Nextafter(hi, math.Inf(1)), hi, ErrNoPassRegion},
		{hi, hi, nil},
		{lo, lo, nil},
		{-100e-12, lo, nil},
	} {
		stub := &threshold{theta: c.theta}
		v, err := search(lo, hi, tol, stub.pass)
		if err != c.err || (c.end == lo && v != lo) {
			t.Fatalf("theta %g: %.17g (%v), want error %v, or %g when the lower end decides", c.theta, v, err, c.err, lo)
		}
		if len(stub.trials) != k+1 || stub.trials[k] != c.end {
			t.Fatalf("theta %g: trials %g, want %d midpoints then %g", c.theta, stub.trials, k, c.end)
		}
		checkSearch(t, lo, hi, tol, c.theta)
	}
}

// An error from a trial, midpoint or bracket end, comes back unchanged,
// and no trial runs after it.
func TestSearchTrialError(t *testing.T) {
	boom := errors.New("trial failed")
	lo, hi, tol := -37.5e-12, 150e-12, 1e-12
	for _, theta := range []float64{10e-12, 200e-12, -100e-12} {
		clean := &threshold{theta: theta}
		search(lo, hi, tol, clean.pass)
		for j := range clean.trials {
			stub := &threshold{theta: theta}
			_, err := search(lo, hi, tol, func(x float64) (bool, error) {
				if len(stub.trials) == j {
					stub.trials = append(stub.trials, x)
					return false, boom
				}
				return stub.pass(x)
			})
			if err != boom || len(stub.trials) != j+1 {
				t.Fatalf("theta %g, error at trial %d: %v after %d trials", theta, j, err, len(stub.trials))
			}
		}
	}
}

// A search whose Tol or MaxOffset is not finite and positive returns an
// error before any trial. A non-positive Tol would bisect forever once the
// bracket ends are adjacent floats, a NaN Tol would skip the bisection and
// return the bracket's midpoint, and a non-positive MaxOffset leaves an
// empty bracket. SetupTime and HoldTime run no transient step.
func TestSearchRejectsBadOptions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ff := circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), nominalVS)
	for _, c := range []struct{ tol, maxOffset float64 }{
		{0, 150e-12}, {-1e-12, 150e-12}, {nan, 150e-12}, {inf, 150e-12},
		{1e-12, 0}, {1e-12, -150e-12}, {1e-12, nan}, {1e-12, inf},
	} {
		stub := &threshold{theta: 10e-12}
		if _, err := search(-c.maxOffset/4, c.maxOffset, c.tol, stub.pass); err == nil || len(stub.trials) != 0 {
			t.Fatalf("Tol %g, MaxOffset %g: error %v after %d trials", c.tol, c.maxOffset, err, len(stub.trials))
		}
		o := DefaultSetupOpts()
		o.Tol, o.MaxOffset = c.tol, c.maxOffset
		if _, err := SetupTime(ff, o); err == nil {
			t.Fatalf("SetupTime with Tol %g, MaxOffset %g: no error", c.tol, c.maxOffset)
		}
		if _, err := HoldTime(ff, o); err == nil {
			t.Fatalf("HoldTime with Tol %g, MaxOffset %g: no error", c.tol, c.maxOffset)
		}
	}
	if st := ff.Ckt.Stats(); st.TranSteps != 0 || st.TranStepsReused != 0 {
		t.Fatalf("rejected searches ran %d steps and restored %d", st.TranSteps, st.TranStepsReused)
	}
}

// A positive Tol finer than the float spacing at the bracket still ends:
// the bisection stops once its ends are adjacent floats, one on each side
// of theta.
func TestSearchTinyTolEnds(t *testing.T) {
	stub := &threshold{theta: 10e-12}
	v, err := search(-37.5e-12, 150e-12, math.SmallestNonzeroFloat64, stub.pass)
	if err != nil {
		t.Fatal(err)
	}
	if v != stub.theta && v != math.Nextafter(stub.theta, 0) {
		t.Fatalf("setup time %.17g, want %.17g or the float below it", v, stub.theta)
	}
	if len(stub.trials) > 100 {
		t.Fatalf("%d trials", len(stub.trials))
	}
}

// FuzzSearch holds search to its bracket-first oracle (checkSearch) over
// random brackets and tolerances, with theta inside the bracket, exactly
// on one of the oracle's midpoints, above the bracket, or at or below its
// lower end. The tolerance is below the bracket's width, so there is at
// least one midpoint, and at least four float spacings, so the oracle's
// bisection ends.
func FuzzSearch(f *testing.F) {
	f.Add(-37.5e-12, 187.5e-12, uint8(7), uint16(24000), uint8(0), uint32(1<<28))
	f.Add(-150e-12, 300e-12, uint8(8), uint16(12000), uint8(1), uint32(77))
	f.Add(-37.5e-12, 187.5e-12, uint8(7), uint16(24000), uint8(2), uint32(0))
	f.Add(-150e-12, 300e-12, uint8(8), uint16(12000), uint8(3), uint32(0))
	f.Add(0.0, 1.0, uint8(40), uint16(0), uint8(7), uint32(1<<32-1))
	f.Fuzz(func(t *testing.T, lo, width float64, halvings uint8, frac uint16, mode uint8, u uint32) {
		hi := lo + width
		if !finite(lo) || !finite(hi) || !(hi > lo) || !finite(hi-lo) {
			t.Skip()
		}
		tol := (hi - lo) * math.Ldexp(1+float64(frac)/(1<<16), -1-int(halvings%48))
		m := math.Max(math.Abs(lo), math.Abs(hi))
		if !(tol >= 4*(math.Nextafter(m, math.Inf(1))-m)) {
			t.Skip()
		}
		r := (float64(u) + 1) / (1 << 32) // in (0, 1]
		var theta float64
		switch mode % 4 {
		case 0: // inside
			theta = lo + r*(hi-lo)
		case 1: // on a midpoint
			s := &threshold{theta: lo + r*(hi-lo)}
			bracketFirstSearch(lo, hi, tol, s.pass)
			if len(s.trials) < 3 {
				t.Skip()
			}
			mids := s.trials[2:]
			theta = mids[int(mode/4)%len(mids)]
		case 2: // above
			theta = math.Max(hi+r*(hi-lo), math.Nextafter(hi, math.Inf(1)))
		case 3: // at or below the lower end
			theta = lo - float64(u)/(1<<32)*(hi-lo)
		}
		checkSearch(t, lo, hi, tol, theta)
	})
}
