package optimize

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when a root finder is called without a sign
// change on the given interval.
var ErrNoBracket = errors.New("optimize: interval does not bracket a root")

// Brent finds a root of f on a bracketing interval [a, b] using Brent's
// method (inverse quadratic interpolation with bisection fallback).
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, ErrNoBracket
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for iter := 0; iter < 200; iter++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.SmallestNonzeroFloat64*math.Abs(b) + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				// Secant.
				p = 2 * xm * s
				q = 1 - s
			} else {
				// Inverse quadratic.
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
	}
	return b, nil
}
