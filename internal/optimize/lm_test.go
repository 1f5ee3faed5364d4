package optimize

import (
	"math"
	"math/rand"
	"testing"
)

func TestLMExponentialFit(t *testing.T) {
	// Fit y = a*exp(b*t) with a=2, b=-1.5 from clean data.
	ts := make([]float64, 30)
	ys := make([]float64, 30)
	for i := range ts {
		ts[i] = float64(i) * 0.1
		ys[i] = 2 * math.Exp(-1.5*ts[i])
	}
	f := func(x []float64) []float64 {
		r := make([]float64, len(ts))
		for i := range ts {
			r[i] = x[0]*math.Exp(x[1]*ts[i]) - ys[i]
		}
		return r
	}
	res, err := LevenbergMarquardt(f, []float64{1, -0.5}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 || math.Abs(res.X[1]+1.5) > 1e-6 {
		t.Fatalf("LM got %v", res.X)
	}
	if res.Cost > 1e-15 {
		t.Fatalf("cost %g", res.Cost)
	}
}

func TestLMRosenbrockResidual(t *testing.T) {
	// Rosenbrock as LS: r = (10(y-x²), 1-x). Minimum (1,1).
	f := func(x []float64) []float64 {
		return []float64{10 * (x[1] - x[0]*x[0]), 1 - x[0]}
	}
	res, err := LevenbergMarquardt(f, []float64{-1.2, 1}, LMOptions{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-7 || math.Abs(res.X[1]-1) > 1e-7 {
		t.Fatalf("got %v cost %g", res.X, res.Cost)
	}
}

func TestLMBoxConstraints(t *testing.T) {
	// Unconstrained minimum at x=(3), bounds cap at 2.
	f := func(x []float64) []float64 { return []float64{x[0] - 3} }
	res, err := LevenbergMarquardt(f, []float64{0}, LMOptions{
		Lower: []float64{-1}, Upper: []float64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-9 {
		t.Fatalf("bounded LM got %v", res.X)
	}
}

func TestLMNoisyFitRecoversApproximately(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ts := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range ts {
		ts[i] = float64(i) * 0.05
		ys[i] = 5/(1+math.Exp(-(ts[i]-4))) + 0.01*rng.NormFloat64()
	}
	f := func(x []float64) []float64 {
		r := make([]float64, len(ts))
		for i := range ts {
			r[i] = x[0]/(1+math.Exp(-(ts[i]-x[1]))) - ys[i]
		}
		return r
	}
	res, err := LevenbergMarquardt(f, []float64{3, 3}, LMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-5) > 0.05 || math.Abs(res.X[1]-4) > 0.05 {
		t.Fatalf("got %v", res.X)
	}
}

func TestBrent(t *testing.T) {
	root, err := Brent(func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-0.7390851332151607) > 1e-10 {
		t.Fatalf("brent %g", root)
	}
	if _, err := Brent(func(x float64) float64 { return 1 + x*x }, -1, 1, 1e-9); err != ErrNoBracket {
		t.Fatalf("expected ErrNoBracket, got %v", err)
	}
}
