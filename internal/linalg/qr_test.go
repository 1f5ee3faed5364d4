package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQRSquareSolve(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := LeastSquares(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("got %v", x)
	}
}

func TestQROverdetermined(t *testing.T) {
	// Fit y = 2t + 1 exactly from 4 points.
	a := NewMatrixFromRows([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	b := []float64{1, 3, 5, 7}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 2, 1e-12) || !almostEq(x[1], 1, 1e-12) {
		t.Fatalf("got %v", x)
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for rank-deficient LS")
	}
}

// Property: the least-squares residual is orthogonal to the column space.
func TestQRNormalEquationsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(8)
		n := 2 + r.Intn(3)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw: skip
		}
		res := VecSub(b, a.MulVec(x))
		for j := 0; j < n; j++ {
			col := make([]float64, m)
			for i := 0; i < m; i++ {
				col[i] = a.At(i, j)
			}
			if math.Abs(Dot(col, res)) > 1e-8*(1+Norm2(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
