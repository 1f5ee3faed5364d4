package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("At wrong: %v", m)
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set failed")
	}
	m.Add(0, 0, 1)
	if m.At(0, 0) != 10 {
		t.Fatal("Add failed")
	}
	tt := m.T()
	if tt.At(1, 0) != 2 {
		t.Fatal("T failed")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 10 {
		t.Fatal("Clone aliases storage")
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := a.MulVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec got %v want %v", y, want)
		}
	}
}

func TestAddScale(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{4, 3}, {2, 1}})
	s := a.AddMatrix(b)
	if s.At(0, 0) != 5 || s.At(1, 1) != 5 {
		t.Fatal("AddMatrix wrong")
	}
	a.Clone().Scale(2) // should not affect a
	if a.At(0, 0) != 1 {
		t.Fatal("Scale aliased")
	}
}

func TestDotNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Fatal("NormInf wrong")
	}
	// Norm2 must not overflow for huge components.
	if v := Norm2([]float64{1e308, 1e308}); math.IsInf(v, 1) {
		t.Fatal("Norm2 overflowed")
	}
}

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestLUSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := randomMatrix(r, n)
		// Diagonal boost keeps condition numbers sane for the property.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(got[i], x[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := NewLU(a); err == nil {
		t.Fatal("expected ErrSingular for rank-1 matrix")
	}
}
