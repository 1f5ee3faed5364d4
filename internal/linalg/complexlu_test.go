package linalg

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestCLUSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(8)
		a := NewCMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, complex(float64(n), 0))
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		// b = A x
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			s := complex(0, 0)
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			b[i] = s
		}
		got, err := SolveCLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-9*(1+cmplx.Abs(x[i])) {
				t.Fatalf("trial %d: x[%d] = %v want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestCLUSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := NewCLU(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestCMatrixOps(t *testing.T) {
	m := NewCMatrix(2, 2)
	m.Set(0, 1, 3+4i)
	if m.At(0, 1) != 3+4i {
		t.Fatal("Set/At")
	}
	m.Add(0, 1, 1)
	if m.At(0, 1) != 4+4i {
		t.Fatal("Add")
	}
	if len(m.Row(1)) != 2 {
		t.Fatal("Row")
	}
}
