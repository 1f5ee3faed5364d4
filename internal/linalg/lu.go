package linalg

import "math"

// LU holds an LU factorization with partial pivoting: P*A = L*U.
// L has a unit diagonal and is stored, together with U, in lu.
type LU struct {
	lu  *Matrix
	piv []int
}

// NewLU factors the square matrix a (which is not modified).
// It returns ErrSingular when a pivot is exactly zero; near-singular systems
// are still factored and reported by Cond-style checks at solve time.
func NewLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic("linalg: LU of non-square matrix")
	}
	n := a.Rows
	f := &LU{lu: a.Clone(), piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max, p = v, i
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// Solve solves A x = b for one right-hand side, returning a fresh slice.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("linalg: LU.Solve dimension mismatch")
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	lu := f.lu
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		ri := lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return x
}

// SolveLinear factors a and solves a single system in one call.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := NewLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
