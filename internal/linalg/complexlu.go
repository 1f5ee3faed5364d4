package linalg

import "math/cmplx"

// CMatrix is a dense, row-major complex matrix used by AC small-signal
// analysis (G + jωC systems).
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zeroed r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns element (i,j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i,j).
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i.
func (m *CMatrix) Row(i int) []complex128 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// CLU is an LU factorization with partial pivoting of a complex matrix.
type CLU struct {
	lu  *CMatrix
	piv []int
}

// NewCLU factors the square complex matrix a (not modified).
func NewCLU(a *CMatrix) (*CLU, error) {
	if a.Rows != a.Cols {
		panic("linalg: CLU of non-square matrix")
	}
	n := a.Rows
	lu := NewCMatrix(n, n)
	copy(lu.Data, a.Data)
	f := &CLU{lu: lu, piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		p := k
		max := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(lu.At(i, k)); v > max {
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

// Solve solves A x = b for one complex right-hand side.
func (f *CLU) Solve(b []complex128) []complex128 {
	n := f.lu.Rows
	if len(b) != n {
		panic("linalg: CLU.Solve dimension mismatch")
	}
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
	return x
}

// SolveCLinear factors and solves in one call.
func SolveCLinear(a *CMatrix, b []complex128) ([]complex128, error) {
	f, err := NewCLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
