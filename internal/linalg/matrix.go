// Package linalg provides the small linear-algebra kernel used by the
// statistical VS model tool chain: matrices, LU and QR factorizations,
// a symmetric eigensolver, non-negative least squares, and the sparse LU
// of the circuit simulator's MNA Jacobians.
//
// Everything is implemented from scratch on float64 slices (the Go standard
// library has no linear algebra), sized for the problems in this repository:
// MNA systems of a few dozen unknowns and BPV least-squares stacks with a
// handful of columns. Algorithms favour clarity and numerical robustness
// (partial pivoting, Householder reflections) over blocking or SIMD.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFromRows builds a matrix from row slices. All rows must have the
// same length.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i,j) in place.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets all elements to zero, retaining the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MulVec returns m*x as a new vector.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddMatrix returns m+b as a new matrix.
func (m *Matrix) AddMatrix(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("linalg: AddMatrix dimension mismatch")
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += b.Data[i]
	}
	return out
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// ErrSingular is returned when a factorization meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation to avoid overflow for large entries.
	scale, ssq := 0.0, 1.0
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the max-abs norm of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// VecClone returns a copy of v.
func VecClone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// VecSub returns a-b as a new vector.
func VecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: VecSub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
