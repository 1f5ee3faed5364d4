package linalg

// Sparse is a square sparse matrix in compressed-sparse-column (CSC) form.
// The pattern (ColPtr/RowIdx) is built once by a SparseBuilder and then
// frozen; only Val changes between factorizations. This is the natural shape
// for MNA Jacobians: the nonzero pattern is fixed per circuit template while
// every Monte Carlo sample, Newton iteration, and timestep rewrites the
// values.
type Sparse struct {
	N      int
	ColPtr []int32 // len N+1; column j occupies RowIdx/Val[ColPtr[j]:ColPtr[j+1]]
	RowIdx []int32 // row index of each stored entry, ascending within a column
	Val    []float64
}

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.RowIdx) }

// Zero clears all stored values, retaining the pattern.
func (s *Sparse) Zero() {
	for i := range s.Val {
		s.Val[i] = 0
	}
}

// At returns element (i,j) by binary search over column j (zero when the
// position is not stored). It is a convenience for tests and debugging, not
// a hot-path accessor.
func (s *Sparse) At(i, j int) float64 {
	lo, hi := s.ColPtr[j], s.ColPtr[j+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch r := s.RowIdx[mid]; {
		case r == int32(i):
			return s.Val[mid]
		case r < int32(i):
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Dense expands the matrix to dense form, for the tests that hold the
// sparse LU and the sparse Jacobian pass to dense references.
func (s *Sparse) Dense() *Matrix {
	m := NewMatrix(s.N, s.N)
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			m.Set(int(s.RowIdx[p]), j, s.Val[p])
		}
	}
	return m
}

// SparseBuilder collects matrix positions (with repeats) in stamp order and
// compresses them into a Sparse plus a stamp-site → value-slot mapping.
// Circuit assembly registers every device stamp position once at build time;
// per-sample numeric assembly then writes straight into Val through the
// returned slots with no searching and no zeroing of n² entries.
type SparseBuilder struct {
	n    int
	rows []int32
	cols []int32
}

// NewSparseBuilder starts a builder for an n×n matrix.
func NewSparseBuilder(n int) *SparseBuilder {
	if n < 0 {
		panic("linalg: negative sparse dimension")
	}
	return &SparseBuilder{n: n}
}

// Add registers a stamp site at (row, col) and returns its site index.
// Duplicate positions are allowed (several devices stamping one node pair)
// and collapse to a single stored entry at Build time.
func (b *SparseBuilder) Add(row, col int) int {
	if row < 0 || row >= b.n || col < 0 || col >= b.n {
		panic("linalg: sparse stamp out of range")
	}
	b.rows = append(b.rows, int32(row))
	b.cols = append(b.cols, int32(col))
	return len(b.rows) - 1
}

// Build compresses the registered sites into a CSC matrix (values zeroed)
// and returns, for each site index in Add order, the slot in Val that site
// stamps into.
func (b *SparseBuilder) Build() (*Sparse, []int32) {
	n := b.n
	// Counting sort by (col, row): two passes of bucket counting keep the
	// build O(sites + n) and deterministic.
	colCount := make([]int32, n+1)
	for _, c := range b.cols {
		colCount[c+1]++
	}
	for j := 0; j < n; j++ {
		colCount[j+1] += colCount[j]
	}
	// Order sites by column, stable in Add order.
	byCol := make([]int32, len(b.rows))
	next := make([]int32, n)
	copy(next, colCount[:n])
	for s := range b.cols {
		c := b.cols[s]
		byCol[next[c]] = int32(s)
		next[c]++
	}

	sp := &Sparse{N: n, ColPtr: make([]int32, n+1)}
	slots := make([]int32, len(b.rows))
	// Per-column: sort the (few) sites by row, dedup into slots.
	var rowBuf []int32
	for j := 0; j < n; j++ {
		lo, hi := colCount[j], colCount[j+1]
		sites := byCol[lo:hi]
		rowBuf = rowBuf[:0]
		for _, s := range sites {
			rowBuf = append(rowBuf, b.rows[s])
		}
		sortInt32(rowBuf)
		// Unique rows of this column, appended to the CSC arrays.
		base := int32(len(sp.RowIdx))
		var prev int32 = -1
		for _, r := range rowBuf {
			if r != prev {
				sp.RowIdx = append(sp.RowIdx, r)
				prev = r
			}
		}
		// Map each site to its slot by binary search over the unique rows.
		uniq := sp.RowIdx[base:]
		for _, s := range sites {
			slots[s] = base + searchInt32(uniq, b.rows[s])
		}
		sp.ColPtr[j+1] = int32(len(sp.RowIdx))
	}
	sp.Val = make([]float64, len(sp.RowIdx))
	return sp, slots
}

// sortInt32 is an insertion sort: per-column site counts are tiny (a handful
// of device stamps), where this beats the generic sort.
func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// searchInt32 returns the index of v in the ascending slice a.
func searchInt32(a []int32, v int32) int32 {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}
