package linalg

import "math"

// SparseLU is a sparse LU factorization with a one-time symbolic analysis
// and an allocation-free numeric refactor, built for matrices whose pattern
// is fixed while their values change many times (MNA Jacobians across Monte
// Carlo samples, Newton iterations, and timesteps).
//
// Analyze chooses a fill-reducing pivot order (Markowitz cost with threshold
// partial pivoting, diagonal-preferring) against representative numeric
// values, computes the static fill-in pattern of P·A·Q = L·U, and unrolls
// the whole elimination into a flat operation tape: per-column divide ops and
// multiply-subtract update ops addressing precomputed value slots. Refactor
// then replays the tape over fresh values — no pivot search, no pattern
// work, no allocation — and the triangular solves walk the same static
// slots. On the benchmark circuits the tape is a few hundred fused ops
// against a dense LU's O(n³/3) factor plus O(n²) copy/zero traffic.
//
// Pivot health follows dense LU's ErrSingular contract: a refactor
// meeting an exactly-zero pivot returns ErrSingular, and Growth reports the
// largest multiplier magnitude of the last refactor so callers can detect a
// numerically degenerate (but nonzero) static pivot order and re-run Analyze
// against the offending values — the rare re-pivot path.
type SparseLU struct {
	n       int
	rowPerm []int32 // permuted row k ← original row rowPerm[k]
	colPerm []int32 // permuted col k ← original col colPerm[k]

	vals    []float64 // static L\U storage (unit-diagonal L implicit)
	scatter []int32   // A's CSC slot s stamps into vals[scatter[s]]

	pivSlot []int32 // vals slot of U(k,k), per elimination step

	// Divide ops, grouped by elimination step k: vals[divSlot] /= pivot.
	// divRow doubles as the row index for the column-oriented forward solve.
	divStart []int32
	divSlot  []int32
	divRow   []int32

	// Update ops, grouped by step k: vals[updT] -= vals[updL]*vals[updU].
	updStart []int32
	updT     []int32
	updL     []int32
	updU     []int32

	// U row slots for the back substitution, grouped by row k.
	bwdStart []int32
	bwdSlot  []int32
	bwdCol   []int32

	pb     []float64 // permuted solve buffer
	growth float64   // max |multiplier| of the last Refactor
}

// pivotThreshold is the Markowitz threshold-pivoting parameter: a candidate
// pivot must be at least this fraction of the largest active entry in its
// column, bounding every multiplier by its reciprocal. 0.1 keeps the
// factors within ~one decimal digit of partial pivoting's accuracy while
// still letting the Markowitz cost pick sparse pivots; the extra fill on
// MNA patterns is marginal.
const pivotThreshold = 0.1

// NewSparseLU analyzes the pattern and representative values of a and
// returns a factorization object ready for Refactor/SolvePermuting. It
// returns ErrSingular when no acceptable pivot exists at some step.
func NewSparseLU(a *Sparse) (*SparseLU, error) {
	f := &SparseLU{}
	if err := f.Analyze(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Analyze (re)runs the symbolic analysis against the pattern and current
// values of a: pivot-order selection, static fill-in pattern, and operation
// tape. It allocates; the per-sample path is Refactor. Call it again only
// when Refactor reports ErrSingular or excessive Growth — values so far from
// the analyzed ones that the static pivot order has gone numerically bad.
// A 0×0 pattern analyzes to the empty factorization, which refactors and
// solves as a no-op, as the dense LU of a 0×0 matrix does.
func (f *SparseLU) Analyze(a *Sparse) error {
	n := a.N
	// Working pattern and values in original coordinates. occ is structural:
	// once a position fills in it stays in the pattern even if its value
	// cancels to zero, so the tape is value-independent.
	occ := make([]bool, n*n)
	w := make([]float64, n*n)
	rowCnt := make([]int32, n) // active-entry counts for the Markowitz cost
	colCnt := make([]int32, n)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := int(a.RowIdx[p])
			if !occ[i*n+j] {
				occ[i*n+j] = true
				rowCnt[i]++
				colCnt[j]++
			}
			w[i*n+j] += a.Val[p]
		}
	}

	rowPerm := make([]int32, n) // step k -> original row
	colPerm := make([]int32, n)
	rowDone := make([]bool, n)
	colDone := make([]bool, n)
	invRow := make([]int32, n) // original row -> step
	invCol := make([]int32, n)

	for k := 0; k < n; k++ {
		pi, pj := f.pickPivot(n, occ, w, rowCnt, colCnt, rowDone, colDone)
		if pi < 0 {
			return ErrSingular
		}
		rowPerm[k], colPerm[k] = int32(pi), int32(pj)
		invRow[pi], invCol[pj] = int32(k), int32(k)
		rowDone[pi], colDone[pj] = true, true
		rowCnt[pi] = 0
		colCnt[pj] = 0
		for j := 0; j < n; j++ {
			if !colDone[j] && occ[pi*n+j] {
				colCnt[j]--
			}
		}
		for i := 0; i < n; i++ {
			if !rowDone[i] && occ[i*n+pj] {
				rowCnt[i]--
			}
		}
		// Eliminate: scale column pj below the pivot, update the active
		// submatrix, recording structural fill.
		piv := w[pi*n+pj]
		for i := 0; i < n; i++ {
			if rowDone[i] || !occ[i*n+pj] {
				continue
			}
			m := w[i*n+pj] / piv
			w[i*n+pj] = m
			for j := 0; j < n; j++ {
				if colDone[j] || !occ[pi*n+j] {
					continue
				}
				if !occ[i*n+j] {
					occ[i*n+j] = true
					rowCnt[i]++
					colCnt[j]++
				}
				w[i*n+j] -= m * w[pi*n+j]
			}
		}
	}

	// Slot layout over the final pattern, in permuted coordinates: per step
	// k the pivot, then U row k, then L column k — the order the tape and
	// the solves touch them.
	pos := make([]int32, n*n)
	for i := range pos {
		pos[i] = -1
	}
	permOcc := func(ki, kj int) bool {
		return occ[int(rowPerm[ki])*n+int(colPerm[kj])]
	}
	var nslots int32
	for k := 0; k < n; k++ {
		pos[k*n+k] = nslots
		nslots++
		for kj := k + 1; kj < n; kj++ {
			if permOcc(k, kj) {
				pos[k*n+kj] = nslots
				nslots++
			}
		}
		for ki := k + 1; ki < n; ki++ {
			if permOcc(ki, k) {
				pos[ki*n+k] = nslots
				nslots++
			}
		}
	}

	f.n = n
	f.rowPerm, f.colPerm = rowPerm, colPerm
	f.vals = make([]float64, nslots)
	f.pivSlot = make([]int32, n)
	f.divStart = make([]int32, n+1)
	f.updStart = make([]int32, n+1)
	f.bwdStart = make([]int32, n+1)
	f.divSlot, f.divRow = f.divSlot[:0], f.divRow[:0]
	f.updT, f.updL, f.updU = f.updT[:0], f.updL[:0], f.updU[:0]
	f.bwdSlot, f.bwdCol = f.bwdSlot[:0], f.bwdCol[:0]
	for k := 0; k < n; k++ {
		f.pivSlot[k] = pos[k*n+k]
		f.divStart[k] = int32(len(f.divSlot))
		f.updStart[k] = int32(len(f.updT))
		f.bwdStart[k] = int32(len(f.bwdSlot))
		for kj := k + 1; kj < n; kj++ {
			if permOcc(k, kj) {
				f.bwdSlot = append(f.bwdSlot, pos[k*n+kj])
				f.bwdCol = append(f.bwdCol, int32(kj))
			}
		}
		for ki := k + 1; ki < n; ki++ {
			if !permOcc(ki, k) {
				continue
			}
			f.divSlot = append(f.divSlot, pos[ki*n+k])
			f.divRow = append(f.divRow, int32(ki))
			for kj := k + 1; kj < n; kj++ {
				if permOcc(k, kj) {
					f.updT = append(f.updT, pos[ki*n+kj])
					f.updL = append(f.updL, pos[ki*n+k])
					f.updU = append(f.updU, pos[k*n+kj])
				}
			}
		}
	}
	f.divStart[n] = int32(len(f.divSlot))
	f.updStart[n] = int32(len(f.updT))
	f.bwdStart[n] = int32(len(f.bwdSlot))

	// A-pattern scatter: CSC slot s of A lands at vals[scatter[s]].
	f.scatter = make([]int32, a.NNZ())
	for j := 0; j < n; j++ {
		kj := invCol[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			ki := invRow[a.RowIdx[p]]
			f.scatter[p] = pos[int(ki)*n+int(kj)]
		}
	}
	f.pb = make([]float64, n)
	f.growth = 1
	return nil
}

// pickPivot selects the next pivot by Markowitz cost (r-1)(c-1) among
// numerically acceptable active entries (threshold partial pivoting against
// the active column max). Acceptable diagonal entries are preferred at equal
// cost — the natural choice for MNA matrices where gmin guarantees node
// diagonals. Returns (-1,-1) when the active submatrix has no nonzero entry.
func (f *SparseLU) pickPivot(n int, occ []bool, w []float64, rowCnt, colCnt []int32, rowDone, colDone []bool) (int, int) {
	bestI, bestJ := -1, -1
	var bestCost int64 = math.MaxInt64
	bestDiag := false
	for j := 0; j < n; j++ {
		if colDone[j] {
			continue
		}
		// Active column max for the threshold test.
		colMax := 0.0
		for i := 0; i < n; i++ {
			if rowDone[i] || !occ[i*n+j] {
				continue
			}
			if v := math.Abs(w[i*n+j]); v > colMax {
				colMax = v
			}
		}
		if colMax == 0 {
			continue
		}
		thresh := pivotThreshold * colMax
		for i := 0; i < n; i++ {
			if rowDone[i] || !occ[i*n+j] {
				continue
			}
			if math.Abs(w[i*n+j]) < thresh {
				continue
			}
			cost := int64(rowCnt[i]-1) * int64(colCnt[j]-1)
			diag := i == j
			if cost < bestCost || (cost == bestCost && diag && !bestDiag) {
				bestCost, bestI, bestJ, bestDiag = cost, i, j, diag
			}
		}
	}
	return bestI, bestJ
}

// Refactor recomputes the numeric factors from the values of a (whose
// pattern must be the one given to Analyze) by replaying the static
// elimination tape. It performs no allocations. It returns ErrSingular when
// a pivot is exactly zero; the factors are then undefined until the next
// successful Refactor. Callers watching Growth can detect a numerically
// degenerate pivot order and re-Analyze.
func (f *SparseLU) Refactor(a *Sparse) error {
	if a.N != f.n || a.NNZ() != len(f.scatter) {
		panic("linalg: SparseLU.Refactor pattern mismatch")
	}
	vals := f.vals
	for i := range vals {
		vals[i] = 0
	}
	for s, p := range f.scatter {
		vals[p] += a.Val[s]
	}
	growth := 0.0
	for k := 0; k < f.n; k++ {
		piv := vals[f.pivSlot[k]]
		if piv == 0 {
			f.growth = math.Inf(1)
			return ErrSingular
		}
		for t := f.divStart[k]; t < f.divStart[k+1]; t++ {
			m := vals[f.divSlot[t]] / piv
			vals[f.divSlot[t]] = m
			if m < 0 {
				m = -m
			}
			if m > growth {
				growth = m
			}
		}
		for t := f.updStart[k]; t < f.updStart[k+1]; t++ {
			vals[f.updT[t]] -= vals[f.updL[t]] * vals[f.updU[t]]
		}
	}
	f.growth = growth
	return nil
}

// Growth returns the largest multiplier magnitude |L(i,k)| of the last
// Refactor. Partial pivoting would bound this by 1; a static pivot order
// keeps it modest while the values resemble the analyzed ones, and a blow-up
// (say beyond 1e8) signals the pivot order has gone numerically degenerate
// for the current values — the caller should re-Analyze.
func (f *SparseLU) Growth() float64 { return f.growth }

// SolvePermuting solves A x = b using the current factors: b is permuted by
// the pivot row order into an internal buffer, the static triangular solves
// run in place, and the column permutation scatters the solution into
// scratch (which must have length n) in original unknown order, and
// returns scratch. It performs no allocations.
func (f *SparseLU) SolvePermuting(b, scratch []float64) []float64 {
	n := f.n
	if len(b) != n || len(scratch) != n {
		panic("linalg: SparseLU.SolvePermuting dimension mismatch")
	}
	pb, vals := f.pb, f.vals
	for k := 0; k < n; k++ {
		pb[k] = b[f.rowPerm[k]]
	}
	// Forward substitution with unit-lower L, column-oriented: the div tape
	// slots are exactly the L column entries.
	for k := 0; k < n; k++ {
		xk := pb[k]
		if xk == 0 {
			continue
		}
		for t := f.divStart[k]; t < f.divStart[k+1]; t++ {
			pb[f.divRow[t]] -= vals[f.divSlot[t]] * xk
		}
	}
	// Back substitution with U, row-oriented.
	for k := n - 1; k >= 0; k-- {
		s := pb[k]
		for t := f.bwdStart[k]; t < f.bwdStart[k+1]; t++ {
			s -= vals[f.bwdSlot[t]] * pb[f.bwdCol[t]]
		}
		pb[k] = s / vals[f.pivSlot[k]]
	}
	for k := 0; k < n; k++ {
		scratch[f.colPerm[k]] = pb[k]
	}
	return scratch
}
