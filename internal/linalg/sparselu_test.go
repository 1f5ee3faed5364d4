package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// mnaSystem is a random MNA-patterned sparse system: nNodes node rows with a
// guaranteed (gmin-style) diagonal plus symmetric conductance quads, and
// nBranch voltage-source branch rows with ±1 incidence couplings and a
// structurally zero diagonal — the row shape that forces real pivoting.
type mnaSystem struct {
	b     *SparseBuilder
	sites []int32 // slot per site after Build
	sp    *Sparse

	quadSites  [][4]int    // resistor-style stamps (a,a),(a,b),(b,a),(b,b)
	quadPairs  [][2]int    // the (a,b) node pair of each quad
	diagSites  []int       // per node
	branchInc  [][4]int    // (p,br),(br,p),(n,br),(br,n)
	branchPair [][2]int    // (p,n) nodes of each branch
	vals       []stampVals // regenerated per refactor
}

type stampVals struct {
	g float64 // conductance of a quad (unused for branches)
}

// buildMNA constructs the pattern once; refill stamps fresh random values.
func buildMNA(rng *rand.Rand, nNodes, nBranch, nQuads int) *mnaSystem {
	n := nNodes + nBranch
	s := &mnaSystem{b: NewSparseBuilder(n)}
	for i := 0; i < nNodes; i++ {
		s.diagSites = append(s.diagSites, s.b.Add(i, i))
	}
	for q := 0; q < nQuads; q++ {
		a := rng.Intn(nNodes)
		bb := rng.Intn(nNodes)
		for bb == a {
			bb = rng.Intn(nNodes)
		}
		s.quadPairs = append(s.quadPairs, [2]int{a, bb})
		s.quadSites = append(s.quadSites, [4]int{
			s.b.Add(a, a), s.b.Add(a, bb), s.b.Add(bb, a), s.b.Add(bb, bb),
		})
	}
	for v := 0; v < nBranch; v++ {
		br := nNodes + v
		p := rng.Intn(nNodes)
		q := rng.Intn(nNodes)
		for q == p {
			q = rng.Intn(nNodes)
		}
		s.branchPair = append(s.branchPair, [2]int{p, q})
		s.branchInc = append(s.branchInc, [4]int{
			s.b.Add(p, br), s.b.Add(br, p), s.b.Add(q, br), s.b.Add(br, q),
		})
	}
	s.sp, s.sites = s.b.Build()
	return s
}

// refill stamps fresh random, well-conditioned values through the site map,
// the way circuit assembly writes device stamps per sample.
func (s *mnaSystem) refill(rng *rand.Rand) {
	s.sp.Zero()
	add := func(site int, v float64) { s.sp.Val[s.sites[site]] += v }
	// The value ranges keep the condition number around 1e2–1e3 so the
	// 1e-12 sparse-vs-dense bound tests the factorization itself rather
	// than condition-amplified rounding common to both paths.
	for _, d := range s.diagSites {
		add(d, 0.05) // gmin-style anchor keeps node rows nonsingular
	}
	for _, q := range s.quadSites {
		g := 0.5 + 1.5*rng.Float64()
		add(q[0], g)
		add(q[1], -g)
		add(q[2], -g)
		add(q[3], g)
	}
	for _, inc := range s.branchInc {
		add(inc[0], 1)
		add(inc[1], 1)
		add(inc[2], -1)
		add(inc[3], -1)
	}
}

func relDiff(a, b []float64) float64 {
	num, den := 0.0, 0.0
	for i := range a {
		num += (a[i] - b[i]) * (a[i] - b[i])
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestSparseLUMatchesDenseRandomMNA: sparse solve equals the dense LU solve
// within 1e-12 relative on randomized MNA-patterned systems, including after
// repeated numeric refactors with fresh values on the same symbolic object.
func TestSparseLUMatchesDenseRandomMNA(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nNodes := 4 + rng.Intn(40)
		nBranch := 1 + rng.Intn(4)
		nQuads := nNodes + rng.Intn(3*nNodes)
		s := buildMNA(rng, nNodes, nBranch, nQuads)
		s.refill(rng)

		f, err := NewSparseLU(s.sp)
		if err != nil {
			t.Fatalf("trial %d: analyze: %v", trial, err)
		}
		n := s.sp.N
		b := make([]float64, n)
		scratch := make([]float64, n)
		for refac := 0; refac < 6; refac++ {
			if refac > 0 {
				s.refill(rng) // fresh values, same pattern, same symbolic object
			}
			if err := f.Refactor(s.sp); err != nil {
				t.Fatalf("trial %d refactor %d: %v", trial, refac, err)
			}
			dense, err := NewLU(s.sp.Dense())
			if err != nil {
				t.Fatalf("trial %d refactor %d: dense: %v", trial, refac, err)
			}
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			got := append([]float64(nil), f.SolvePermuting(b, scratch)...)
			want := dense.Solve(b)
			if d := relDiff(got, want); d > 1e-12 {
				t.Fatalf("trial %d refactor %d: sparse vs dense rel diff %.3g (n=%d nnz=%d)",
					trial, refac, d, n, s.sp.NNZ())
			}
		}
	}
}

// TestSparseLUPivotDegenerate: systems whose natural diagonal order is
// unusable (zero branch diagonals, plus a leading node row zeroed to force a
// row swap) must still factor and agree with dense partial pivoting.
func TestSparseLUPivotDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		s := buildMNA(rng, 12, 3, 30)
		s.refill(rng)
		// Kill the first node's diagonal entirely: the row survives only
		// through its branch/quad couplings, so diagonal pivoting at step 0
		// is impossible.
		s.sp.Val[s.sites[s.diagSites[0]]] = 0
		for qi, q := range s.quadPairs {
			if q[0] == 0 {
				s.sp.Val[s.sites[s.quadSites[qi][0]]] = 0
			}
			if q[1] == 0 {
				s.sp.Val[s.sites[s.quadSites[qi][3]]] = 0
			}
		}
		dense, derr := NewLU(s.sp.Dense())
		f, serr := NewSparseLU(s.sp)
		if derr != nil {
			// Degenerate enough to be singular: the sparse path must agree.
			if serr == nil {
				if err := f.Refactor(s.sp); err == nil {
					t.Fatalf("trial %d: dense says singular, sparse factored", trial)
				}
			}
			continue
		}
		if serr != nil {
			t.Fatalf("trial %d: dense factored but sparse analyze failed: %v", trial, serr)
		}
		if err := f.Refactor(s.sp); err != nil {
			t.Fatalf("trial %d: refactor: %v", trial, err)
		}
		n := s.sp.N
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		scratch := make([]float64, n)
		got := f.SolvePermuting(b, scratch)
		want := dense.Solve(b)
		if d := relDiff(got, want); d > 1e-12 {
			t.Fatalf("trial %d: degenerate-pivot rel diff %.3g", trial, d)
		}
	}
}

// TestSparseLUSingular: an exactly singular matrix reports ErrSingular from
// Analyze, and a refactor whose values zero a whole row reports ErrSingular
// rather than producing NaN factors silently.
func TestSparseLUSingular(t *testing.T) {
	b := NewSparseBuilder(3)
	d0 := b.Add(0, 0)
	d1 := b.Add(1, 1)
	b.Add(2, 2) // structurally present, numerically zero
	sp, sites := b.Build()
	sp.Val[sites[d0]] = 1
	sp.Val[sites[d1]] = 2
	if _, err := NewSparseLU(sp); !errors.Is(err, ErrSingular) {
		t.Fatalf("Analyze on singular matrix: got %v, want ErrSingular", err)
	}

	// Healthy analysis, then a value set that zeroes a pivot at refactor.
	rng := rand.New(rand.NewSource(3))
	s := buildMNA(rng, 8, 2, 16)
	s.refill(rng)
	f, err := NewSparseLU(s.sp)
	if err != nil {
		t.Fatal(err)
	}
	s.sp.Zero() // all-zero values: first pivot is exactly zero
	if err := f.Refactor(s.sp); !errors.Is(err, ErrSingular) {
		t.Fatalf("Refactor on zero matrix: got %v, want ErrSingular", err)
	}
	// The symbolic object must recover on the next good refactor.
	s.refill(rng)
	if err := f.Refactor(s.sp); err != nil {
		t.Fatalf("refactor after singular: %v", err)
	}
}

// TestSparseLUEmpty: a 0×0 pattern analyzes to the empty factorization,
// which refactors and solves as a no-op, as NewLU of a 0×0 matrix does.
func TestSparseLUEmpty(t *testing.T) {
	sp, _ := NewSparseBuilder(0).Build()
	f, err := NewSparseLU(sp)
	if err != nil {
		t.Fatalf("NewSparseLU of a 0×0 pattern: %v", err)
	}
	if err := f.Refactor(sp); err != nil {
		t.Fatalf("Refactor of a 0×0 pattern: %v", err)
	}
	if x := f.SolvePermuting(nil, nil); len(x) != 0 {
		t.Fatalf("empty solve returned %v", x)
	}
	if _, err := NewLU(NewMatrix(0, 0)); err != nil {
		t.Fatalf("NewLU of a 0×0 matrix: %v", err)
	}
}

// TestSparseLURefactorSolveAllocFree: the per-sample path — refactor plus
// triangular solve — must not allocate.
func TestSparseLURefactorSolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := buildMNA(rng, 24, 3, 60)
	s.refill(rng)
	f, err := NewSparseLU(s.sp)
	if err != nil {
		t.Fatal(err)
	}
	n := s.sp.N
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	scratch := make([]float64, n)
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.Refactor(s.sp); err != nil {
			t.Fatal(err)
		}
		f.SolvePermuting(b, scratch)
	})
	if allocs != 0 {
		t.Fatalf("Refactor+SolvePermuting allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestSparseLUGrowthSignalsDegeneracy: values that invert the magnitude
// relation the pivot order was chosen for produce a large Growth, the
// re-analysis trigger, and re-Analyze restores modest growth.
func TestSparseLUGrowthSignalsDegeneracy(t *testing.T) {
	b := NewSparseBuilder(2)
	s00 := b.Add(0, 0)
	s01 := b.Add(0, 1)
	s10 := b.Add(1, 0)
	s11 := b.Add(1, 1)
	sp, sites := b.Build()
	set := func(site int, v float64) { sp.Val[sites[site]] = v }
	set(s00, 1)
	set(s01, 0.5)
	set(s10, 0.5)
	set(s11, 1)
	f, err := NewSparseLU(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the analyzed pivot by 12 orders of magnitude: the static order
	// now divides a large entry by a tiny pivot.
	set(s00, 1e-12)
	if err := f.Refactor(sp); err != nil {
		t.Fatal(err)
	}
	if f.Growth() < 1e10 {
		t.Fatalf("Growth() = %g after pivot collapse, want > 1e10", f.Growth())
	}
	if err := f.Analyze(sp); err != nil {
		t.Fatal(err)
	}
	if err := f.Refactor(sp); err != nil {
		t.Fatal(err)
	}
	if f.Growth() > 1 {
		t.Fatalf("Growth() = %g after re-analysis, want <= 1", f.Growth())
	}
	// And the re-pivoted solve is still right.
	x := f.SolvePermuting([]float64{1, 2}, make([]float64, 2))
	dense, _ := NewLU(sp.Dense())
	want := dense.Solve([]float64{1, 2})
	if d := relDiff(x, want); d > 1e-12 {
		t.Fatalf("post-reanalysis rel diff %.3g", d)
	}
}

// TestSparseBuilderSlots: duplicate stamp sites collapse to one slot and
// distinct positions get distinct slots, with CSC columns sorted.
func TestSparseBuilderSlots(t *testing.T) {
	b := NewSparseBuilder(3)
	a1 := b.Add(2, 1)
	a2 := b.Add(0, 1)
	a3 := b.Add(2, 1) // duplicate of a1
	a4 := b.Add(1, 0)
	sp, sites := b.Build()
	if sp.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", sp.NNZ())
	}
	if sites[a1] != sites[a3] {
		t.Fatalf("duplicate site got distinct slots %d vs %d", sites[a1], sites[a3])
	}
	if sites[a1] == sites[a2] || sites[a2] == sites[a4] {
		t.Fatal("distinct positions share a slot")
	}
	sp.Val[sites[a1]] += 2
	sp.Val[sites[a2]] += 5
	sp.Val[sites[a3]] += 3
	sp.Val[sites[a4]] += 7
	if got := sp.At(2, 1); got != 5 {
		t.Fatalf("At(2,1) = %g, want 5 (accumulated duplicate)", got)
	}
	if got := sp.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %g, want 5", got)
	}
	if got := sp.At(1, 0); got != 7 {
		t.Fatalf("At(1,0) = %g, want 7", got)
	}
	if got := sp.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %g, want 0 (unstored)", got)
	}
	for j := 0; j < 3; j++ {
		for p := sp.ColPtr[j] + 1; p < sp.ColPtr[j+1]; p++ {
			if sp.RowIdx[p-1] >= sp.RowIdx[p] {
				t.Fatal("column rows not strictly ascending")
			}
		}
	}
}
