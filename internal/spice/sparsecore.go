package spice

// Sparse linear core: stamp-list assembly into a CSC Jacobian plus the
// symbolic-once sparse LU (internal/linalg/sparselu.go). The stamp map —
// one CSC value-slot index per (element, entry) stamp site — is computed
// once per topology; every later Jacobian pass writes its stamps straight
// into the values array with no map lookups, no dense n² zeroing, and no
// allocation. The pass runs apart from the residual pass, and only when the
// held factorization is stale (see newton). The pattern is the union of the
// DC and transient stamps and always contains every node diagonal, so gmin
// stepping, pseudo-transient anchoring, and the whole rescue ladder hit
// reserved slots and reuse the same symbolic factorization. See DESIGN.md
// §9.

import (
	"os"

	"vstat/internal/linalg"
)

// LinearCore selects the Jacobian factorization backend of a Circuit.
type LinearCore int32

const (
	// CoreAuto (the zero value) defers to the VSTAT_LINEAR_CORE environment
	// override ("dense" or "sparse"), falling back to the size heuristic:
	// sparse at or above sparseMinN unknowns, dense below.
	CoreAuto LinearCore = iota
	CoreDense
	CoreSparse
)

// String returns the benchmark-facing name of the core.
func (lc LinearCore) String() string {
	switch lc {
	case CoreDense:
		return "dense"
	case CoreSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// sparseMinN is the auto-mode cutover: below it the dense factor's tiny
// constant beats the tape interpreter; at and above it the O(nnz) stamp +
// tape path wins. Every benchmark unit except trivial two-node fixtures
// sits above the cutover.
const sparseMinN = 6

// spGrowthLimit bounds the element growth of a refactorization under the
// frozen pivot order; beyond it the order is numerically degenerate for the
// current sample's values and the circuit re-runs symbolic analysis (rare,
// allocating).
const spGrowthLimit = 1e8

// envCore is the process-wide VSTAT_LINEAR_CORE override, read once.
var envCore = func() LinearCore {
	switch os.Getenv("VSTAT_LINEAR_CORE") {
	case "dense":
		return CoreDense
	case "sparse":
		return CoreSparse
	}
	return CoreAuto
}()

// useSparseCore resolves the circuit's LinearCore knob, then the env
// override, then the size heuristic, to a concrete backend choice.
func (c *Circuit) useSparseCore() bool {
	core := c.LinearCore
	if core == CoreAuto {
		core = envCore
	}
	switch core {
	case CoreDense:
		return false
	case CoreSparse:
		return true
	}
	return c.unknowns() >= sparseMinN
}

// stampSlots holds the precomputed CSC value slot for every stamp site, in
// the exact order assembleSparse visits them. A slot of -1 marks a ground
// row or column (stamp discarded, mirroring the dense addJ guard).
type stampSlots struct {
	diag []int32 // per node: (n,n) — shared by gmin, pseudo-transient, devices
	rs   []int32 // per resistor: (a,a) (a,b) (b,a) (b,b)
	cs   []int32 // per capacitor: (a,a) (a,b) (b,a) (b,b)
	vs   []int32 // per vsource: (p,br) (n,br) (br,p) (br,n)
	mos  []int32 // per MOSFET: 4 (d,term_j), 4 (s,term_j), 16 (term_k,term_j)
}

// buildStampMap enumerates every stamp site of the current topology (the
// union of the DC and transient patterns), builds the CSC structure, and
// resolves each site to its value slot. Runs once per topology; swapping
// device parameter cards (SetMOSDevice/SetVSource) keeps the map, so pooled
// Monte Carlo samples never rebuild it.
func (c *Circuit) buildStampMap() {
	n := c.unknowns()
	nNodes := len(c.nodeNames)
	b := linalg.NewSparseBuilder(n)
	site := func(row, col int) int32 {
		if row == Gnd || col == Gnd {
			return -1
		}
		return int32(b.Add(row, col))
	}
	sl := &c.spSlots
	sl.diag = sl.diag[:0]
	for i := 0; i < nNodes; i++ {
		sl.diag = append(sl.diag, site(i, i))
	}
	sl.rs = sl.rs[:0]
	for i := range c.rs {
		r := &c.rs[i]
		sl.rs = append(sl.rs, site(r.a, r.a), site(r.a, r.b), site(r.b, r.a), site(r.b, r.b))
	}
	sl.cs = sl.cs[:0]
	for i := range c.cs {
		cp := &c.cs[i]
		sl.cs = append(sl.cs, site(cp.a, cp.a), site(cp.a, cp.b), site(cp.b, cp.a), site(cp.b, cp.b))
	}
	sl.vs = sl.vs[:0]
	for i := range c.vs {
		v := &c.vs[i]
		br := nNodes + v.branch
		sl.vs = append(sl.vs, site(v.p, br), site(v.n, br), site(br, v.p), site(br, v.n))
	}
	sl.mos = sl.mos[:0]
	for i := range c.mos {
		m := &c.mos[i]
		term := [4]int{m.d, m.g, m.s, m.b}
		for j := 0; j < 4; j++ {
			sl.mos = append(sl.mos, site(m.d, term[j]))
		}
		for j := 0; j < 4; j++ {
			sl.mos = append(sl.mos, site(m.s, term[j]))
		}
		for k := 0; k < 4; k++ {
			for j := 0; j < 4; j++ {
				sl.mos = append(sl.mos, site(term[k], term[j]))
			}
		}
	}
	sp, slots := b.Build()
	remap := func(a []int32) {
		for i, s := range a {
			if s >= 0 {
				a[i] = slots[s]
			}
		}
	}
	remap(sl.diag)
	remap(sl.rs)
	remap(sl.cs)
	remap(sl.vs)
	remap(sl.mos)
	c.sp = sp
	c.spLU = nil // pattern changed: next factor re-runs symbolic analysis
	c.spCurrent = false
	c.spReady = true
}

// addSlot accumulates v into CSC slot s; s < 0 marks a discarded ground
// stamp.
func addSlot(av []float64, s int32, v float64) {
	if s >= 0 {
		av[s] += v
	}
}

// stampQuad stamps the two-terminal conductance pattern (+g, -g; -g, +g)
// through four precomputed slots.
func stampQuad(av []float64, q []int32, g float64) {
	addSlot(av, q[0], g)
	addSlot(av, q[1], -g)
	addSlot(av, q[2], -g)
	addSlot(av, q[3], g)
}

// stampSparse is the sparse core's Jacobian pass: it zeroes the CSC values
// and stamps the linear elements and every MOSFET's bypass bundle under k
// through the precomputed slot lists. The values depend on nothing else,
// so a factorization made from them stays current until a bundle is
// written or the key moves (see newton).
func (c *Circuit) stampSparse(k jacKey) {
	av := c.sp.Val
	for i := range av {
		av[i] = 0
	}
	sl := &c.spSlots
	nNodes := len(c.nodeNames)

	// Global gmin and the pseudo-transient anchor, onto the reserved node
	// diagonals.
	g := k.cktGmin + k.gmin
	for n := 0; n < nNodes; n++ {
		av[sl.diag[n]] += g
	}
	if k.pt > 0 {
		for n := 0; n < nNodes; n++ {
			av[sl.diag[n]] += k.pt
		}
	}

	for i := range c.rs {
		stampQuad(av, sl.rs[4*i:4*i+4], c.rs[i].g)
	}

	for i := range c.vs {
		q := sl.vs[4*i : 4*i+4]
		addSlot(av, q[0], 1)
		addSlot(av, q[1], -1)
		addSlot(av, q[2], 1)
		addSlot(av, q[3], -1)
	}

	var fac float64 // the charge companion's conductance per farad
	if k.tran {
		fac = 1 / k.h
		if k.trapPhase {
			fac = 2 / k.h
		}
		for i := range c.cs {
			cp := &c.cs[i]
			geq := cp.c / k.h
			if k.trapPhase {
				geq = 2 * cp.c / k.h
			}
			stampQuad(av, sl.cs[4*i:4*i+4], geq)
		}
	}

	for i := range c.mos {
		dv := &c.bypass[i].dv
		ms := sl.mos[24*i : 24*i+24]
		for j := 0; j < 4; j++ {
			addSlot(av, ms[j], dv.GId[j])
			addSlot(av, ms[4+j], -dv.GId[j])
		}
		if k.tran {
			for r := 0; r < 4; r++ {
				for j := 0; j < 4; j++ {
					addSlot(av, ms[8+4*r+j], fac*dv.CQ[r][j])
				}
			}
		}
	}
}

// factorSparse refreshes the sparse numeric factors from the just-stamped
// CSC values. The first call per pattern runs the one-time symbolic
// analysis (pivot order, fill, elimination tape) against the current
// values; every later call replays the allocation-free tape. A zero pivot
// or runaway element growth means the frozen pivot order has gone
// numerically degenerate for this sample — re-run the (allocating, rare)
// analysis and retry once before reporting a singular Jacobian.
func (c *Circuit) factorSparse() error {
	if c.spLU == nil {
		c.gen++ // a new pivot order (see TranRecord)
		lu, err := linalg.NewSparseLU(c.sp)
		if err != nil {
			return err
		}
		c.spLU = lu
		return c.spLU.Refactor(c.sp)
	}
	err := c.spLU.Refactor(c.sp)
	if err == nil && c.spLU.Growth() <= spGrowthLimit {
		return nil
	}
	c.stats.SparseRepivots++
	c.gen++
	if aerr := c.spLU.Analyze(c.sp); aerr != nil {
		return aerr
	}
	return c.spLU.Refactor(c.sp)
}

// MatrixInfo reports the MNA system size, the Jacobian's structural
// nonzero count (building the stamp map if needed), and whether the
// resolved linear core is sparse — the numbers cmd/vsbench records next to
// its per-unit timings.
func (c *Circuit) MatrixInfo() (n, nnz int, sparse bool) {
	if !c.spReady {
		c.buildStampMap()
	}
	return c.unknowns(), c.sp.NNZ(), c.useSparseCore()
}
