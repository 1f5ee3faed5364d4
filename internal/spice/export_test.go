package spice

import (
	"math"

	"vstat/internal/linalg"
)

// matrixAlias lets white-box tests reuse linalg.Matrix without importing it
// in the test file signature.
type matrixAlias = linalg.Matrix

func newMatrixForTest(n int) *matrixAlias { return linalg.NewMatrix(n, n) }

// BypassPoints returns how many MOSFETs have a bypass point in row k of the
// record: the evaluations a restore to step k rebuilds.
func (r *TranRecord) BypassPoints(k int) int {
	n := 0
	for _, p := range r.pts[k*r.nm : (k+1)*r.nm] {
		if !math.IsNaN(p[0]) {
			n++
		}
	}
	return n
}

// assemble fills the residual F(x) and, when wantJ is set, a dense
// Jacobian: the residual pass, then stampDense. It is the dense reference
// assembly the white-box tests compare the sparse passes with.
func (c *Circuit) assemble(x, f []float64, jac *linalg.Matrix, ctx *assembleCtx, wantJ bool) {
	c.assembleResidual(x, f, ctx, wantJ)
	if wantJ {
		c.stampDense(jac, c.jacKeyOf(ctx))
	}
}

// stampDense is a dense Jacobian pass, the oracle stampSparse is held to
// bit for bit: it zeroes jac and stamps the linear elements and every
// MOSFET's bypass bundle under k, in the order of stampSparse.
func (c *Circuit) stampDense(jac *linalg.Matrix, k jacKey) {
	jac.Zero()
	nNodes := len(c.nodeNames)
	addJ := func(row, col int, v float64) {
		if row != Gnd && col != Gnd {
			jac.Add(row, col, v)
		}
	}
	g := k.cktGmin + k.gmin
	for n := 0; n < nNodes; n++ {
		addJ(n, n, g)
	}
	if k.pt > 0 {
		for n := 0; n < nNodes; n++ {
			addJ(n, n, k.pt)
		}
	}
	for i := range c.rs {
		r := &c.rs[i]
		addJ(r.a, r.a, r.g)
		addJ(r.a, r.b, -r.g)
		addJ(r.b, r.a, -r.g)
		addJ(r.b, r.b, r.g)
	}
	for i := range c.vs {
		v := &c.vs[i]
		br := nNodes + v.branch
		addJ(v.p, br, 1)
		addJ(v.n, br, -1)
		addJ(br, v.p, 1)
		addJ(br, v.n, -1)
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
			addJ(cp.a, cp.a, geq)
			addJ(cp.a, cp.b, -geq)
			addJ(cp.b, cp.a, -geq)
			addJ(cp.b, cp.b, geq)
		}
	}
	for i := range c.mos {
		m := &c.mos[i]
		dv := &c.bypass[i].dv
		term := [4]int{m.d, m.g, m.s, m.b}
		for j := 0; j < 4; j++ {
			addJ(m.d, term[j], dv.GId[j])
			addJ(m.s, term[j], -dv.GId[j])
		}
		if k.tran {
			for r := 0; r < 4; r++ {
				for j := 0; j < 4; j++ {
					addJ(term[r], term[j], fac*dv.CQ[r][j])
				}
			}
		}
	}
}

// assembleSparse runs both sparse passes unconditionally: the residual
// pass and the Jacobian pass under ctx's key. The CSC values then no
// longer need to be those of the held factorization, so none stays
// current.
func (c *Circuit) assembleSparse(x, f []float64, ctx *assembleCtx) {
	c.assembleResidual(x, f, ctx, true)
	c.spCurrent = false
	c.stampSparse(c.jacKeyOf(ctx))
}
