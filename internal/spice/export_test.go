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

// assembleSparse runs both sparse passes unconditionally: the residual
// pass and the Jacobian pass under ctx's key. The CSC values then no
// longer need to be those of the held factorization, so none stays
// current.
func (c *Circuit) assembleSparse(x, f []float64, ctx *assembleCtx) {
	c.assembleResidual(x, f, ctx, true)
	c.spCurrent = false
	c.stampSparse(c.jacKeyOf(ctx))
}
