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
