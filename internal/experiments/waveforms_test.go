package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"strings"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/measure"
	"vstat/internal/montecarlo"
	"vstat/internal/spice"
)

// TestWaveformsPinned pins the solver's output below print precision: a
// SHA-256 over the bits of every row of four mismatched pooled INV FO3
// transients (600/300 sizing, 560 ps at 1.5 ps), the setup times and
// final-trial rows of two mismatched pooled DFF searches, and the READ and
// HOLD butterflies of two mismatched pooled SRAM cells. The entry also
// lists each run's Newton iterations and model evaluations. It is recorded
// in the figure pin as "Waveforms"; a solver change that claims the same
// numbers must leave it unchanged.
func TestWaveformsPinned(t *testing.T) {
	m := mismatchedVS()
	h := sha256.New()
	var counts strings.Builder
	counted := func(what string, i int, before, after spice.SolverStats) {
		fmt.Fprintf(&counts, "%s %d: newton %d, model evals %d\n", what, i,
			after.NewtonIters-before.NewtonIters, after.ModelEvals-before.ModelEvals)
	}

	inv, err := circuits.NewPooledInverterFO(3, poolTestVdd, poolTestSizing(), m.Nominal(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		inv.Restat(m.Statistical(montecarlo.SampleRNG(21, i)))
		before := inv.Ckt.Stats()
		res, err := inv.Transient(gateTranStop, gateTranStep)
		if err != nil {
			t.Fatal(err)
		}
		hashRows(h, res, inv.Ckt.NumNodes(), inv.VddSrc, inv.VinSrc)
		counted("inv", i, before, inv.Ckt.Stats())
	}

	ff := circuits.NewPooledDFF(poolTestVdd, circuits.DefaultDFFSizing(), m.Nominal(), false)
	for i := 0; i < 2; i++ {
		ff.Restat(m.Statistical(montecarlo.SampleRNG(22, i)))
		o := measure.DefaultSetupOpts()
		o.Res = &ff.Res
		before := ff.Ckt.Stats()
		ts, err := measure.SetupTime(ff.DFF, o)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, ts)
		hashRows(h, &ff.Res, ff.Ckt.NumNodes(), ff.VddSrc, ff.ClkSrc, ff.DSrc)
		counted("dff", i, before, ff.Ckt.Stats())
	}

	cell := circuits.NewPooledSRAM(poolTestVdd, circuits.DefaultSRAMSizing(), m.Nominal(), butterflyPoints, false)
	for i := 0; i < 2; i++ {
		cell.Restat(m.Statistical(montecarlo.SampleRNG(23, i)))
		before := cell.Stats()
		for _, read := range []bool{true, false} {
			l, r, err := cell.Butterfly(read)
			if err != nil {
				t.Fatal(err)
			}
			hashFloats(h, l.In...)
			hashFloats(h, l.Out...)
			hashFloats(h, r.In...)
			hashFloats(h, r.Out...)
		}
		counted("sram", i, before, cell.Stats())
	}

	pinOutput(t, "Waveforms", fmt.Sprintf("sha256 %x\n%s", h.Sum(nil), counts.String()))
}

// hashRows writes every row of a transient to h: the time, the voltages of
// nodes 0..nodes-1 and the currents of the given voltage sources.
func hashRows(h hash.Hash, res *spice.TranResult, nodes int, srcs ...int) {
	var cols [][]float64
	for node := 0; node < nodes; node++ {
		cols = append(cols, res.V(node))
	}
	for _, s := range srcs {
		cols = append(cols, res.SourceI(s))
	}
	for k, tk := range res.Time {
		hashFloats(h, tk)
		for _, col := range cols {
			hashFloats(h, col[k])
		}
	}
}

// hashFloats writes the IEEE-754 bits of vs to h.
func hashFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
