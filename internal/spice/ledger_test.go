package spice_test

import (
	"math/rand"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/spice"
	"vstat/internal/variation"
)

// mismatchedVS is the VS model with the golden mismatch coefficients:
// core.DefaultStatVS carries zero α's, so its Statistical factory returns
// the nominal card for every device.
func mismatchedVS() *core.StatVS {
	m := core.DefaultStatVS()
	m.AlphaN = variation.GoldenTruthNMOS()
	m.AlphaP = variation.GoldenTruthPMOS()
	return m
}

// TestBypassLedger pins the model-evaluation ledger under the device
// bypass: every Newton iteration evaluates or bypasses each MOSFET once, so
// on an exact INV FO3 transient from its operating point ModelEvals +
// BypassedEvals = NewtonIters·NumMOS + NumMOS, the last term being the
// evaluations that seed the charge history. A DFF trial resumed from its
// transient record seeds the history from the record instead and pays one
// evaluation per recorded bypass point to rebuild the cache. A DC sweep
// seeds nothing, so an SRAM butterfly's four sweeps balance at
// NewtonIters·NumMOS, with the exact-point reuse serving some of them.
func TestBypassLedger(t *testing.T) {
	m := mismatchedVS()
	rng := rand.New(rand.NewSource(5))
	const vdd = 0.9

	inv, err := circuits.NewPooledInverterFO(3, vdd, circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}, m.Nominal(), false)
	if err != nil {
		t.Fatal(err)
	}
	inv.Restat(m.Statistical(rng))
	inv.Ckt.ResetStats()
	if _, err := inv.Transient(560e-12, 1.5e-12); err != nil {
		t.Fatal(err)
	}
	st, nm := inv.Ckt.Stats(), int64(inv.Ckt.NumMOS())
	if st.BypassedEvals == 0 {
		t.Fatal("the INV FO3 transient bypassed no evaluation")
	}
	if got, want := st.ModelEvals+st.BypassedEvals, st.NewtonIters*nm+nm; got != want {
		t.Fatalf("INV FO3: %d model + %d bypassed evaluations, want %d Newton iterations × %d MOSFETs + %d = %d",
			st.ModelEvals, st.BypassedEvals, st.NewtonIters, nm, nm, want)
	}

	ff := circuits.NewPooledDFF(vdd, circuits.DefaultDFFSizing(), m.Nominal(), false)
	ff.Restat(m.Statistical(rng))
	const step, edge, stop = 2e-12, 300e-12, 600e-12
	ff.Clock = spice.PWL{T: []float64{0, edge, edge + circuits.EdgeTime}, V: []float64{0, 0, vdd}}
	ff.Ckt.SetVSource(ff.ClkSrc, &ff.Clock)
	trial := func(tData float64) spice.SolverStats {
		ff.Data = spice.PWL{T: []float64{0, tData, tData + circuits.EdgeTime}, V: []float64{0, 0, vdd}}
		ff.Ckt.SetVSource(ff.DSrc, &ff.Data)
		before := ff.Ckt.Stats()
		opts := spice.TranOpts{Stop: stop, Step: step, UIC: true, IC: ff.ICHoldingZero(), Record: &ff.Rec}
		if err := ff.Ckt.TransientInto(opts, &ff.Res); err != nil {
			t.Fatal(err)
		}
		st := ff.Ckt.Stats()
		return spice.SolverStats{
			NewtonIters:     st.NewtonIters - before.NewtonIters,
			ModelEvals:      st.ModelEvals - before.ModelEvals,
			BypassedEvals:   st.BypassedEvals - before.BypassedEvals,
			TranStepsReused: st.TranStepsReused - before.TranStepsReused,
		}
	}
	nm = int64(ff.Ckt.NumMOS())
	// The template's first transient analyzes the sparse pivot order, which
	// re-keys the record, so the trial after it also starts from t = 0.
	trial(edge - 150e-12)
	if st := trial(edge - 150e-12); st.TranStepsReused != 0 || st.ModelEvals+st.BypassedEvals != st.NewtonIters*nm+nm {
		t.Fatalf("fresh DFF trial: %d steps reused, %d model + %d bypassed evaluations, want 0 and %d",
			st.TranStepsReused, st.ModelEvals, st.BypassedEvals, st.NewtonIters*nm+nm)
	}
	st = trial(edge - 20e-12)
	k0 := int(st.TranStepsReused)
	if k0 == 0 {
		t.Fatal("the second DFF trial resumed no step")
	}
	rebuilt := int64(ff.Rec.BypassPoints(k0))
	if rebuilt == 0 || st.BypassedEvals == 0 {
		t.Fatalf("resumed DFF trial rebuilt %d bypass entries and bypassed %d evaluations", rebuilt, st.BypassedEvals)
	}
	if got, want := st.ModelEvals+st.BypassedEvals, st.NewtonIters*nm+rebuilt; got != want {
		t.Fatalf("resumed DFF trial: %d model + %d bypassed evaluations, want %d Newton iterations × %d MOSFETs + %d rebuilt = %d",
			st.ModelEvals, st.BypassedEvals, st.NewtonIters, nm, rebuilt, want)
	}

	sram := circuits.NewPooledSRAM(vdd, circuits.DefaultSRAMSizing(), m.Nominal(), 61, false)
	sram.Restat(m.Statistical(rng))
	sram.ResetStats()
	for _, read := range []bool{true, false} {
		if _, _, err := sram.Butterfly(read); err != nil {
			t.Fatal(err)
		}
	}
	// Both half-circuits stamp the cell's six MOSFETs.
	st, nm = sram.Stats(), 6
	if st.BypassedEvals == 0 {
		t.Fatal("the SRAM butterflies reused no evaluation")
	}
	if got, want := st.ModelEvals+st.BypassedEvals, st.NewtonIters*nm; got != want {
		t.Fatalf("SRAM butterflies: %d model + %d bypassed evaluations, want %d Newton iterations × %d MOSFETs = %d",
			st.ModelEvals, st.BypassedEvals, st.NewtonIters, nm, want)
	}
}
