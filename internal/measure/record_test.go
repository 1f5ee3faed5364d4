package measure

import (
	"math"
	"math/rand"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/core"
	"vstat/internal/spice"
	"vstat/internal/variation"
)

// mismatchedVS is the VS model with the golden mismatch coefficients, so
// every register drawn from it is mismatched.
func mismatchedVS() *core.StatVS {
	m := core.DefaultStatVS()
	m.AlphaN = variation.GoldenTruthNMOS()
	m.AlphaP = variation.GoldenTruthPMOS()
	return m
}

// mismatchedDFF builds register i of a fixed mismatched population; the
// same i always gives the same devices.
func mismatchedDFF(m *core.StatVS, i int) *circuits.DFF {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	return circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), m.Statistical(rng))
}

// sameTrial fails unless a and b hold the same time grid and the same bits
// in every node voltage and source current at every step.
func sameTrial(t *testing.T, what string, ff *circuits.DFF, a, b *spice.TranResult) {
	t.Helper()
	if len(a.Time) != len(b.Time) {
		t.Fatalf("%s: %d steps, want %d", what, len(a.Time)-1, len(b.Time)-1)
	}
	for k := range a.Time {
		if math.Float64bits(a.Time[k]) != math.Float64bits(b.Time[k]) {
			t.Fatalf("%s: time %d = %g, want %g", what, k, a.Time[k], b.Time[k])
		}
	}
	var wa, wb [][]float64
	for node := 0; node < ff.Ckt.NumNodes(); node++ {
		wa, wb = append(wa, a.V(node)), append(wb, b.V(node))
	}
	for _, src := range []int{ff.VddSrc, ff.ClkSrc, ff.DSrc} {
		wa, wb = append(wa, a.SourceI(src)), append(wb, b.SourceI(src))
	}
	for u := range wa {
		for k := range wa[u] {
			if math.Float64bits(wa[u][k]) != math.Float64bits(wb[u][k]) {
				t.Fatalf("%s: unknown %d at step %d = %.17g, want %.17g", what, u, k, wa[u][k], wb[u][k])
			}
		}
	}
}

// Every setup and hold trial on a register that resumes from its record
// equals the same trial solved from t = 0 on a fresh register, on every
// unknown at every step, for mismatched registers and offsets visited out
// of order.
func TestTrialsMatchFreshRegister(t *testing.T) {
	m := mismatchedVS()
	offsets := []float64{150e-12, -37.5e-12, 56.25e-12, 9.375e-12, 120e-12,
		9.5e-12, -20e-12, 75e-12, 75.25e-12, 0}
	trials := []struct {
		name string
		run  func(*circuits.DFF, SetupOpts, float64) (bool, error)
	}{{"setup", setupTrialPasses}, {"hold", holdTrialPasses}}
	for i := 0; i < 4; i++ {
		ff := mismatchedDFF(m, i)
		var res spice.TranResult
		o := DefaultSetupOpts()
		o.Res = &res
		for _, tr := range trials {
			setClock(ff, o)
			for _, off := range offsets {
				pass, err := tr.run(ff, o, off)
				if err != nil {
					t.Fatal(err)
				}
				fresh := mismatchedDFF(m, i)
				setClock(fresh, o)
				var want spice.TranResult
				fo := o
				fo.Res = &want
				freshPass, err := tr.run(fresh, fo, off)
				if err != nil {
					t.Fatal(err)
				}
				if st := fresh.Ckt.Stats(); st.TranStepsReused != 0 {
					t.Fatalf("fresh register reused %d steps", st.TranStepsReused)
				}
				sameTrial(t, tr.name, ff, &res, &want)
				if pass != freshPass {
					t.Fatalf("register %d %s offset %g: pass %v, fresh %v", i, tr.name, off, pass, freshPass)
				}
			}
		}
		if ff.Ckt.Stats().TranStepsReused == 0 {
			t.Fatalf("register %d reused no step", i)
		}
	}
}

// The step ledger reconciles: every step of every bisection trial is
// either solved or restored from the record, and a sample decided inside
// the bracket runs only its midpoints, so a setup sample's solved and
// reused steps sum to 8 trials of 300 steps, and a hold sample's to 9
// trials. Each sample of the pooled register also equals the same search
// on a fresh register with the same devices, so no trial resumes from the
// previous sample's record.
func TestSearchStepLedgerReconciles(t *testing.T) {
	m := mismatchedVS()
	o := DefaultSetupOpts()
	const stepsPerTrial = 300 // (ClkEdge+Settle)/Step
	searches := []struct {
		name   string
		search func(*circuits.DFF, SetupOpts) (float64, error)
		trials int64
		lo     float64
	}{
		{"setup", SetupTime, int64(bisections(-o.MaxOffset/4, o.MaxOffset, o.Tol)), -o.MaxOffset / 4},
		{"hold", HoldTime, int64(bisections(-o.MaxOffset, o.MaxOffset, o.Tol)), -o.MaxOffset},
	}
	p := circuits.NewPooledDFF(0.9, circuits.DefaultDFFSizing(), m.Nominal(), false)
	o.Res = &p.Res
	for _, s := range searches {
		for i := 0; i < 4; i++ {
			p.Restat(m.Statistical(rand.New(rand.NewSource(int64(2013 + i)))))
			before := p.Ckt.Stats()
			v, err := s.search(p.DFF, o)
			if err != nil {
				t.Fatal(err)
			}
			fresh := circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), m.Statistical(rand.New(rand.NewSource(int64(2013+i)))))
			fo := DefaultSetupOpts()
			var last spice.TranResult
			fo.Res = &last
			if want, err := s.search(fresh, fo); err != nil || v != want {
				t.Fatalf("%s sample %d: pooled %.17g, fresh register %.17g (%v)", s.name, i, v, want, err)
			}
			sameTrial(t, s.name+" last trial", p.DFF, &p.Res, &last)
			if v == s.lo {
				t.Fatalf("%s sample %d stopped at the lower bracket", s.name, i)
			}
			st := p.Ckt.Stats()
			solved, reused := st.TranSteps-before.TranSteps, st.TranStepsReused-before.TranStepsReused
			if solved+reused != s.trials*stepsPerTrial {
				t.Fatalf("%s sample %d: %d solved + %d reused steps, want %d trials × %d",
					s.name, i, solved, reused, s.trials, stepsPerTrial)
			}
			if reused == 0 {
				t.Fatalf("%s sample %d reused no step", s.name, i)
			}
		}
	}
}

// On a warmed pooled register, a sample's re-stamp and search allocate
// only the 12 device cards of the re-stamp.
func TestSearchAllocs(t *testing.T) {
	m := mismatchedVS()
	p := circuits.NewPooledDFF(0.9, circuits.DefaultDFFSizing(), m.Nominal(), false)
	o := DefaultSetupOpts()
	o.Res = &p.Res
	f := m.Statistical(rand.New(rand.NewSource(7)))
	for _, s := range []struct {
		name   string
		search func(*circuits.DFF, SetupOpts) (float64, error)
	}{{"setup", SetupTime}, {"hold", HoldTime}} {
		sample := func() {
			p.Restat(f)
			if _, err := s.search(p.DFF, o); err != nil {
				t.Fatal(err)
			}
		}
		sample()
		if allocs := testing.AllocsPerRun(3, sample); allocs > 12 {
			t.Fatalf("%s: Restat + search allocates %v times, want at most 12", s.name, allocs)
		}
	}
}
