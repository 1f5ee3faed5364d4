package measure

import (
	"math"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/spice"
	"vstat/internal/vsmodel"
)

func nominalVS(k device.Kind, w, l float64) device.Device {
	p := vsmodel.Card(k, w).WithGeometry(w, l)
	return &p
}

func TestCrossTime(t *testing.T) {
	tm := []float64{0, 1, 2, 3}
	v := []float64{0, 1, 0, 1}
	x, err := CrossTime(tm, v, 0.5, true, 0)
	if err != nil || math.Abs(x-0.5) > 1e-12 {
		t.Fatalf("rising cross %g %v", x, err)
	}
	x, err = CrossTime(tm, v, 0.5, false, 0)
	if err != nil || math.Abs(x-1.5) > 1e-12 {
		t.Fatalf("falling cross %g %v", x, err)
	}
	x, err = CrossTime(tm, v, 0.5, true, 1.6)
	if err != nil || math.Abs(x-2.5) > 1e-12 {
		t.Fatalf("cross after %g %v", x, err)
	}
	if _, err := CrossTime(tm, v, 2, true, 0); err != ErrNoCrossing {
		t.Fatal("expected ErrNoCrossing")
	}
}

func TestPairDelayOnInverter(t *testing.T) {
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	b := circuits.InverterFO(3, 0.9, sz, nominalVS)
	res, err := b.Ckt.Transient(spice.TranOpts{Stop: circuits.PulsePeriod, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	d, err := PairDelay(res, b.In, b.Out, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 50e-12 {
		t.Fatalf("pair delay %g implausible", d)
	}
	dHL, err := PropDelay(res, b.In, b.Out, 0.9, true, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dHL <= 0 {
		t.Fatalf("HL delay %g", dHL)
	}
}

func TestLeakageOfInverter(t *testing.T) {
	sz := circuits.Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9}
	b := circuits.InverterFO(3, 0.9, sz, nominalVS)
	// Static input low.
	b.Ckt.SetVSource(b.VinSrc, spice.DC(0))
	op, err := b.Ckt.OP()
	if err != nil {
		t.Fatal(err)
	}
	leak := Leakage(op, b.VddSrc)
	// 8 transistors with tens of nA/µm off-current: nA to sub-µA total.
	if leak < 1e-10 || leak > 5e-6 {
		t.Fatalf("leakage %g A implausible", leak)
	}
}

func TestSNMIdealizedCurves(t *testing.T) {
	// Two shifted step-like VTCs with a known gap: ideal inverters with
	// threshold at 0.3 and 0.6 and full swing 0..1. The largest embedded
	// square side is analytically 0.3 (limited by the threshold spacing).
	mk := func(vm float64) circuits.ButterflyCurve {
		var in, out []float64
		for v := 0.0; v <= 1.0001; v += 0.005 {
			in = append(in, v)
			o := 1.0
			// steep but finite slope around vm
			switch {
			case v > vm+0.005:
				o = 0
			case v > vm-0.005:
				o = (vm + 0.005 - v) / 0.01
			}
			out = append(out, o)
		}
		return circuits.ButterflyCurve{In: in, Out: out}
	}
	left := mk(0.3)
	right := mk(0.6) // forced-qb curve: q = g(qb)
	res, err := SNM(left, right)
	if err != nil {
		t.Fatal(err)
	}
	// NaN compares false against every bound, so non-finite results are
	// rejected on their own.
	if !finite(res.Upper) || !finite(res.Lower) || !finite(res.SNM) || math.Abs(res.SNM-0.3) > 0.02 {
		t.Fatalf("SNM %g want ≈0.3 (upper %g lower %g)", res.SNM, res.Upper, res.Lower)
	}
}

func TestSNMSymmetricCell(t *testing.T) {
	cell := circuits.NewSRAMCell(0.9, circuits.DefaultSRAMSizing(), nominalVS)
	l, r, err := cell.Butterfly(false, 81)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SNM(l, r)
	if err != nil {
		t.Fatal(err)
	}
	// Hold SNM of a healthy 40-nm cell: a few hundred mV.
	if res.SNM < 0.15 || res.SNM > 0.45 {
		t.Fatalf("hold SNM %g V implausible", res.SNM)
	}
	// Nominal cell is symmetric: lobes nearly equal.
	if math.Abs(res.Upper-res.Lower) > 0.03 {
		t.Fatalf("nominal lobes asymmetric: %g vs %g", res.Upper, res.Lower)
	}
	// Read SNM must be smaller than hold SNM.
	lr, rr, err := cell.Butterfly(true, 81)
	if err != nil {
		t.Fatal(err)
	}
	read, err := SNM(lr, rr)
	if err != nil {
		t.Fatal(err)
	}
	if read.SNM >= res.SNM {
		t.Fatalf("read SNM %g not below hold SNM %g", read.SNM, res.SNM)
	}
	if read.SNM < 0.05 {
		t.Fatalf("read SNM %g collapsed", read.SNM)
	}
}

func TestSetupTimeNominal(t *testing.T) {
	ff := circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), nominalVS)
	o := DefaultSetupOpts()
	o.Tol = 1e-12 // coarse for test speed
	ts, err := SetupTime(ff, o)
	if err != nil {
		t.Fatal(err)
	}
	// Positive, tens of ps at most for this register.
	if ts <= 0 || ts > 120e-12 {
		t.Fatalf("setup time %g implausible", ts)
	}
}

func TestHoldTimeNominal(t *testing.T) {
	ff := circuits.NewDFF(0.9, circuits.DefaultDFFSizing(), nominalVS)
	o := DefaultSetupOpts()
	o.Tol = 1e-12
	th, err := HoldTime(ff, o)
	if err != nil {
		t.Fatal(err)
	}
	// Hold time can be negative (data may fall before the edge); it must be
	// well below the setup-side window.
	if th > 60e-12 || th < -o.MaxOffset {
		t.Fatalf("hold time %g implausible", th)
	}
}

func TestInterpolatorMonotonicityGuards(t *testing.T) {
	if _, err := newInterp([]float64{0, 1, 0.5}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected error for non-monotone abscissa")
	}
	if _, err := newInterp([]float64{0}, []float64{1}); err == nil {
		t.Fatal("expected error for single point")
	}
	// Descending input is normalized.
	p, err := newInterp([]float64{1, 0}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.at(0.25); math.Abs(got-17.5) > 1e-12 {
		t.Fatalf("interp %g", got)
	}
	if p.at(-1) != 20 || p.at(2) != 10 {
		t.Fatal("clamping")
	}
}
