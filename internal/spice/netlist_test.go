package spice

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseValue(t *testing.T) {
	cases := map[string]float64{
		"1":     1,
		"1.5":   1.5,
		"-3":    -3,
		"1k":    1e3,
		"2.2u":  2.2e-6,
		"40n":   40e-9,
		"40nm":  40e-9,
		"1p":    1e-12,
		"3f":    3e-15,
		"5meg":  5e6,
		"1e-12": 1e-12,
		"2e3":   2e3,
		"0.9v":  0.9,
		"7m":    7e-3,
		"1g":    1e9,
		"2t":    2e12,
	}
	for in, want := range cases {
		got, err := ParseValue(in)
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", in, err)
		}
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Fatalf("ParseValue(%q) = %g want %g", in, got, want)
		}
	}
	for _, bad := range []string{"", "abc", "1x", "--3"} {
		if _, err := ParseValue(bad); err == nil {
			t.Fatalf("ParseValue(%q) should fail", bad)
		}
	}
}

const inverterDeck = `VS inverter test deck
VDD vdd 0 DC 0.9
VIN in 0 PULSE(0 0.9 20p 10p 10p 150p 400p)
MP out in vdd vdd pmos W=600n L=40n
MN out in 0 0 nmos W=300n L=40n
CL out 0 1f
.op
.tran 1p 400p
.end
`

func TestParseNetlistInverter(t *testing.T) {
	d, err := ParseNetlist(strings.NewReader(inverterDeck))
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "VS inverter test deck" {
		t.Fatalf("title %q", d.Title)
	}
	if !d.OPRequested || len(d.TranCards) != 1 {
		t.Fatalf("analyses: op=%v tran=%d", d.OPRequested, len(d.TranCards))
	}
	if d.TranCards[0].Step != 1e-12 || d.TranCards[0].Stop != 400e-12 {
		t.Fatalf("tran card %+v", d.TranCards[0])
	}
	// The deck runs: OP then transient.
	op, err := d.Circuit.OP()
	if err != nil {
		t.Fatal(err)
	}
	if v := op.VName("out"); v < 0.85 {
		t.Fatalf("OP out=%g", v)
	}
	res, err := d.Circuit.Transient(TranOpts{Stop: d.TranCards[0].Stop, Step: d.TranCards[0].Step})
	if err != nil {
		t.Fatal(err)
	}
	min := 1.0
	for _, v := range res.VName("out") {
		if v < min {
			min = v
		}
	}
	if min > 0.05 {
		t.Fatalf("inverter never switched: min=%g", min)
	}
}

func TestParseNetlistDCAndIC(t *testing.T) {
	deck := `sweep deck
V1 a 0 DC 0
R1 a b 1k
R2 b 0 1k
.ic v(b)=0.25
.dc V1 0 1 0.5
`
	d, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DCCards) != 1 || d.DCCards[0].Source != "V1" {
		t.Fatalf("dc cards %+v", d.DCCards)
	}
	if d.ICs["b"] != 0.25 {
		t.Fatalf("ics %+v", d.ICs)
	}
	src := d.Circuit.VSourceIndex("V1")
	if src < 0 {
		t.Fatal("source not registered")
	}
	ops, err := d.Circuit.DCSweep(src, []float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := ops[2].VName("b"); math.Abs(v-0.5) > 1e-6 {
		t.Fatalf("sweep endpoint b=%g", v)
	}
}

func TestParseNetlistGoldenModels(t *testing.T) {
	deck := `golden
VDD vdd 0 DC 0.9
MN d vdd 0 0 nmos_golden W=1u L=40n
MP d2 0 vdd vdd pmos_golden W=1u L=40n
R1 d 0 1k
R2 d2 vdd 1k
.op
`
	d, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Circuit.OP(); err != nil {
		t.Fatal(err)
	}
}

func TestParseNetlistErrors(t *testing.T) {
	bad := []string{
		"t\nR1 a 0\n",                    // too few resistor fields
		"t\nM1 d g s b nmos W=1u\n",      // missing L
		"t\nM1 d g s b foo W=1u L=40n\n", // unknown model
		"t\nV1 a 0 WOBBLE(1 2)\n",        // unknown waveform
		"t\n.dc V1 0 1\n",                // short dc card
		"t\n.tran 1p\n",                  // short tran card
		"t\n.wibble\n",                   // unknown card
		"t\nX1 a b c\n",                  // unknown element
		"t\n.ic frog=3\n",                // bad ic token
		"t\nV1 a 0 PULSE(1 2 3)\n",       // short pulse
		"t\nV1 a 0 PWL(1 2 3)\n",         // odd pwl
		"t\nR1 a 0 0\n",                  // zero resistance
		"t\nR1 a 0 -1k\n",                // negative resistance
		"t\nR1 a 0 1e-320\n",             // conductance overflows
		"t\nC1 a 0 -1p\n",                // negative capacitance
		"t\nR1 a 0 1e308meg\n",           // value overflows with its suffix
		"t\n.ac V1 1 10 1e300\n",         // point count beyond int
		"t\n.ac V1 1 10 2.5\n",           // fractional point count
		"t\n.ac V1 1 10 0\n",             // no points
	}
	for _, deck := range bad {
		if _, err := ParseNetlist(strings.NewReader(deck)); err == nil {
			t.Fatalf("deck %q should fail", deck)
		}
	}
}

func TestParsePWLAndComments(t *testing.T) {
	deck := `pwl deck
* a comment
V1 a 0 PWL(0 0 1n 1 2n, 0)
R1 a 0 1k
`
	d, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	w := d.Circuit.vs[0].wave
	if v := w.At(1e-9); math.Abs(v-1) > 1e-12 {
		t.Fatalf("PWL peak %g", v)
	}
	if v := w.At(1.5e-9); math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("PWL mid %g", v)
	}
}

func TestParseNetlistACCard(t *testing.T) {
	deck := `ac deck
VIN in 0 DC 0
R1 in out 1k
C1 out 0 1n
.ac VIN 1k 1meg 5
`
	d, err := ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.ACCards) != 1 {
		t.Fatalf("ac cards %d", len(d.ACCards))
	}
	ac := d.ACCards[0]
	if ac.Source != "VIN" || ac.FStart != 1e3 || ac.FStop != 1e6 || ac.Points != 5 {
		t.Fatalf("ac card %+v", ac)
	}
	src := d.Circuit.VSourceIndex(ac.Source)
	res, err := d.Circuit.AC(src, LogSpace(ac.FStart, ac.FStop, ac.Points))
	if err != nil {
		t.Fatal(err)
	}
	// DC-ish point near unity, high frequency attenuated.
	lo := res.VName("out", 0)
	hi := res.VName("out", len(res.Freqs)-1)
	if math.Hypot(real(lo), imag(lo)) < 0.99 {
		t.Fatalf("low-frequency magnitude %v", lo)
	}
	if math.Hypot(real(hi), imag(hi)) > 0.2 {
		t.Fatalf("high-frequency magnitude %v", hi)
	}
	// Bad cards.
	for _, bad := range []string{
		"t\n.ac VIN 1k 1meg\n",
		"t\n.ac VIN 0 1meg 5\n",
		"t\n.ac VIN 1meg 1k 5\n",
	} {
		if _, err := ParseNetlist(strings.NewReader(bad)); err == nil {
			t.Fatalf("deck %q should fail", bad)
		}
	}
}

// FuzzParseNetlist feeds arbitrary decks to the parser, seeded with the
// example netlists: it must return an error rather than panic, and every
// card it accepts must meet the bounds it enforces.
func FuzzParseNetlist(f *testing.F) {
	paths, err := filepath.Glob("../../examples/netlists/*.sp")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example netlists to seed from (%v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add("t\nR 1 0 0\n")
	f.Add("t\nC1 a 0 1p\nR1 a 0 1k\n.ac V1 1 10 1e300\n")
	finite := func(vs ...float64) bool {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, deck string) {
		d, err := ParseNetlist(strings.NewReader(deck))
		if err != nil {
			return
		}
		c := d.Circuit
		for _, r := range c.rs {
			if !(r.g > 0) || !finite(r.g) {
				t.Fatalf("resistor %s accepted with conductance %g", r.name, r.g)
			}
		}
		for _, cp := range c.cs {
			if !(cp.c >= 0) || !finite(cp.c) {
				t.Fatalf("capacitor %s accepted with value %g", cp.name, cp.c)
			}
		}
		for _, dc := range d.DCCards {
			if !finite(dc.Start, dc.Stop, dc.Step) || !(dc.Step > 0) || dc.Stop < dc.Start {
				t.Fatalf(".dc card accepted out of bounds: %+v", dc)
			}
		}
		for _, tr := range d.TranCards {
			if !finite(tr.Step, tr.Stop) {
				t.Fatalf(".tran card accepted out of bounds: %+v", tr)
			}
		}
		for _, ac := range d.ACCards {
			if !finite(ac.FStart, ac.FStop) || !(ac.FStart > 0) || ac.FStop < ac.FStart || ac.Points < 1 {
				t.Fatalf(".ac card accepted out of bounds: %+v", ac)
			}
		}
		for node, v := range d.ICs {
			if !finite(v) {
				t.Fatalf(".ic v(%s) accepted as %g", node, v)
			}
		}
	})
}
