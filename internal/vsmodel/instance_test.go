package vsmodel

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vstat/internal/device"
)

// sameDerivs compares two derivative bundles bit for bit.
func sameDerivs(a, b device.Derivs) bool {
	if !sameBits(a.Eval, b.Eval) {
		return false
	}
	for j := range a.GId {
		if math.Float64bits(a.GId[j]) != math.Float64bits(b.GId[j]) {
			return false
		}
		for k := range a.CQ {
			if math.Float64bits(a.CQ[k][j]) != math.Float64bits(b.CQ[k][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzInstanceMatchesCard checks that an instance bound from a card
// evaluates to the bits of the card's own Eval and EvalDerivs4, over ±6σ
// mismatched NMOS and PMOS cards (mismatchCard) and terminal voltages Vd
// from −0.45 to 1.35 V, Vg from −0.2 to 1 V, Vs from 0 to 0.9 V and Vb from
// −0.3 to 0 V, so Vds < 0 is covered. Kind bit 0 makes the card PMOS, bit 1
// gives it an effective width between −3 nm and 0, and bit 2 sets Vd = Vs.
func FuzzInstanceMatchesCard(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1000; i++ {
		f.Add(uint8(i%8), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	}
	f.Fuzz(func(t *testing.T, kind uint8, w, dvt, dl, dw, dmu, dcinv, vd, vg, vs, vb float64) {
		var u [10]float64
		for i, x := range []float64{w, dvt, dl, dw, dmu, dcinv, vd, vg, vs, vb} {
			v, ok := unit(x)
			if !ok {
				t.Skip("non-finite input")
			}
			u[i] = v
		}
		p := mismatchCard(kind&1 != 0, u[0], u[1], u[2], u[3], u[4], u[5])
		if kind&2 != 0 {
			p.DWg = p.W + 3e-9*u[3]
		}
		vd, vg, vs, vb = -0.45+1.8*u[6], -0.2+1.2*u[7], 0.9*u[8], -0.3*u[9]
		if kind&4 != 0 {
			vd = vs
		}
		in := p.Bind()
		if got, want := in.Eval(vd, vg, vs, vb), p.Eval(vd, vg, vs, vb); !sameBits(got, want) {
			t.Fatalf("%v card (kind %d, %v) at (%g, %g, %g, %g): instance Eval %+v, card %+v",
				p.TypeK, kind, u[:6], vd, vg, vs, vb, got, want)
		}
		if got, want := in.EvalDerivs4(vd, vg, vs, vb), p.EvalDerivs4(vd, vg, vs, vb); !sameDerivs(got, want) {
			t.Fatalf("%v card (kind %d, %v) at (%g, %g, %g, %g): instance EvalDerivs4 %+v, card %+v",
				p.TypeK, kind, u[:6], vd, vg, vs, vb, got, want)
		}
	})
}

// perturbCard changes every float field of a card, nested ones included.
func perturbCard(p *Params) {
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(1.5*v.Float() + 1e-9)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(p).Elem())
}

// An instance owns a copy of its card: changing every field of the card it
// was bound from, or of the copy Card returns, leaves its evaluations and
// its card as they were. A fresh bind of the changed card does evaluate
// differently, so the change reached fields the evaluation reads.
func TestBoundInstanceIgnoresCardChanges(t *testing.T) {
	biases := [][4]float64{{0.9, 0.9, 0, 0}, {0.05, 0.6, 0, -0.2}, {0, 0.9, 0.9, 0}, {0.4, 0.45, 0.45, 0}}
	for _, pmos := range []bool{false, true} {
		p := mismatchCard(pmos, 0.3, 0.6, 0.4, 0.5, 0.7, 0.2)
		orig := p
		in := p.Bind()
		var before []device.Derivs
		for _, b := range biases {
			before = append(before, in.EvalDerivs4(b[0], b[1], b[2], b[3]))
		}

		perturbCard(&p)
		c := in.Card()
		perturbCard(&c)

		if in.Card() != orig {
			t.Fatalf("%v: Card() %+v after the changes, bound from %+v", orig.TypeK, in.Card(), orig)
		}
		moved := false
		for i, b := range biases {
			d := in.EvalDerivs4(b[0], b[1], b[2], b[3])
			if !sameDerivs(d, before[i]) {
				t.Fatalf("%v at %v: EvalDerivs4 %+v after the card changed, %+v before", orig.TypeK, b, d, before[i])
			}
			if e := in.Eval(b[0], b[1], b[2], b[3]); !sameBits(e, before[i].Eval) {
				t.Fatalf("%v at %v: Eval %+v after the card changed, %+v before", orig.TypeK, b, e, before[i].Eval)
			}
			if !sameDerivs(p.Bind().EvalDerivs4(b[0], b[1], b[2], b[3]), before[i]) {
				moved = true
			}
		}
		if !moved {
			t.Fatalf("%v: the changed card evaluates as before; the test changes nothing", orig.TypeK)
		}
	}
}
