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

// instanceCase maps FuzzInstanceMatchesCard's kind and fractions onto a
// card and terminal voltages: Vd from −0.45 to 1.35 V, Vg from −0.2 to
// 1 V, Vs from 0 to 0.9 V and Vb from −0.3 to 0 V. Kind bit 0 makes the card
// PMOS, bit 1 gives it an effective width between −3 nm and 0, and bit 2
// sets Vd = Vs.
func instanceCase(kind uint8, u *[10]float64) (p Params, v [4]float64) {
	p = mismatchCard(kind&1 != 0, u[0], u[1], u[2], u[3], u[4], u[5])
	if kind&2 != 0 {
		p.DWg = p.W + 3e-9*u[3]
	}
	v = [4]float64{-0.45 + 1.8*u[6], -0.2 + 1.2*u[7], 0.9 * u[8], -0.3 * u[9]}
	if kind&4 != 0 {
		v[0] = v[2]
	}
	return p, v
}

// FuzzInstanceMatchesCard checks that an instance bound from a card
// evaluates to the bits of the card's own Eval and EvalDerivs4, over ±6σ
// mismatched NMOS and PMOS cards (mismatchCard) and terminal voltages that
// cover Vds < 0 (instanceCase), and that its EvalDerivs4, a group of one,
// is the bundle of the one-device series solve, solveSeriesD. It then
// evaluates the instance in a group of two to four (kind bits 3 and 4),
// beside partners that rotate its fractions and advance its kind: every
// lane's bundle must be its card's EvalDerivs4 bit for bit, and its series
// state, core-evaluation count included, solveSeriesD's.
func FuzzInstanceMatchesCard(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1000; i++ {
		f.Add(uint8(i%24), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(),
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
		p, v := instanceCase(kind, &u)
		vd, vg, vs, vb = v[0], v[1], v[2], v[3]
		in := p.Bind()
		if got, want := in.Eval(vd, vg, vs, vb), p.Eval(vd, vg, vs, vb); !sameBits(got, want) {
			t.Fatalf("%v card (kind %d, %v) at (%g, %g, %g, %g): instance Eval %+v, card %+v",
				p.TypeK, kind, u[:6], vd, vg, vs, vb, got, want)
		}
		got := in.EvalDerivs4(vd, vg, vs, vb)
		if want := p.EvalDerivs4(vd, vg, vs, vb); !sameDerivs(got, want) {
			t.Fatalf("%v card (kind %d, %v) at (%g, %g, %g, %g): instance EvalDerivs4 %+v, card %+v",
				p.TypeK, kind, u[:6], vd, vg, vs, vb, got, want)
		}
		if want, _ := oracleDerivs(in, v); !sameDerivs(got, want) {
			t.Fatalf("%v card (kind %d, %v) at (%g, %g, %g, %g): EvalDerivs4 %+v, one-device solve %+v",
				p.TypeK, kind, u[:6], vd, vg, vs, vb, got, want)
		}
		checkGroup(t, kind, u, 2+int(kind>>3)%3)
	})
}

// oracleDerivs returns EvalDerivs4's bundle for in at terminal voltages v
// as the one-device series solve, solveSeriesD, makes it, and the solve's
// state (zero without a channel).
func oracleDerivs(in *Instance, v [4]float64) (der device.Derivs, st seriesState) {
	if in.weff <= 0 {
		return
	}
	b := in.orient(v[0], v[1], v[2], v[3])
	in.solveSeriesD(b.vgs, b.vds, b.vbs, &st)
	in.bundle(&der, &st, &b)
	return
}

// sameState compares two series states bit for bit, core-evaluation count
// included.
func sameState(a, b *seriesState) bool {
	if a.evals != b.evals || math.Float64bits(a.id) != math.Float64bits(b.id) ||
		math.Float64bits(a.vdsi) != math.Float64bits(b.vdsi) {
		return false
	}
	x, y := a.co.fields(), b.co.fields()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// checkGroup evaluates the case (kind, u) and n−1 partners through one
// grouped evaluation: lane 0 is the case, and lane j rotates its ten
// fractions by j places and advances its kind by j. Every lane's bundle
// must equal its card's EvalDerivs4, and every lane with a channel must end
// in solveSeriesD's series state.
func checkGroup(t *testing.T, kind uint8, u [10]float64, n int) {
	t.Helper()
	var cards [device.LaneWidth]Params
	var lanes [device.LaneWidth]device.Lane
	var out [device.LaneWidth]device.Derivs
	for j := 0; j < n; j++ {
		var uj [10]float64
		for i := range uj {
			uj[i] = u[(i+j)%10]
		}
		p, v := instanceCase(kind+uint8(j), &uj)
		cards[j] = p
		lanes[j] = device.Lane{Dev: p.Bind(), V: v, Out: &out[j]}
	}
	var ls [device.LaneWidth]laneSolve
	solved := derivsLanes(lanes[:n], &ls)
	k := 0
	for j, ln := range lanes[:n] {
		v := ln.V
		if want := cards[j].EvalDerivs4(v[0], v[1], v[2], v[3]); !sameDerivs(out[j], want) {
			t.Fatalf("lane %d of %d, %v card %+v at %v: grouped bundle %+v, card %+v",
				j, n, cards[j].TypeK, cards[j], v, out[j], want)
		}
		in := ln.Dev.(*Instance)
		if in.weff <= 0 {
			continue
		}
		if _, st := oracleDerivs(in, v); !sameState(&solved[k].st, &st) {
			t.Fatalf("lane %d of %d, %v card %+v at %v: grouped series state %+v, one-device solve %+v",
				j, n, cards[j].TypeK, cards[j], v, solved[k].st, st)
		}
		k++
	}
	if k != len(solved) {
		t.Fatalf("%d lanes with a channel, %d solved", k, len(solved))
	}
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
