package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// failOn builds a sample fn that fails on the given indices and otherwise
// returns a deterministic function of idx.
func failOn(bad map[int]error) func(idx int, rng *rand.Rand) (float64, error) {
	return func(idx int, rng *rand.Rand) (float64, error) {
		if err, ok := bad[idx]; ok {
			return 0, err
		}
		return float64(idx) * 2, nil
	}
}

func TestMapReportSkipAndRecord(t *testing.T) {
	bad := map[int]error{13: errors.New("boom13"), 57: errors.New("boom57")}
	const n = 100
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		out, rep, err := MapPooledReportCtx(context.Background(), n, 7, workers,
			RunOpts{Policy: Policy{OnFailure: SkipAndRecord}}, noState, stateless(failOn(bad)))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Attempted != n || rep.Succeeded != n-2 || rep.Failed != 2 {
			t.Fatalf("workers=%d: report %+v", workers, rep)
		}
		if len(rep.Failures) != 2 || rep.Failures[0].Idx != 13 || rep.Failures[1].Idx != 57 {
			t.Fatalf("workers=%d: failures %v", workers, rep.Failures)
		}
		for i, v := range out {
			if _, isBad := bad[i]; isBad {
				if v != 0 {
					t.Fatalf("failed sample %d has non-zero slot %g", i, v)
				}
			} else if v != float64(i)*2 {
				t.Fatalf("sample %d = %g", i, v)
			}
		}
		kept := Compact(out, rep)
		if len(kept) != n-2 {
			t.Fatalf("Compact kept %d of %d", len(kept), n)
		}
	}
}

func TestMapReportFailFastLowestIndex(t *testing.T) {
	// Many failing indices: the reported failure must be the lowest one that
	// ran, which (claims being a contiguous prefix) is the global lowest.
	bad := map[int]error{12: errors.New("low"), 40: errors.New("high"), 77: errors.New("higher")}
	for _, workers := range []int{1, 4} {
		_, rep, err := MapPooledReportCtx(context.Background(), 100, 3, workers, RunOpts{}, noState, stateless(failOn(bad)))
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !errors.Is(err, bad[12]) {
			t.Fatalf("workers=%d: err %v does not wrap lowest-index failure", workers, err)
		}
		if len(rep.Failures) == 0 || rep.Failures[0].Idx != 12 {
			t.Fatalf("workers=%d: failures %v", workers, rep.Failures)
		}
	}
}

func TestMapReportCapTrip(t *testing.T) {
	// 34 of 100 samples fail; a 10% cap must trip for any worker count.
	fn := func(idx int, rng *rand.Rand) (float64, error) {
		if idx%3 == 0 {
			return 0, errors.New("fail")
		}
		return 1, nil
	}
	for _, workers := range []int{1, 4} {
		_, rep, err := MapPooledReportCtx(context.Background(), 100, 5, workers, RunOpts{Policy: SkipUpTo(0.1)}, noState, stateless(fn))
		if !errors.Is(err, ErrTooManyFailures) {
			t.Fatalf("workers=%d: err = %v, want ErrTooManyFailures", workers, err)
		}
		if !rep.CapTripped {
			t.Fatalf("workers=%d: CapTripped not set", workers)
		}
	}
	// The same failure pattern under a generous cap completes.
	_, rep, err := MapPooledReportCtx(context.Background(), 100, 5, 4, RunOpts{Policy: SkipUpTo(0.5)}, noState, stateless(fn))
	if err != nil {
		t.Fatal(err)
	}
	if rep.CapTripped || rep.Failed != 34 {
		t.Fatalf("report %+v", rep)
	}
}

func TestMapReportPanicRecovery(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 4} {
		out, rep, err := MapPooledReportCtx(context.Background(), n, 1, workers,
			RunOpts{Policy: Policy{OnFailure: SkipAndRecord}}, noState,
			func(_ struct{}, idx int, rng *rand.Rand) (float64, error) {
				if idx == 5 {
					panic("sample 5 exploded")
				}
				return float64(idx), nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Failed != 1 || rep.Panics != 1 {
			t.Fatalf("workers=%d: report %+v", workers, rep)
		}
		var pe *PanicError
		if !errors.As(rep.Failures[0].Err, &pe) {
			t.Fatalf("workers=%d: failure err %T", workers, rep.Failures[0].Err)
		}
		if pe.Value != "sample 5 exploded" || len(pe.Stack) == 0 {
			t.Fatalf("panic error %+v", pe)
		}
		// Every other sample completed despite the in-pool panic.
		for i, v := range out {
			if i != 5 && v != float64(i) {
				t.Fatalf("sample %d = %g after panic", i, v)
			}
		}
	}
}

func TestMapReportPanicFailFast(t *testing.T) {
	_, _, err := MapPooledReportCtx(context.Background(), 20, 1, 2, RunOpts{}, noState,
		func(_ struct{}, idx int, rng *rand.Rand) (int, error) {
			if idx == 3 {
				panic("boom")
			}
			return idx, nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *PanicError", err)
	}
}

func TestMapPooledReportStatePanic(t *testing.T) {
	// A panicking newState must surface as a worker state error, not kill
	// the process.
	_, _, err := MapPooledReportCtx(context.Background(), 10, 1, 2, RunOpts{},
		func(w int) (int, error) {
			if w == 0 {
				panic("state build failed")
			}
			return w, nil
		},
		func(st, idx int, rng *rand.Rand) (int, error) { return idx, nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *PanicError", err)
	}
}

// rescueState fakes a pooled bench whose solver counters advance by a
// per-sample-deterministic amount.
type rescueState struct{ gmin, halve int64 }

func (s *rescueState) RescueCounts() map[string]int64 {
	out := map[string]int64{}
	if s.gmin != 0 {
		out["dc-gmin"] = s.gmin
	}
	if s.halve != 0 {
		out["tran-halve"] = s.halve
	}
	return out
}

func TestMapPooledReportRescueAggregationWorkerInvariant(t *testing.T) {
	const n = 60
	run := func(workers int) RunReport {
		_, rep, err := MapPooledReportCtx(context.Background(), n, 9, workers, RunOpts{},
			func(int) (*rescueState, error) { return &rescueState{}, nil },
			func(st *rescueState, idx int, rng *rand.Rand) (int, error) {
				if idx%7 == 0 {
					st.gmin++
				}
				if idx%13 == 0 {
					st.halve += 2
				}
				return idx, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got := run(workers)
		if !reflect.DeepEqual(got.Rescued, want.Rescued) {
			t.Fatalf("workers=%d: rescued %v, want %v", workers, got.Rescued, want.Rescued)
		}
		if got.Attempted != want.Attempted || got.Succeeded != want.Succeeded {
			t.Fatalf("workers=%d: %+v vs %+v", workers, got, want)
		}
	}
	if want.Rescued["dc-gmin"] == 0 || want.Rescued["tran-halve"] == 0 {
		t.Fatalf("rescue counters not aggregated: %v", want.Rescued)
	}
}

func TestRunReportMergeAndString(t *testing.T) {
	a := RunReport{Attempted: 10, Succeeded: 9, Failed: 1,
		Failures: []SampleFailure{{Idx: 3, Err: errors.New("x")}},
		Rescued:  map[string]int64{"dc-gmin": 2}}
	b := RunReport{Attempted: 5, Succeeded: 5, Rescued: map[string]int64{"dc-gmin": 1, "tran-halve": 4}}
	a.Merge(b)
	if a.Attempted != 15 || a.Succeeded != 14 || a.Failed != 1 {
		t.Fatalf("merged %+v", a)
	}
	if a.Rescued["dc-gmin"] != 3 || a.Rescued["tran-halve"] != 4 {
		t.Fatalf("merged rescued %v", a.Rescued)
	}
	s := a.String()
	for _, want := range []string{"attempted 15", "failed 1", "rescued[dc-gmin]=3"} {
		if !contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if a.Clean() {
		t.Fatal("non-clean report reported clean")
	}
	if (RunReport{Attempted: 3, Succeeded: 3}).Clean() != true {
		t.Fatal("clean report not clean")
	}
}

func TestFailFrac(t *testing.T) {
	if (RunReport{}).FailFrac() != 0 {
		t.Fatal("empty run FailFrac")
	}
	r := RunReport{Attempted: 200, Failed: 5}
	if r.FailFrac() != 0.025 {
		t.Fatalf("FailFrac = %g", r.FailFrac())
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestCompactNoFailures(t *testing.T) {
	out := []int{1, 2, 3}
	if got := Compact(out, RunReport{}); &got[0] != &out[0] {
		t.Fatal("Compact should return the input unchanged when nothing failed")
	}
}

func TestSkipAndRecordDeterministicOutputs(t *testing.T) {
	// With failures recorded (not aborting), the surviving outputs must be
	// bit-identical across worker counts.
	fn := func(idx int, rng *rand.Rand) (float64, error) {
		if idx == 11 {
			return 0, fmt.Errorf("sample %d down", idx)
		}
		return rng.NormFloat64(), nil
	}
	pol := RunOpts{Policy: Policy{OnFailure: SkipAndRecord}}
	ref, _, err := MapPooledReportCtx(context.Background(), 64, 42, 1, pol, noState, stateless(fn))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, _, err := MapPooledReportCtx(context.Background(), 64, 42, workers, pol, noState, stateless(fn))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d sample %d: %.17g vs %.17g", workers, i, got[i], ref[i])
			}
		}
	}
}
