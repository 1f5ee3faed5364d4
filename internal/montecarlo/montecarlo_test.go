package montecarlo

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"vstat/internal/stats"
)

// noState is the newState of a run whose samples need no pooled state.
func noState(int) (struct{}, error) { return struct{}{}, nil }

// stateless lifts a per-index sample fn into the pooled engine's shape.
func stateless[T any](fn func(idx int, rng *rand.Rand) (T, error)) func(struct{}, int, *rand.Rand) (T, error) {
	return func(_ struct{}, idx int, rng *rand.Rand) (T, error) { return fn(idx, rng) }
}

func TestMapOrderAndDeterminism(t *testing.T) {
	fn := func(idx int, rng *rand.Rand) (float64, error) {
		return float64(idx) + rng.Float64()*1e-3, nil
	}
	a, err := MapCtx(context.Background(), 100, 42, 4, fn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MapCtx(context.Background(), 100, 42, 13, fn) // different worker count
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across worker counts: %g vs %g", i, a[i], b[i])
		}
		if math.Floor(a[i]) != float64(i) {
			t.Fatalf("sample order broken at %d: %g", i, a[i])
		}
	}
	c, _ := MapCtx(context.Background(), 100, 43, 4, fn)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestMapErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapCtx(context.Background(), 50, 1, 8, func(idx int, rng *rand.Rand) (int, error) {
		if idx == 33 {
			return 0, boom
		}
		return idx, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("expected wrapped boom, got %v", err)
	}
}

func TestMapRunsAllSamples(t *testing.T) {
	var count int64
	_, err := MapCtx(context.Background(), 257, 7, 16, func(idx int, rng *rand.Rand) (struct{}, error) {
		atomic.AddInt64(&count, 1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 257 {
		t.Fatalf("ran %d samples", count)
	}
}

func TestMapEmptyAndDefaults(t *testing.T) {
	out, err := MapCtx(context.Background(), 0, 1, 0, func(int, *rand.Rand) (int, error) { return 1, nil })
	if err != nil || out != nil {
		t.Fatalf("empty run: %v %v", out, err)
	}
	// workers <= 0 defaults to GOMAXPROCS; n < workers clamps.
	out2, err := MapCtx(context.Background(), 3, 1, -1, func(i int, _ *rand.Rand) (int, error) { return i, nil })
	if err != nil || len(out2) != 3 {
		t.Fatalf("default workers: %v %v", out2, err)
	}
}

func TestMapPooledMatchesMapAcrossWorkerCounts(t *testing.T) {
	fn := func(idx int, rng *rand.Rand) (float64, error) {
		return float64(idx) + rng.Float64()*1e-3, nil
	}
	want, err := MapCtx(context.Background(), 100, 42, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	var created atomic.Int64
	for _, workers := range []int{1, 4, 13} {
		created.Store(0)
		got, _, err := MapPooledReportCtx(context.Background(), 100, 42, workers, RunOpts{},
			func(w int) (int, error) { created.Add(1); return w, nil },
			func(st int, idx int, rng *rand.Rand) (float64, error) { return fn(idx, rng) })
		if err != nil {
			t.Fatal(err)
		}
		if int(created.Load()) != workers {
			t.Fatalf("workers=%d built %d states", workers, created.Load())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d sample %d differs: %g vs %g", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapPooledStateErrorAborts(t *testing.T) {
	boom := errors.New("no bench")
	var ran atomic.Int64
	_, _, err := MapPooledReportCtx(context.Background(), 40, 1, 3, RunOpts{},
		func(w int) (int, error) {
			if w == 1 {
				return 0, boom
			}
			return w, nil
		},
		func(st int, idx int, _ *rand.Rand) (int, error) {
			ran.Add(1)
			return idx, nil
		})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("expected wrapped state error, got %v", err)
	}
	// Every worker builds its state before any claims a sample, so the
	// state error aborts the run before a single sample runs.
	if ran.Load() != 0 {
		t.Fatalf("%d of 40 samples ran after a worker's state failed", ran.Load())
	}
}

func TestMapPooledSampleErrorByLowestIndex(t *testing.T) {
	early, late := errors.New("early"), errors.New("late")
	_, _, err := MapPooledReportCtx(context.Background(), 50, 1, 8, RunOpts{}, noState,
		func(_ struct{}, idx int, _ *rand.Rand) (int, error) {
			switch idx {
			case 12:
				return 0, early
			case 40:
				return 0, late
			}
			return idx, nil
		})
	if err == nil || !errors.Is(err, early) {
		t.Fatalf("expected lowest-index error, got %v", err)
	}
}

func TestMapPooledStateIsPerWorkerNotPerSample(t *testing.T) {
	// Each worker must see one persistent state across all its samples —
	// that is the entire point of pooling.
	type counter struct{ calls int }
	outs, _, err := MapPooledReportCtx(context.Background(), 64, 9, 4, RunOpts{},
		func(w int) (*counter, error) { return &counter{}, nil },
		func(st *counter, idx int, _ *rand.Rand) (int, error) {
			st.calls++
			return st.calls, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, c := range outs {
		if c > max {
			max = c
		}
	}
	if max < 64/4 {
		t.Fatalf("max per-state call count %d; states are not persisting across samples", max)
	}
}

func TestSampleRNGIndependence(t *testing.T) {
	// Gaussian draws across samples must be uncorrelated and standard.
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = SampleRNG(99, i).NormFloat64()
	}
	if m := stats.Mean(xs); math.Abs(m) > 0.03 {
		t.Fatalf("cross-sample mean %g", m)
	}
	if sd := stats.StdDev(xs); math.Abs(sd-1) > 0.03 {
		t.Fatalf("cross-sample std %g", sd)
	}
	// Lag-1 correlation of the per-sample first draws.
	if r := stats.Correlation(xs[:n-1], xs[1:]); math.Abs(r) > 0.03 {
		t.Fatalf("lag-1 correlation %g", r)
	}
}

func TestScalarsAndColumn(t *testing.T) {
	xs, err := MapCtx(context.Background(), 10, 5, 2, func(i int, _ *rand.Rand) (float64, error) {
		return float64(i * i), nil
	})
	if err != nil || xs[3] != 9 {
		t.Fatalf("scalar run: %v %v", xs, err)
	}
	col := Column([][]float64{{1, 2}, {3, 4}, {5, 6}}, 1)
	if col[0] != 2 || col[2] != 6 {
		t.Fatalf("Column: %v", col)
	}
}
