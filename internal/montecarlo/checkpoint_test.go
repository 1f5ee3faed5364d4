package montecarlo

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vstat/internal/lifecycle"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt.json")
	hash := ConfigHash(int64(42), "inv", 0.9)
	const n = 10
	ck, err := OpenCheckpoint[float64](path, hash, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 6; idx++ {
		ck.Record(idx, float64(idx)*1.5, map[string]int64{"dc-gmin": 1}, nil)
	}
	ck.Record(6, nil, nil, errors.New("sample exploded"))
	ck.Record(6, 99.0, nil, nil) // duplicate: must be ignored
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCheckpoint[float64](path, hash, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if re.Restored() != 7 {
		t.Fatalf("Restored = %d, want 7", re.Restored())
	}
	if re.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", re.Pending())
	}
	for idx := 0; idx < 6; idx++ {
		if !re.Completed(idx) {
			t.Fatalf("sample %d not marked completed after reload", idx)
		}
	}
	if re.Completed(7) {
		t.Fatal("unrecorded sample marked completed")
	}
	res := re.Results()
	if res[3] != 4.5 || res[6] != 0 {
		t.Fatalf("restored results %v", res)
	}
	rep := re.Report()
	if rep.Attempted != 7 || rep.Succeeded != 6 || rep.Failed != 1 {
		t.Fatalf("restored report %s", rep.String())
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Idx != 6 ||
		rep.Failures[0].Err.Error() != "sample exploded" {
		t.Fatalf("restored failures %v", rep.Failures)
	}
	if rep.Rescued["dc-gmin"] != 6 {
		t.Fatalf("restored rescued %v", rep.Rescued)
	}
}

func TestCheckpointConfigHashRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt.json")
	ck, err := OpenCheckpoint[float64](path, ConfigHash(int64(1)), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(0, 1.0, nil, nil)
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint[float64](path, ConfigHash(int64(2)), 4, 0); err == nil {
		t.Fatal("checkpoint from a different configuration loaded without error")
	} else if !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("rejection error %v does not name the configuration mismatch", err)
	}
	if _, err := OpenCheckpoint[float64](path, ConfigHash(int64(1)), 8, 0); err == nil {
		t.Fatal("checkpoint with a different sample count loaded without error")
	}
}

func TestCheckpointFlushAtomicNoTempLeft(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt.json")
	ck, err := OpenCheckpoint[float64](path, ConfigHash(int64(5)), 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	// flushEvery=3 forces many automatic flushes; each must rename its temp
	// file away.
	for idx := 0; idx < 200; idx++ {
		ck.Record(idx, float64(idx), nil, nil)
	}
	if err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "run.ckpt.json" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("checkpoint dir holds %v, want only run.ckpt.json", names)
	}
}

// ckRescueState gives every (13k)-th sample one synthetic rescue so the
// per-sample rescue deltas survive the kill/resume cycle.
type ckRescueState struct{ counts map[string]int64 }

// RescueCounts returns a snapshot, like spice.SolverStats.RescueCounts does
// — the engine diffs successive snapshots for the per-sample deltas.
func (s *ckRescueState) RescueCounts() map[string]int64 {
	out := make(map[string]int64, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// TestCheckpointKillResumeBitIdentical is the acceptance run: a 10k-sample
// Monte Carlo killed at roughly half-way and resumed — at a different worker
// count — must produce bit-identical results and an identical run report to
// an uninterrupted run.
func TestCheckpointKillResumeBitIdentical(t *testing.T) {
	const n, seed = 10000, int64(20130318)
	hash := ConfigHash(seed, n)
	path := filepath.Join(t.TempDir(), "mc.ckpt.json")

	sample := func(st *ckRescueState, idx int, rng *rand.Rand) (float64, error) {
		if idx%997 == 0 && idx > 0 {
			return 0, errors.New("deterministic failure")
		}
		if idx%13 == 0 {
			st.counts["test-stage"]++
		}
		return ctxSample(idx, rng)
	}
	newState := func(int) (*ckRescueState, error) {
		return &ckRescueState{counts: make(map[string]int64)}, nil
	}

	// Reference: one uninterrupted checkpointed run.
	refCk, err := OpenCheckpoint[float64](path+".ref", hash, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = MapPooledReportCtx(context.Background(), n, seed, 4,
		RunOpts{Policy: SkipUpTo(0.01), Checkpoint: refCk}, newState, sample)
	if err != nil {
		t.Fatal(err)
	}
	want := refCk.Results()
	wantRep := refCk.Report()

	// Phase 1: kill at ~50%.
	ck1, err := OpenCheckpoint[float64](path, hash, n, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	_, _, err = MapPooledReportCtx(ctx, n, seed, 4,
		RunOpts{Policy: SkipUpTo(0.01), Checkpoint: ck1},
		newState,
		func(st *ckRescueState, idx int, rng *rand.Rand) (float64, error) {
			if done.Add(1) == n/2 {
				cancel()
			}
			return sample(st, idx, rng)
		})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want a context.Canceled chain", err)
	}
	if err := ck1.Flush(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume from disk with a different worker count.
	ck2, err := OpenCheckpoint[float64](path, hash, n, 64)
	if err != nil {
		t.Fatal(err)
	}
	restored := ck2.Restored()
	if restored == 0 || restored >= n {
		t.Fatalf("resume restored %d samples, expected a partial run", restored)
	}
	var rerun atomic.Int64
	_, _, err = MapPooledReportCtx(context.Background(), n, seed, 7,
		RunOpts{Policy: SkipUpTo(0.01), Checkpoint: ck2},
		newState,
		func(st *ckRescueState, idx int, rng *rand.Rand) (float64, error) {
			rerun.Add(1)
			return sample(st, idx, rng)
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := int(rerun.Load()); got != n-restored {
		t.Fatalf("resume re-ran %d samples, want exactly the %d missing ones", got, n-restored)
	}
	if p := ck2.Pending(); p != 0 {
		t.Fatalf("resumed run left %d samples pending", p)
	}

	got := ck2.Results()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %.17g after kill+resume, uninterrupted %.17g", i, got[i], want[i])
		}
	}
	gotRep := ck2.Report()
	if gotRep.Attempted != wantRep.Attempted || gotRep.Succeeded != wantRep.Succeeded ||
		gotRep.Failed != wantRep.Failed {
		t.Fatalf("resumed report %s, uninterrupted %s", gotRep.String(), wantRep.String())
	}
	if len(gotRep.Failures) != len(wantRep.Failures) {
		t.Fatalf("resumed failures %d, uninterrupted %d", len(gotRep.Failures), len(wantRep.Failures))
	}
	for i := range wantRep.Failures {
		if gotRep.Failures[i].Idx != wantRep.Failures[i].Idx ||
			gotRep.Failures[i].Err.Error() != wantRep.Failures[i].Err.Error() {
			t.Fatalf("failure %d: resumed %v, uninterrupted %v",
				i, gotRep.Failures[i], wantRep.Failures[i])
		}
	}
	if gotRep.Rescued["test-stage"] != wantRep.Rescued["test-stage"] {
		t.Fatalf("resumed rescued %v, uninterrupted %v", gotRep.Rescued, wantRep.Rescued)
	}
}

// fakeSink records checkpoint traffic and marks a fixed set as completed.
type fakeSink struct {
	mu   sync.Mutex
	done map[int]bool
	rec  map[int]bool
}

func (f *fakeSink) Completed(idx int) bool { return f.done[idx] }
func (f *fakeSink) Record(idx int, _ any, _ map[string]int64, _ error) {
	f.mu.Lock()
	f.rec[idx] = true
	f.mu.Unlock()
}

// TestCheckpointSkipsCompletedIndices verifies a resumed run skips every
// index the checkpoint already holds: it is never re-run and never
// re-recorded, and every other index runs and is recorded once.
func TestCheckpointSkipsCompletedIndices(t *testing.T) {
	const n = 24
	sink := &fakeSink{done: map[int]bool{}, rec: map[int]bool{}}
	for i := 0; i < n; i += 2 {
		sink.done[i] = true // evens restored by a previous run
	}
	var mu sync.Mutex
	ran := map[int]bool{}
	_, rep, err := MapPooledReportCtx(context.Background(), n, 7, 2,
		RunOpts{Checkpoint: sink}, noState,
		func(_ struct{}, idx int, _ *rand.Rand) (int, error) {
			mu.Lock()
			ran[idx] = true
			mu.Unlock()
			return idx, nil
		})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < n; i++ {
		odd := i%2 == 1
		if ran[i] != odd {
			t.Fatalf("sample %d ran=%v, want %v", i, ran[i], odd)
		}
		if sink.rec[i] != odd {
			t.Fatalf("sample %d recorded=%v, want %v", i, sink.rec[i], odd)
		}
	}
	if rep.Succeeded != n/2 {
		t.Fatalf("succeeded %d, want %d", rep.Succeeded, n/2)
	}
}

// TestSyncDirErrorSurfaces pins the durability error path: syncing a
// directory that does not exist must return an error (flushLocked wraps it
// as "sync dir"), and a normal flush on a real directory must still work —
// i.e. the rename is followed by a successful directory fsync.
func TestSyncDirErrorSurfaces(t *testing.T) {
	if err := syncDir(filepath.Join(t.TempDir(), "no-such-dir")); err == nil {
		t.Fatal("syncDir on a nonexistent directory returned nil, want error")
	}

	dir := t.TempDir()
	ck, err := OpenCheckpoint[float64](filepath.Join(dir, "run.ckpt.json"), "h", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ck.Record(0, 1.0, nil, nil)
	if err := ck.Flush(); err != nil {
		t.Fatalf("flush with directory sync failed: %v", err)
	}
	// The flush must have published the file (rename happened before the
	// directory sync, and the sync succeeded).
	if _, err := os.Stat(filepath.Join(dir, "run.ckpt.json")); err != nil {
		t.Fatalf("checkpoint file missing after flush: %v", err)
	}
}

// TestRecordedFailureClassification pins the wire-format provenance flags
// shared by checkpoints and shard envelopes.
func TestRecordedFailureClassification(t *testing.T) {
	plain := NewRecordedFailure(3, errors.New("no convergence"))
	if plain.Panic || plain.Budget || plain.Msg != "no convergence" || plain.Idx != 3 {
		t.Fatalf("plain failure misclassified: %+v", plain)
	}
	pan := NewRecordedFailure(4, &PanicError{Value: "boom"})
	if !pan.Panic {
		t.Fatalf("panic failure not flagged: %+v", pan)
	}
	bud := NewRecordedFailure(5, &lifecycle.BudgetError{Kind: lifecycle.OverWall})
	if !bud.Budget {
		t.Fatalf("budget failure not flagged: %+v", bud)
	}
	if got := plain.Err().Error(); got != "no convergence" {
		t.Fatalf("restored message %q, want original", got)
	}
}
