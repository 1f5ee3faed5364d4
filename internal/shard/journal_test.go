package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vstat/internal/montecarlo"
	"vstat/internal/obs"
)

// killAfter cancels the run (the in-process stand-in for kill -9 on the
// coordinator) once `remaining` envelopes have been delivered by the
// transport. The envelope that trips the switch is itself discarded by the
// coordinator's shutdown check, so the journal ends up holding roughly —
// not exactly — that many commits, like a real crash would.
type killAfter[T any] struct {
	next      Transport[T]
	remaining *atomic.Int64
	kill      func()
}

func (k killAfter[T]) Dispatch(ctx context.Context, req Request) ([]*Envelope[T], error) {
	envs, err := k.next.Dispatch(ctx, req)
	if err == nil && len(envs) > 0 && k.remaining.Add(-1) == 0 {
		k.kill()
	}
	return envs, err
}

// faultMatrix is the standard drop/vanish/duplicate/corrupt script the
// bit-identical acceptance tests share.
func faultMatrix() []FaultRule {
	return []FaultRule{
		{Shard: 0, Attempt: 0, Kind: FaultDrop},
		{Shard: 1, Attempt: 0, Kind: FaultDrop},
		{Shard: 1, Attempt: 1, Kind: FaultVanish},
		{Shard: 2, Attempt: 0, Kind: FaultDuplicate},
		{Shard: 3, Attempt: 0, Kind: FaultCorrupt},
	}
}

// TestJournalResumeKillAt50BitIdentical is the crash-safety acceptance
// test: a 10k-sample journaled run is killed once ~50% of shards have
// committed, then restarted with the same journal. The restart must
// restore the committed prefix (ResumeSkipped > 0, those shards never
// re-dispatched) and merge bit-identically to the single-process run — at
// shard sizes {256, 1000, 4096}, differing worker counts, under the
// drop/vanish/duplicate/corrupt fault matrix.
func TestJournalResumeKillAt50BitIdentical(t *testing.T) {
	const n = 10_000
	const seed = int64(20260809)
	want, wantRep := baseline(t, n, seed)

	for _, tc := range []struct {
		shardSize int
		workers   int
	}{
		{256, 2},
		{1000, 3},
		{4096, 1},
	} {
		label := fmt.Sprintf("shardSize=%d workers=%d", tc.shardSize, tc.workers)
		nShards := (n + tc.shardSize - 1) / tc.shardSize
		path := filepath.Join(t.TempDir(), "run.journal.json")
		cfg := Config{
			N: n, Seed: seed, ConfigHash: testHash,
			ShardSize:   tc.shardSize,
			MaxFailFrac: 1.0,
			MaxAttempts: 6,
			DeadAfter:   50,
			BackoffBase: time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
		}

		// Phase 1: journaled run killed at ~50% committed.
		ctx1, kill := context.WithCancel(context.Background())
		plan := &FaultPlan{Rules: faultMatrix()}
		var remaining atomic.Int64
		remaining.Store(int64(nShards/2 + 1))
		var eps []Endpoint[float64]
		for w := 0; w < tc.workers; w++ {
			eps = append(eps, Endpoint[float64]{
				Name: fmt.Sprintf("w%d", w),
				Transport: killAfter[float64]{
					next:      Wrap(plan, Loopback[float64]{Exec: testExec()}),
					remaining: &remaining,
					kill:      kill,
				},
			})
		}
		jnl1, err := CreateJournal[float64](path, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		_, err = RunWithOptions(ctx1, cfg, eps, nil, RunOptions[float64]{Journal: jnl1})
		kill()
		if err == nil && nShards > 1 {
			t.Fatalf("%s: killed run reported success", label)
		}
		committed := jnl1.Commits()
		jnl1.Close()
		if nShards > 2 && (committed == 0 || committed >= int64(nShards)) {
			t.Fatalf("%s: kill landed badly: %d of %d shards journaled", label, committed, nShards)
		}

		// Phase 2: fresh coordinator, same journal, same fault script (the
		// uncommitted shards restart at attempt 0, so their faults replay).
		jnl2, err := OpenJournal[float64](path, cfg)
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		var eps2 []Endpoint[float64]
		for w := 0; w < tc.workers; w++ {
			eps2 = append(eps2, Endpoint[float64]{
				Name:      fmt.Sprintf("w%d", w),
				Transport: Wrap(&FaultPlan{Rules: faultMatrix()}, Loopback[float64]{Exec: testExec()}),
			})
		}
		res, err := RunWithOptions(context.Background(), cfg, eps2, nil, RunOptions[float64]{Journal: jnl2})
		if err != nil {
			t.Fatalf("%s: resume: %v", label, err)
		}
		assertBitIdentical(t, label, res, want, wantRep)
		assertStatsInvariants(t, label, res)
		if res.Stats.ResumeSkipped != committed {
			t.Fatalf("%s: restored %d shards, journal held %d", label, res.Stats.ResumeSkipped, committed)
		}
		if res.Stats.ResumeSkipped+res.Stats.JournalCommits != int64(nShards) {
			t.Fatalf("%s: restored %d + journaled %d != %d shards",
				label, res.Stats.ResumeSkipped, res.Stats.JournalCommits, nShards)
		}
		// The journal now holds every shard: a third run is pure restore,
		// no dispatch at all.
		jnl3, err := OpenJournal[float64](path, cfg)
		if err != nil {
			t.Fatalf("%s: reopen full: %v", label, err)
		}
		res3, err := RunWithOptions(context.Background(), cfg, nil, nil, RunOptions[float64]{Journal: jnl3})
		jnl3.Close()
		if err != nil {
			t.Fatalf("%s: full-restore run: %v", label, err)
		}
		assertBitIdentical(t, label+" full-restore", res3, want, wantRep)
		if res3.Stats.Dispatched != 0 || res3.Stats.ResumeSkipped != int64(nShards) {
			t.Fatalf("%s: full restore dispatched %d, restored %d of %d",
				label, res3.Stats.Dispatched, res3.Stats.ResumeSkipped, nShards)
		}
	}
}

// TestFaultCoordKillModeResumes drives the coordinator-kill fault mode:
// the plan's Kill hook cancels the run at a scripted (shard, attempt)
// coordinate, and a journaled restart completes bit-identically.
func TestFaultCoordKillModeResumes(t *testing.T) {
	const n = 2000
	const seed = int64(31)
	want, wantRep := baseline(t, n, seed)
	path := filepath.Join(t.TempDir(), "run.journal.json")
	cfg := Config{
		N: n, Seed: seed, ConfigHash: testHash, ShardSize: 250, MaxFailFrac: 1.0,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, DeadAfter: 50,
	}
	ctx, kill := context.WithCancel(context.Background())
	plan := &FaultPlan{
		Rules: []FaultRule{{Shard: 4, Attempt: 0, Kind: FaultCoordKill}},
		Kill:  kill,
	}
	jnl, err := CreateJournal[float64](path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := []Endpoint[float64]{{Name: "w0", Transport: Wrap(plan, Loopback[float64]{Exec: testExec()})}}
	if _, err := RunWithOptions(ctx, cfg, eps, nil, RunOptions[float64]{Journal: jnl}); err == nil {
		t.Fatal("coordinator-killed run reported success")
	}
	jnl.Close()

	jnl2, err := OpenJournal[float64](path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	eps2 := []Endpoint[float64]{{Name: "w0", Transport: Loopback[float64]{Exec: testExec()}}}
	res, err := RunWithOptions(context.Background(), cfg, eps2, nil, RunOptions[float64]{Journal: jnl2})
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "coord-kill-resume", res, want, wantRep)
	assertStatsInvariants(t, "coord-kill-resume", res)
	if res.Stats.ResumeSkipped == 0 {
		t.Fatalf("nothing restored from the journal: %+v", res.Stats)
	}
}

// TestJournalTornTailRedispatched pins torn-write recovery: a journal cut
// mid-record (simulated partial write) and one with a flipped byte in its
// final record must both be detected on open — the damaged tail is
// truncated, its shard re-dispatched, and the merged run stays
// bit-identical. This is the corrupt-tail case of the fault matrix.
func TestJournalTornTailRedispatched(t *testing.T) {
	const n = 1000
	const seed = int64(17)
	want, wantRep := baseline(t, n, seed)
	cfg := Config{N: n, Seed: seed, ConfigHash: testHash, ShardSize: 100, MaxFailFrac: 1.0}
	nShards := 10

	fullJournal := func(t *testing.T, path string) {
		jnl, err := CreateJournal[float64](path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps := []Endpoint[float64]{{Name: "w0", Transport: Loopback[float64]{Exec: testExec()}}}
		if _, err := RunWithOptions(context.Background(), cfg, eps, nil, RunOptions[float64]{Journal: jnl}); err != nil {
			t.Fatal(err)
		}
		jnl.Close()
	}

	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"truncated-mid-record", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Chop the trailing newline plus a slice of the last record:
			// exactly what a crash mid-append leaves behind.
			if err := os.WriteFile(path, raw[:len(raw)-37], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-tail-byte", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a byte inside the last record's payload (line structure
			// intact, CRC must catch it).
			raw[len(raw)-20] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.journal.json")
			fullJournal(t, path)
			tc.damage(t, path)
			jnl, err := OpenJournal[float64](path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			if jnl.Dropped() != 1 {
				t.Fatalf("open dropped %d records, want 1", jnl.Dropped())
			}
			eps := []Endpoint[float64]{{Name: "w0", Transport: Loopback[float64]{Exec: testExec()}}}
			res, err := RunWithOptions(context.Background(), cfg, eps, nil, RunOptions[float64]{Journal: jnl})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, tc.name, res, want, wantRep)
			assertStatsInvariants(t, tc.name, res)
			if res.Stats.ResumeSkipped != int64(nShards-1) {
				t.Fatalf("restored %d shards, want %d (damaged one re-dispatched)",
					res.Stats.ResumeSkipped, nShards-1)
			}
			if res.Stats.Dispatched != 1 || res.Stats.JournalCommits != 1 {
				t.Fatalf("damaged shard not re-dispatched exactly once: %+v", res.Stats)
			}
		})
	}
}

// TestJournalRejectsForeignRun pins run-identity validation: a journal
// written under one (hash, n, shard size, seed) must refuse to resume any
// other run, never silently merge foreign samples.
func TestJournalRejectsForeignRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal.json")
	cfg := Config{N: 1000, Seed: 1, ConfigHash: testHash, ShardSize: 100}
	jnl, err := CreateJournal[float64](path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	for _, mut := range []func(*Config){
		func(c *Config) { c.Seed = 2 },
		func(c *Config) { c.N = 2000 },
		func(c *Config) { c.ShardSize = 50 },
		func(c *Config) { c.ConfigHash = "other" },
	} {
		bad := cfg
		mut(&bad)
		if _, err := OpenJournal[float64](path, bad); err == nil ||
			!strings.Contains(err.Error(), "different run") {
			t.Fatalf("foreign config accepted (err %v)", err)
		}
	}
	// A run handed a journal for a different config must refuse too.
	jnl2, err := OpenJournal[float64](path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	bad := cfg
	bad.Seed = 99
	if _, err := RunWithOptions(context.Background(), bad, nil, testExec(),
		RunOptions[float64]{Journal: jnl2}); err == nil {
		t.Fatal("RunWithOptions accepted a journal from a different run")
	}
}

// TestJournalTornHeaderStartsFresh: a crash inside CreateJournal before
// the header sync leaves a torn first line; open must treat the file as
// fresh rather than erroring forever.
func TestJournalTornHeaderStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"config_`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 100, Seed: 1, ConfigHash: testHash, ShardSize: 50, MaxFailFrac: 1.0}
	jnl, err := OpenJournal[float64](path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	res, err := RunWithOptions(context.Background(), cfg, nil, testExec(), RunOptions[float64]{Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ResumeSkipped != 0 || res.Stats.JournalCommits != 2 {
		t.Fatalf("torn-header journal did not start fresh: %+v", res.Stats)
	}
}

// TestStatsCheckCatchesViolations pins the invariant checker `vsshard run`
// exits non-zero on.
func TestStatsCheckCatchesViolations(t *testing.T) {
	good := Stats{
		Dispatched: 4, Committed: 4,
		CommitLatency: make([]time.Duration, 4),
	}
	if err := good.Check(4); err != nil {
		t.Fatalf("sound stats rejected: %v", err)
	}
	resumed := Stats{
		Dispatched: 1, Committed: 4, ResumeSkipped: 3, JournalCommits: 1,
		CommitLatency: make([]time.Duration, 1),
	}
	if err := resumed.Check(4); err != nil {
		t.Fatalf("sound resumed stats rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Stats
	}{
		{"missing-commit", Stats{Dispatched: 4, Committed: 3, CommitLatency: make([]time.Duration, 3)}},
		{"latency-mismatch", Stats{Dispatched: 4, Committed: 4, CommitLatency: make([]time.Duration, 3)}},
		{"accounting", Stats{Dispatched: 9, Committed: 4, CommitLatency: make([]time.Duration, 4)}},
		{"excess-restored", Stats{Dispatched: 0, Committed: 4, ResumeSkipped: 5}},
	}
	for _, tc := range cases {
		if err := tc.s.Check(4); err == nil {
			t.Fatalf("%s: violation passed Check", tc.name)
		} else if !strings.Contains(err.Error(), "invariant") {
			t.Fatalf("%s: undiagnostic error %v", tc.name, err)
		}
	}
}

// TestJournalMetricsExported runs a journaled resume with a registry
// attached and checks the new counters and gauges flow through the obs
// snapshot and the Prometheus text exposition with their HELP strings.
func TestJournalMetricsExported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal.json")
	cfg := Config{N: 1000, Seed: 5, ConfigHash: testHash, ShardSize: 100, MaxFailFrac: 1.0}

	jnl, err := CreateJournal[float64](path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := []Endpoint[float64]{{Name: "w0", Transport: Loopback[float64]{Exec: testExec()}}}
	if _, err := RunWithOptions(context.Background(), cfg, eps, nil, RunOptions[float64]{Journal: jnl}); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	reg := obs.NewRegistry()
	cfg.Metrics = NewMetrics(reg)
	jnl2, err := OpenJournal[float64](path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	res, err := RunWithOptions(context.Background(), cfg, nil, nil, RunOptions[float64]{Journal: jnl2})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["shard_journal_resume_skipped_total"] != res.Stats.ResumeSkipped ||
		res.Stats.ResumeSkipped != 10 {
		t.Fatalf("resume-skipped counter %d, stats %d, want 10",
			counters["shard_journal_resume_skipped_total"], res.Stats.ResumeSkipped)
	}
	if counters["shard_journal_commits_total"] != res.Stats.JournalCommits {
		t.Fatalf("journal-commits counter %d, stats %d",
			counters["shard_journal_commits_total"], res.Stats.JournalCommits)
	}
	gauges := map[string]int64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["shard_coordinator_peak_rss_bytes"] <= 0 {
		t.Fatalf("peak-RSS gauge %d, want > 0", gauges["shard_coordinator_peak_rss_bytes"])
	}
	if gauges["shard_coordinator_peak_live_envelopes"] != res.Stats.PeakLiveEnvelopes {
		t.Fatalf("peak-live gauge %d, stats %d",
			gauges["shard_coordinator_peak_live_envelopes"], res.Stats.PeakLiveEnvelopes)
	}
	var buf strings.Builder
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP shard_journal_commits_total",
		"# HELP shard_journal_resume_skipped_total",
		"# TYPE shard_coordinator_peak_rss_bytes gauge",
		"shard_coordinator_peak_live_envelopes",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Prometheus exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestJournalAppendFailureFailsRun: once the journal cannot make a commit
// durable, the run must fail loudly rather than continue volatile.
func TestJournalAppendFailureFailsRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal.json")
	cfg := Config{N: 200, Seed: 1, ConfigHash: testHash, ShardSize: 50, MaxFailFrac: 1.0}
	jnl, err := CreateJournal[float64](path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close() // writes on a closed file must error
	_, err = RunWithOptions(context.Background(), cfg, nil, testExec(), RunOptions[float64]{Journal: jnl})
	if err == nil || !strings.Contains(err.Error(), "journal append") {
		t.Fatalf("run with a dead journal returned %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("journal failure masked as cancellation: %v", err)
	}
}

// journalLine frames env as one journal record line, CRC included, the
// way Append writes it.
func journalLine(t testing.TB, env any) []byte {
	t.Helper()
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(journalRecord{CRC: crc32.ChecksumIEEE(raw), Env: raw})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// FuzzJournalOpen feeds the journal decoder (OpenJournal, readRecord and
// Replay) a valid header followed by arbitrary bytes. It must never panic,
// every envelope Replay returns must pass Envelope.Validate for its shard,
// and reopening the file, which the first open truncated to its durable
// prefix, must restore the same envelopes.
func FuzzJournalOpen(f *testing.F) {
	cfg := Config{N: 10, Seed: 1, ConfigHash: testHash, ShardSize: 4}
	shard0 := Envelope[float64]{Version: EnvelopeVersion, ConfigHash: testHash, N: 10,
		Shard: 0, Lo: 0, Hi: 4, Results: []float64{1, 2, 3, 4}, Attempted: 4}
	shard2 := Envelope[float64]{Version: EnvelopeVersion, ConfigHash: testHash, N: 10,
		Shard: 2, Lo: 8, Hi: 10, Results: []float64{5, 0}, Attempted: 2,
		Failures: []montecarlo.RecordedFailure{{Idx: 9, Msg: "no convergence"}},
		Rescued:  map[string]int64{"dc-gmin": 1}}
	foreign := shard0
	foreign.ConfigHash = "other"
	past := shard2
	past.Shard = 3
	good := append(journalLine(f, shard0), journalLine(f, shard2)...)
	crc := journalLine(f, shard2)
	crc[8] ^= 1 // a CRC digit
	for _, seed := range [][]byte{
		nil,
		good,
		good[:len(good)-20],
		append(journalLine(f, shard0), crc...),
		append(journalLine(f, foreign), journalLine(f, past)...),
		append(journalLine(f, "not an envelope"), good...),
		[]byte("{\"crc\":0,\"env\":null}\n"),
		[]byte("garbage\n\n{}\n"),
	} {
		f.Add(seed)
	}
	head, err := json.Marshal(headerFor(cfg))
	if err != nil {
		f.Fatal(err)
	}
	head = append(head, '\n')
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "run.journal.json")
		if err := os.WriteFile(path, append(slices.Clip(head), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() []*Envelope[float64] {
			jnl, err := OpenJournal[float64](path, cfg)
			if err != nil {
				t.Fatalf("open with a valid header: %v", err)
			}
			defer jnl.Close()
			var envs []*Envelope[float64]
			if _, err := jnl.Replay(func(env *Envelope[float64]) error {
				lo, hi, ok := shardRange(cfg.N, cfg.ShardSize, env.Shard)
				if !ok {
					t.Fatalf("replayed shard %d is out of range", env.Shard)
				}
				if err := env.Validate(cfg.ConfigHash, cfg.N, lo, hi); err != nil {
					t.Fatalf("replayed an invalid envelope: %v", err)
				}
				envs = append(envs, env)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return envs
		}
		first := replay()
		if again := replay(); !reflect.DeepEqual(first, again) {
			t.Fatalf("reopening restored %d envelopes %+v, first open %d %+v", len(again), again, len(first), first)
		}
	})
}
