package experiments

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"vstat/internal/circuits"
	"vstat/internal/montecarlo"
	"vstat/internal/obs"
	"vstat/internal/shard"
)

// TestShardedRunMatchesLocal routes a real INV FO3 delay MC through the
// shard coordinator (Config.ShardSize) and checks the merged results are
// bit-identical to the plain pooled run — values, failure count, report —
// and that the shard counters land in the obs registry.
func TestShardedRunMatchesLocal(t *testing.T) {
	m := mismatchedVS()
	const n = 24
	const seed = int64(777)

	ref, refRep, err := runPooledMC[*circuits.PooledGate, float64](
		Config{Workers: 2, Policy: montecarlo.SkipUpTo(1.0)},
		"shard-ref", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "delays", ref)

	reg := obs.NewRegistry()
	sm := shard.NewMetrics(reg)
	cfg := Config{
		Workers:        2,
		Policy:         montecarlo.SkipUpTo(1.0),
		ShardSize:      7, // deliberately not a divisor of 24
		ShardEndpoints: 2,
		shardMetrics:   sm,
	}
	got, gotRep, err := runPooledMC[*circuits.PooledGate, float64](
		cfg, "shard-run", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("sharded run produced %d samples, local %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("sample %d: sharded %.17g, local %.17g", i, got[i], ref[i])
		}
	}
	if gotRep.Attempted != refRep.Attempted || gotRep.Failed != refRep.Failed {
		t.Fatalf("sharded report %s, local %s", gotRep.String(), refRep.String())
	}
	for k, v := range refRep.Rescued {
		if gotRep.Rescued[k] != v {
			t.Fatalf("rescued[%s] = %d sharded, %d local", k, gotRep.Rescued[k], v)
		}
	}
	var dispatched, committed int64
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "shard_dispatched_total":
			dispatched = c.Value
		case "shard_committed_total":
			committed = c.Value
		}
	}
	wantShards := int64((n + cfg.ShardSize - 1) / cfg.ShardSize)
	if committed != wantShards || dispatched < wantShards {
		t.Fatalf("shard counters: dispatched=%d committed=%d, want %d shards", dispatched, committed, wantShards)
	}
}

// TestShardedRunJournalResume pins the suite-level dispatch journal: a
// journaled sharded run followed by a Resume run with the same
// ShardJournalDir must restore every shard — zero sample re-executed —
// and still hand back bit-identical results and report.
func TestShardedRunJournalResume(t *testing.T) {
	m := mismatchedVS()
	const n = 24
	const seed = int64(777)
	dir := t.TempDir()
	cfg := Config{
		Workers:         2,
		Policy:          montecarlo.SkipUpTo(1.0),
		ShardSize:       7,
		ShardEndpoints:  2,
		ShardJournalDir: dir,
	}
	ref, refRep, err := runPooledMC[*circuits.PooledGate, float64](
		cfg, "journal-run", n, seed, invBench(m), invDelay(m))
	if err != nil {
		t.Fatal(err)
	}
	requireSpread(t, "delays", ref)

	cfg.Resume = true
	var reran atomic.Int64
	base := invDelay(m)
	got, gotRep, err := runPooledMC[*circuits.PooledGate, float64](
		cfg, "journal-run", n, seed, invBench(m),
		func(b *circuits.PooledGate, idx int, rng *rand.Rand) (float64, error) {
			reran.Add(1)
			return base(b, idx, rng)
		})
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 0 {
		t.Fatalf("resume re-executed %d samples, want 0 (all shards journaled)", reran.Load())
	}
	if len(got) != len(ref) {
		t.Fatalf("resumed run produced %d samples, original %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("sample %d: resumed %.17g, original %.17g", i, got[i], ref[i])
		}
	}
	if gotRep.Attempted != refRep.Attempted || gotRep.Failed != refRep.Failed {
		t.Fatalf("resumed report %s, original %s", gotRep.String(), refRep.String())
	}
}

// TestShardedRunRejectsCheckpoint pins the ShardSize/CheckpointDir
// exclusivity: shards are the retry unit, a run-level checkpoint would
// double-apply completions.
func TestShardedRunRejectsCheckpoint(t *testing.T) {
	m := mismatchedVS()
	cfg := Config{ShardSize: 8, CheckpointDir: t.TempDir()}
	_, _, err := runPooledMC[*circuits.PooledGate, float64](
		cfg, "shard-ckpt", 16, 1, invBench(m), invDelay(m))
	if err == nil || !strings.Contains(err.Error(), "cannot also checkpoint") {
		t.Fatalf("sharded+checkpointed run not rejected: %v", err)
	}
}
