package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestShardMergeDeterminism is the merge-determinism contract: the same
// set of increments distributed over N worker shards merges bit-identical
// to a single shard holding all of them, for counters, gauges (additive),
// and histograms. Mirrors the MC bit-identity tests.
func TestShardMergeDeterminism(t *testing.T) {
	type op struct {
		kind int // 0 counter, 1 hist, 2 gauge-add-once
		id   int
		v    int64
	}
	rng := rand.New(rand.NewSource(42))
	var ops []op
	for i := 0; i < 5000; i++ {
		switch rng.Intn(2) {
		case 0:
			ops = append(ops, op{kind: 0, id: rng.Intn(3), v: int64(rng.Intn(10))})
		default:
			ops = append(ops, op{kind: 1, id: rng.Intn(2), v: int64(rng.Intn(1 << 20))})
		}
	}

	build := func(workers int) Snapshot {
		r := NewRegistry()
		var cids [3]CounterID
		for i := range cids {
			cids[i] = r.Counter([]string{"a", "b", "c"}[i])
		}
		var hids [2]HistID
		hids[0] = r.Histogram("h0", ExpBounds(16, 2, 12))
		hids[1] = r.Histogram("h1", []int64{10, 100, 1000})
		shards := make([]*Shard, workers)
		for w := range shards {
			shards[w] = r.NewShard()
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i, o := range ops {
					if i%workers != w {
						continue
					}
					switch o.kind {
					case 0:
						shards[w].Add(cids[o.id], o.v)
					case 1:
						shards[w].Observe(hids[o.id], o.v)
					}
				}
			}(w)
		}
		wg.Wait()
		return r.Snapshot()
	}

	ref := build(1)
	for _, workers := range []int{2, 3, 8} {
		got := build(workers)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("snapshot with %d workers differs from 1-worker reference:\n1: %+v\n%d: %+v",
				workers, ref, workers, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	id := r.Histogram("lat", []int64{10, 20, 40, 80})
	s := r.NewShard()
	// 100 observations uniform in (0,10]: p50 should interpolate to ~5.
	for i := 0; i < 100; i++ {
		s.Observe(id, 5)
	}
	snap := r.Snapshot().Find("lat")
	if snap.Count != 100 || snap.Sum != 500 {
		t.Fatalf("count/sum = %d/%d, want 100/500", snap.Count, snap.Sum)
	}
	if p := snap.Quantile(0.5); p <= 0 || p > 10 {
		t.Fatalf("p50 = %v, want in (0,10]", p)
	}
	// Overflow bucket reports the last finite bound.
	s.Observe(id, 1<<40)
	snap = r.Snapshot().Find("lat")
	if p := snap.Quantile(0.999); p != 80 {
		t.Fatalf("overflow quantile = %v, want 80", p)
	}
	if snap.Counts[len(snap.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", snap.Counts[len(snap.Counts)-1])
	}
}

// TestHistogramQuantilesClampedToObservedRange pins that quantile
// estimates never leave the observed [min, max]: a phase that observes only
// zeros reports p50 = 0 (not a point inside the first bucket), and n
// identical observations report that value at every quantile.
func TestHistogramQuantilesClampedToObservedRange(t *testing.T) {
	r := NewRegistry()
	zeros := r.Histogram("zeros", ExpBounds(256, 2, 8))
	same := r.Histogram("same", ExpBounds(256, 2, 8))
	r.Histogram("empty", ExpBounds(256, 2, 8))
	shards := []*Shard{r.NewShard(), r.NewShard()}
	for i := 0; i < 64; i++ {
		shards[i%2].Observe(zeros, 0)
	}
	for i := 0; i < 37; i++ {
		shards[i%2].Observe(same, 1000)
	}
	snap := r.Snapshot()

	z := snap.Find("zeros")
	if z.Count != 64 || z.Sum != 0 || z.Min != 0 || z.Max != 0 {
		t.Fatalf("zeros: count/sum/min/max = %d/%d/%d/%d, want 64/0/0/0", z.Count, z.Sum, z.Min, z.Max)
	}
	if z.P50 != 0 || z.P90 != 0 || z.P99 != 0 {
		t.Fatalf("zeros: p50/p90/p99 = %v/%v/%v, want 0", z.P50, z.P90, z.P99)
	}
	s := snap.Find("same")
	if s.Min != 1000 || s.Max != 1000 {
		t.Fatalf("same: min/max = %d/%d, want 1000/1000", s.Min, s.Max)
	}
	if s.P50 != 1000 || s.P90 != 1000 || s.P99 != 1000 {
		t.Fatalf("same: p50/p90/p99 = %v/%v/%v, want 1000", s.P50, s.P90, s.P99)
	}
	e := snap.Find("empty")
	if e.Count != 0 || e.Min != 0 || e.Max != 0 || e.P50 != 0 {
		t.Fatalf("empty: count/min/max/p50 = %d/%d/%d/%v, want zeros", e.Count, e.Min, e.Max, e.P50)
	}
}

func TestSnapshotJSONAndPrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mc_samples_total")
	g := r.Gauge("mc_workers")
	h := r.Histogram("newton_iters", []int64{4, 8, 16})
	s := r.NewShard()
	s.Add(c, 7)
	s.Set(g, 4)
	s.Observe(h, 5)
	s.Observe(h, 100)

	snap := r.Snapshot()
	blob, err := snap.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.FindCounter("mc_samples_total") != 7 {
		t.Fatalf("counter lost in JSON round-trip: %+v", back)
	}

	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE mc_samples_total counter",
		"mc_samples_total 7",
		"# TYPE mc_workers gauge",
		"newton_iters_bucket{le=\"8\"} 1",
		"newton_iters_bucket{le=\"+Inf\"} 2",
		"newton_iters_sum 105",
		"newton_iters_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

// TestPrometheusGoldenOutput pins the text exposition format byte-exactly:
// metric families emit in sorted-name order regardless of registration
// order, HELP text escapes backslash and newline (quotes stay bare), label
// values additionally escape quotes, and a second render is identical to
// the first.
func TestPrometheusGoldenOutput(t *testing.T) {
	r := NewRegistry()
	// Registered deliberately out of sorted order.
	z := r.Counter("z_total")
	a := r.Counter("a_total")
	g := r.Gauge("m_gauge")
	h := r.Histogram("h_ns", []int64{10, 20})
	r.SetHelp("a_total", "Line one\nline \"two\" with \\ backslash.")
	r.SetHelp("h_ns", "Latency\\path")
	s := r.NewShard()
	s.Add(a, 3)
	s.Add(z, 7)
	s.Set(g, 5)
	s.Observe(h, 5)
	s.Observe(h, 15)
	s.Observe(h, 999)

	want := `# HELP a_total Line one\nline "two" with \\ backslash.
# TYPE a_total counter
a_total 3
# TYPE z_total counter
z_total 7
# TYPE m_gauge gauge
m_gauge 5
# HELP h_ns Latency\\path
# TYPE h_ns histogram
h_ns_bucket{le="10"} 1
h_ns_bucket{le="20"} 2
h_ns_bucket{le="+Inf"} 3
h_ns_sum 1019
h_ns_count 3
`
	snap := r.Snapshot()
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("prometheus text not byte-identical to golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	var b2 strings.Builder
	if err := snap.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Fatal("two renders of the same snapshot differ")
	}
}

// TestHelpSurvivesSnapshotJSON pins that HELP text rides the -metrics-out
// JSON document, so a file written by one process renders the same
// exposition text elsewhere.
func TestHelpSurvivesSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	r.SetHelp("x_total", "Help text.")
	blob, err := r.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := back.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# HELP x_total Help text.\n") {
		t.Fatalf("HELP lost through the JSON round-trip:\n%s", b.String())
	}
}

func TestNilShardIsNoOp(t *testing.T) {
	var s *Shard
	s.Add(0, 1)
	s.Set(0, 1)
	s.Observe(0, 1)
}

func TestRegistrationAfterShardPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("a")
	r.NewShard()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering after first shard")
		}
	}()
	r.Counter("b")
}

func TestExpBounds(t *testing.T) {
	b := ExpBounds(256, 1.5, 41)
	if b[0] != 256 {
		t.Fatalf("first bound = %d", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
}

// TestShardOpsAllocFree guards the recording hot path: counter adds and
// histogram observes on a live shard must not allocate.
func TestShardOpsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", ExpBounds(16, 2, 20))
	s := r.NewShard()
	if n := testing.AllocsPerRun(200, func() {
		s.Add(c, 1)
		s.Observe(h, 12345)
	}); n != 0 {
		t.Fatalf("shard ops allocate %v allocs/op, want 0", n)
	}
	var nilShard *Shard
	if n := testing.AllocsPerRun(200, func() {
		nilShard.Add(c, 1)
		nilShard.Observe(h, 12345)
	}); n != 0 {
		t.Fatalf("nil shard ops allocate %v allocs/op, want 0", n)
	}
}
