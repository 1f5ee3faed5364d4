package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// CounterID, GaugeID and HistID index a metric within its registry. IDs are
// dense, so shards store metric cells in flat slices and every record
// operation is an index plus an atomic add.
type (
	CounterID int32
	GaugeID   int32
	HistID    int32
)

// histDef is one registered histogram: a name and its fixed ascending
// bucket upper bounds (an implicit +Inf overflow bucket follows the last).
type histDef struct {
	name   string
	bounds []int64
}

// Registry holds the metric definitions of one run plus the per-worker
// shards recording into them. Registration is mutex-protected and happens
// once at startup; recording happens on lock-free atomic shard cells; the
// merge at Snapshot is deterministic (int64 sums in registration order), so
// an N-worker snapshot is bit-identical to a 1-worker snapshot of the same
// increments.
type Registry struct {
	mu       sync.Mutex
	counters []string
	gauges   []string
	hists    []histDef
	help     map[string]string
	shards   []*Shard
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// SetHelp attaches Prometheus HELP text to a metric name. The text is
// stored verbatim; WritePrometheus escapes it per the text exposition
// format. Callable any time (help is presentation, not a recording cell).
func (r *Registry) SetHelp(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.help == nil {
		r.help = make(map[string]string)
	}
	r.help[name] = text
}

// Counter registers a counter and returns its ID. All metrics must be
// registered before the first shard is created.
func (r *Registry) Counter(name string) CounterID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkUnsharded(name)
	r.counters = append(r.counters, name)
	return CounterID(len(r.counters) - 1)
}

// Gauge registers a gauge. Gauges merge additively across shards (each
// worker sets its own cell; the snapshot reports the sum), which fits the
// fleet-style gauges the MC stack needs (workers, in-flight samples).
func (r *Registry) Gauge(name string) GaugeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkUnsharded(name)
	r.gauges = append(r.gauges, name)
	return GaugeID(len(r.gauges) - 1)
}

// Histogram registers a fixed-bucket histogram with the given ascending
// bucket upper bounds; values above the last bound land in an implicit
// overflow bucket. The bounds slice is copied.
func (r *Registry) Histogram(name string, bounds []int64) HistID {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkUnsharded(name)
	r.hists = append(r.hists, histDef{name: name, bounds: append([]int64(nil), bounds...)})
	return HistID(len(r.hists) - 1)
}

func (r *Registry) checkUnsharded(name string) {
	if len(r.shards) > 0 {
		panic(fmt.Sprintf("obs: metric %q registered after the first shard", name))
	}
}

// NewShard creates and registers a new per-worker shard sized for the
// current metric set. Safe to call concurrently (worker-pool startup).
func (r *Registry) NewShard() *Shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Shard{
		counters: make([]atomic.Int64, len(r.counters)),
		gauges:   make([]atomic.Int64, len(r.gauges)),
		hists:    make([]histShard, len(r.hists)),
	}
	for i := range r.hists {
		s.hists[i].bounds = r.hists[i].bounds
		s.hists[i].counts = make([]atomic.Int64, len(r.hists[i].bounds)+1)
		s.hists[i].min.Store(math.MaxInt64)
		s.hists[i].max.Store(math.MinInt64)
	}
	r.shards = append(r.shards, s)
	return s
}

// Shard is one worker's private set of metric cells. All operations are
// atomic adds/stores on preallocated cells: no locks, no allocation, safe
// for the owning worker to write while a reporter snapshots concurrently.
// A nil *Shard is a no-op recorder.
type Shard struct {
	counters []atomic.Int64
	gauges   []atomic.Int64
	hists    []histShard
}

type histShard struct {
	bounds []int64 // shared, read-only
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64 // MaxInt64 until the first observation
	max    atomic.Int64 // MinInt64 until the first observation
}

// Add increments a counter.
func (s *Shard) Add(id CounterID, delta int64) {
	if s == nil {
		return
	}
	s.counters[id].Add(delta)
}

// Set stores a gauge value.
func (s *Shard) Set(id GaugeID, v int64) {
	if s == nil {
		return
	}
	s.gauges[id].Store(v)
}

// Observe records one histogram observation.
func (s *Shard) Observe(id HistID, v int64) {
	if s == nil {
		return
	}
	h := &s.hists[id]
	// Extremes first, so a live snapshot that counts v also bounds it.
	// Shards are worker-private, so the CAS loops do not contend.
	for m := h.min.Load(); v < m && !h.min.CompareAndSwap(m, v); m = h.min.Load() {
	}
	for m := h.max.Load(); v > m && !h.max.CompareAndSwap(m, v); m = h.max.Load() {
	}
	// Manual binary search: sort.Search's closure can escape under some
	// build modes and this must stay allocation-free.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// CounterSnap is one merged counter value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one merged (additively) gauge value.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSnap is one merged histogram: bucket counts (the last entry is the
// overflow bucket), total count/sum, the observed extremes (0 when empty)
// and precomputed quantile estimates.
type HistSnap struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts by
// linear interpolation inside the containing bucket. Observations in the
// overflow bucket report the last finite bound. The estimate is clamped to
// the observed [Min, Max], so a histogram of identical values reports that
// value rather than a point inside its bucket.
func (h HistSnap) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	return math.Min(math.Max(h.bucketQuantile(q), float64(h.Min)), float64(h.Max))
}

// bucketQuantile is Quantile before clamping to the observed range.
func (h HistSnap) bucketQuantile(q float64) float64 {
	target := q * float64(h.Count)
	var cum int64
	var lower int64
	for i, c := range h.Counts {
		if c > 0 && float64(cum+c) >= target {
			if i >= len(h.Bounds) {
				return float64(lower) // overflow bucket: no upper bound
			}
			upper := h.Bounds[i]
			frac := (target - float64(cum)) / float64(c)
			return float64(lower) + frac*float64(upper-lower)
		}
		cum += c
		if i < len(h.Bounds) {
			lower = h.Bounds[i]
		}
	}
	return float64(lower)
}

// Mean returns the mean observed value (0 for an empty histogram).
func (h HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a merged, immutable view of a registry, JSON-marshalable as
// the -metrics-out document.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters,omitempty"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
	// Help maps metric names to their HELP text (only names that have any).
	Help map[string]string `json:"help,omitempty"`
}

// Snapshot merges every shard in registration order. Counters and
// histogram cells are int64 sums, so the result is independent of how the
// increments were distributed across shards (the merge-determinism
// contract); it is safe to call while workers are still recording (live
// /metrics endpoint), in which case it is a point-in-time lower bound.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var snap Snapshot
	for i, name := range r.counters {
		var v int64
		for _, s := range r.shards {
			v += s.counters[i].Load()
		}
		snap.Counters = append(snap.Counters, CounterSnap{Name: name, Value: v})
	}
	for i, name := range r.gauges {
		var v int64
		for _, s := range r.shards {
			v += s.gauges[i].Load()
		}
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: name, Value: v})
	}
	for i, def := range r.hists {
		hs := HistSnap{
			Name:   def.name,
			Bounds: def.bounds,
			Counts: make([]int64, len(def.bounds)+1),
		}
		hs.Min, hs.Max = math.MaxInt64, math.MinInt64
		for _, s := range r.shards {
			h := &s.hists[i]
			for b := range hs.Counts {
				hs.Counts[b] += h.counts[b].Load()
			}
			hs.Count += h.count.Load()
			hs.Sum += h.sum.Load()
			hs.Min = min(hs.Min, h.min.Load())
			hs.Max = max(hs.Max, h.max.Load())
		}
		if hs.Count == 0 {
			hs.Min, hs.Max = 0, 0
		}
		hs.P50, hs.P90, hs.P99 = hs.Quantile(0.50), hs.Quantile(0.90), hs.Quantile(0.99)
		snap.Histograms = append(snap.Histograms, hs)
	}
	if len(r.help) > 0 {
		snap.Help = make(map[string]string, len(r.help))
		for k, v := range r.help {
			snap.Help[k] = v
		}
	}
	return snap
}

// Find returns the named histogram snapshot, or a zero HistSnap.
func (s Snapshot) Find(name string) HistSnap {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h
		}
	}
	return HistSnap{}
}

// FindCounter returns the named counter's value (0 when absent).
func (s Snapshot) FindCounter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// MarshalIndentJSON renders the snapshot as the -metrics-out JSON document.
func (s Snapshot) MarshalIndentJSON() ([]byte, error) {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// promName sanitizes a metric name into the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text per the Prometheus text exposition format:
// backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// escapeLabel escapes a label value: backslash, newline, and double quote.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\n\"") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (counters, gauges, and cumulative-bucket histograms). The output
// is byte-deterministic for a given snapshot: each metric family is emitted
// in sorted-name order regardless of registration order, and HELP text and
// label values are escaped per the exposition format (so a scrape can never
// be corrupted by a newline, quote, or backslash in a help string).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	help := func(name, n string) error {
		if s.Help == nil {
			return nil
		}
		txt, ok := s.Help[name]
		if !ok || txt == "" {
			return nil
		}
		_, err := fmt.Fprintf(w, "# HELP %s %s\n", n, escapeHelp(txt))
		return err
	}
	counters := append([]CounterSnap(nil), s.Counters...)
	sort.Slice(counters, func(i, j int) bool { return counters[i].Name < counters[j].Name })
	for _, c := range counters {
		n := promName(c.Name)
		if err := help(c.Name, n); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value); err != nil {
			return err
		}
	}
	gauges := append([]GaugeSnap(nil), s.Gauges...)
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].Name < gauges[j].Name })
	for _, g := range gauges {
		n := promName(g.Name)
		if err := help(g.Name, n); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, g.Value); err != nil {
			return err
		}
	}
	hists := append([]HistSnap(nil), s.Histograms...)
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	for _, h := range hists {
		n := promName(h.Name)
		if err := help(h.Name, n); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%d", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", n, escapeLabel(le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry as a live Prometheus text endpoint
// (conventionally mounted at /metrics next to the pprof handlers).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Snapshot().WritePrometheus(w)
	})
}

// ExpBounds builds n geometrically spaced integer bucket bounds starting at
// lo (>= 1) with the given factor (> 1), deduplicated and ascending — the
// standard shape for nanosecond latency and iteration-count histograms.
func ExpBounds(lo int64, factor float64, n int) []int64 {
	if lo < 1 || factor <= 1 || n < 1 {
		panic("obs: ExpBounds wants lo >= 1, factor > 1, n >= 1")
	}
	out := make([]int64, 0, n)
	x := float64(lo)
	for i := 0; i < n; i++ {
		v := int64(x + 0.5)
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
		x *= factor
	}
	return out
}
