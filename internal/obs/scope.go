package obs

import "time"

// Phase identifies one of the fixed Monte Carlo sample phases the Scope
// attributes wall time to. The set matches the pooled MC pipeline: draw
// the sample's parameter vector, re-stamp the pooled circuit, assemble the
// Jacobian, factor it, run the Newton/transient solve with its triangular
// solves carved out, and extract the measurement; the device evaluations
// an assembly makes are carved out of assembly (or, on a residual-only
// pass, out of the solve). Splitting device evaluation from assembly,
// assembly from factorization and the triangular solves from the Newton
// loop separates device-model cost from linear algebra, so each shows in
// BENCH_mc.json on its own.
type Phase int32

const (
	PhaseDraw       Phase = iota // sample-draw: RNG + parameter vector
	PhaseRestamp                 // re-stamp: pooled circuit Restat
	PhaseAssemble                // assemble-J: residual and Jacobian stamping
	PhaseFactor                  // lu-factor: sparse LU refactor (and re-analysis on a re-pivot)
	PhaseTriSolve                // tri-solve: forward/back substitution per Newton iter
	PhaseSolve                   // newton-solve: the solver proper (minus the above)
	PhaseMeasure                 // measure: waveform/metric extraction
	PhaseDeviceEval              // device-eval: the MOSFET evaluations of an assembly
	NumPhases
)

var phaseNames = [NumPhases]string{
	"sample-draw",
	"re-stamp",
	"assemble-J",
	"lu-factor",
	"tri-solve",
	"newton-solve",
	"measure",
	"device-eval",
}

// String returns the phase's metric-name segment.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseMetrics bundles the registry IDs for per-phase accounting: one
// nanosecond histogram (per-sample phase time) and one total-ns counter per
// phase. Register once per run and share across workers.
type PhaseMetrics struct {
	Hist  [NumPhases]HistID
	Total [NumPhases]CounterID
}

// PhaseBounds is the default bucket layout for per-sample phase times:
// geometric from 256 ns to ~2.6 s.
func PhaseBounds() []int64 { return ExpBounds(256, 1.5, 41) }

// NewPhaseMetrics registers the per-phase histograms and counters under
// "mc_phase_<name>_ns".
func NewPhaseMetrics(r *Registry) *PhaseMetrics {
	pm := &PhaseMetrics{}
	bounds := PhaseBounds()
	for p := Phase(0); p < NumPhases; p++ {
		pm.Hist[p] = r.Histogram("mc_phase_"+p.String()+"_ns", bounds)
		pm.Total[p] = r.Counter("mc_phase_" + p.String() + "_ns_total")
	}
	return pm
}

// frame is one open span on the Scope's phase stack.
type frame struct {
	phase Phase
	start time.Time
}

// Tracer receives the Scope's phase span boundaries — the bridge between
// the self-time accounting here and the distributed-tracing span capture
// in internal/obs/trace (which implements this interface without obs
// having to import it). Timestamps are unix nanoseconds, forwarded from
// the clock reads Enter/Exit already make, so attaching a tracer adds no
// extra time.Now calls to the hot path.
type Tracer interface {
	BeginSpan(name string, nowNs int64)
	EndSpan(nowNs int64)
}

// Scope is a per-worker phase-timing handle: a fixed-size stack of open
// spans plus per-phase self-time accumulators, flushed into a Shard at
// sample end. Enter on a nested phase pauses the parent frame, so the five
// phases are disjoint and their per-sample times sum to the instrumented
// wall time (the acceptance criterion's within-10%-of-wall contract).
//
// A Scope belongs to one worker goroutine; it is not safe for concurrent
// use. A nil *Scope is a no-op on every method, and NewScope returns nil
// while the package gate is off, so instrumentation trees collapse to a
// pointer check when observability is disabled.
type Scope struct {
	shard  *Shard
	pm     *PhaseMetrics
	sink   *EventSink
	tracer Tracer

	acc   [NumPhases]int64 // self-time this sample, ns
	stack [16]frame
	depth int
}

// NewScope builds a phase-timing scope recording into the given shard, or
// nil when observability is disabled (or any input is nil).
func NewScope(shard *Shard, pm *PhaseMetrics) *Scope {
	if !Enabled() || shard == nil || pm == nil {
		return nil
	}
	return &Scope{shard: shard, pm: pm}
}

// SetEvents attaches a sampled event sink for solver traces.
func (s *Scope) SetEvents(sink *EventSink) {
	if s == nil {
		return
	}
	s.sink = sink
}

// SetTracer attaches (or, with nil, detaches) a span tracer. With no
// tracer the only added cost on Enter/Exit is one nil pointer check, and
// the hot path stays allocation-free (pinned by internal/spice tests).
func (s *Scope) SetTracer(t Tracer) {
	if s == nil {
		return
	}
	s.tracer = t
}

// Enter opens a span for the given phase, pausing the enclosing span so
// only self-time accrues to each phase. Must be matched by Exit.
func (s *Scope) Enter(p Phase) {
	if s == nil {
		return
	}
	now := time.Now()
	if s.depth > 0 && s.depth <= len(s.stack) {
		f := &s.stack[s.depth-1]
		s.acc[f.phase] += now.Sub(f.start).Nanoseconds()
	}
	if s.depth < len(s.stack) {
		s.stack[s.depth] = frame{phase: p, start: now}
	}
	s.depth++
	if s.tracer != nil {
		s.tracer.BeginSpan(p.String(), now.UnixNano())
	}
}

// Exit closes the innermost span and resumes the parent frame.
func (s *Scope) Exit() {
	if s == nil || s.depth == 0 {
		return
	}
	now := time.Now()
	s.depth--
	if s.depth < len(s.stack) {
		f := &s.stack[s.depth]
		s.acc[f.phase] += now.Sub(f.start).Nanoseconds()
	}
	if s.depth > 0 && s.depth <= len(s.stack) {
		s.stack[s.depth-1].start = now
	}
	if s.tracer != nil {
		s.tracer.EndSpan(now.UnixNano())
	}
}

// SpanBegin opens an ad-hoc trace span (a rescue-ladder rung, say) on the
// attached tracer without touching the phase self-time stack. A no-op —
// one nil check — without a tracer; must be paired with SpanEnd.
func (s *Scope) SpanBegin(name string) {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.BeginSpan(name, time.Now().UnixNano())
}

// SpanEnd closes the innermost SpanBegin span.
func (s *Scope) SpanEnd() {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.EndSpan(time.Now().UnixNano())
}

// EndSample flushes the per-sample phase accumulators into the shard's
// histograms and totals, and resets them for the next sample. Phases with
// zero accumulated time are still observed (a zero bucket entry) so sample
// counts line up across phases.
func (s *Scope) EndSample() {
	if s == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		ns := s.acc[p]
		s.shard.Observe(s.pm.Hist[p], ns)
		s.shard.Add(s.pm.Total[p], ns)
		s.acc[p] = 0
	}
	s.depth = 0
}

// Shard exposes the underlying shard for ad-hoc counters/histograms tied to
// the same worker (nil-safe: returns nil on a nil scope).
func (s *Scope) Shard() *Shard {
	if s == nil {
		return nil
	}
	return s.shard
}

// Observe records into a histogram on this scope's shard.
func (s *Scope) Observe(id HistID, v int64) {
	if s == nil {
		return
	}
	s.shard.Observe(id, v)
}

// Add increments a counter on this scope's shard.
func (s *Scope) Add(id CounterID, delta int64) {
	if s == nil {
		return
	}
	s.shard.Add(id, delta)
}

// Set stores a gauge on this scope's shard.
func (s *Scope) Set(id GaugeID, v int64) {
	if s == nil {
		return
	}
	s.shard.Set(id, v)
}
