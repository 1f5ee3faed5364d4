package circuits

import (
	"context"
	"fmt"

	"vstat/internal/device"
	"vstat/internal/lifecycle"
	"vstat/internal/obs"
	"vstat/internal/spice"
)

// This file is the pooled Monte Carlo layer: each bench is built once per
// worker and re-stamped per sample. A Recorder remembers the geometry of
// every factory draw made while building the template; Restat replays those
// draws against a fresh (statistical) factory and installs the new device
// cards in place via Circuit.SetMOSDevice, so the per-sample cost is six to
// a dozen parameter-card draws instead of a netlist rebuild. Replayed draws
// happen in the original build order, which keeps the per-sample RNG stream
// — and therefore every sampled metric — bit-identical to the unpooled
// path.

// Stamp records the polarity and drawn geometry of one factory call.
type Stamp struct {
	Kind device.Kind
	W, L float64
}

// Recorder captures the sequence of factory draws made while building a
// circuit, in call order.
type Recorder struct {
	Stamps []Stamp
}

// Wrap returns a factory that delegates to f while recording each draw.
func (r *Recorder) Wrap(f Factory) Factory {
	return func(k device.Kind, w, l float64) device.Device {
		r.Stamps = append(r.Stamps, Stamp{Kind: k, W: w, L: l})
		return f(k, w, l)
	}
}

// Restamp redraws every recorded device from f in record order and installs
// the fresh cards into c. It requires the i-th recorded draw to correspond
// to the i-th AddMOS call, which holds for every builder in this package
// that passes the factory result directly to AddMOS (inverter, NAND/NOR,
// DFF, ring). The SRAM cell draws in a different order and has its own
// bespoke pooled type.
func (r *Recorder) Restamp(c *spice.Circuit, f Factory) {
	if len(r.Stamps) != c.NumMOS() {
		panic(fmt.Sprintf("circuits: recorder has %d stamps for %d devices", len(r.Stamps), c.NumMOS()))
	}
	for i, st := range r.Stamps {
		c.SetMOSDevice(i, f(st.Kind, st.W, st.L))
	}
}

// PooledGate is a reusable delay testbench: the netlist, node map, solver
// scratch, and waveform storage persist across samples; only the device
// parameter cards change.
type PooledGate struct {
	*GateBench
	rec Recorder

	// Res is the reusable transient result, refilled by Transient.
	Res spice.TranResult

	// Fast enables the carried-Jacobian/warm-start transient path; leave
	// unset for bit-identical waveforms with the unpooled bench.
	Fast bool

	warm []float64 // nominal DC operating point (fast-mode Newton seed)
}

func newPooledGate(b *GateBench, rec Recorder, fast bool) (*PooledGate, error) {
	p := &PooledGate{GateBench: b, rec: rec, Fast: fast}
	if fast {
		// Solve the nominal operating point once per template; every
		// sample's DC Newton starts here. Perturbations are small, so a
		// few chord iterations suffice.
		op, err := b.Ckt.OP()
		if err != nil {
			return nil, fmt.Errorf("circuits: pooled bench nominal OP: %w", err)
		}
		p.warm = append([]float64(nil), op.Raw()...)
	}
	return p, nil
}

// NewPooledInverterFO builds a fanout-of-k inverter bench template with
// nominal devices. fast selects the carried-Jacobian/warm-start solver path.
func NewPooledInverterFO(k int, vdd float64, sz Sizing, nominal Factory, fast bool) (*PooledGate, error) {
	var rec Recorder
	b := InverterFO(k, vdd, sz, rec.Wrap(nominal))
	return newPooledGate(b, rec, fast)
}

// NewPooledNAND2FO builds a fanout-of-k NAND2 bench template with nominal
// devices.
func NewPooledNAND2FO(k int, vdd float64, sz Sizing, nominal Factory, fast bool) (*PooledGate, error) {
	var rec Recorder
	b := NAND2FO(k, vdd, sz, rec.Wrap(nominal))
	return newPooledGate(b, rec, fast)
}

// Restat re-stamps every transistor from f (statistical factories draw
// fresh mismatch per device) without touching topology or scratch.
func (p *PooledGate) Restat(f Factory) { p.rec.Restamp(p.Ckt, f) }

// SetObs attaches an observability scope to the template circuit (nil-safe;
// see spice.Circuit.SetObs).
func (p *PooledGate) SetObs(sc *obs.Scope) { p.Ckt.SetObs(sc) }

// AttachTracer implements montecarlo.TraceAttacher: phase spans and rescue
// rungs of the template circuit flow to the worker's sample tracer.
func (p *PooledGate) AttachTracer(t obs.Tracer) { p.Ckt.AttachTracer(t) }

// RescueCounts implements montecarlo.RescueReporter: the nonzero
// rescue-ladder counters accumulated by this worker's template circuit.
func (p *PooledGate) RescueCounts() map[string]int64 {
	return p.Ckt.Stats().RescueCounts()
}

// SolverWork implements montecarlo.WorkReporter: cumulative Newton
// iterations and rescue stages, the flight recorder's ranking inputs.
func (p *PooledGate) SolverWork() (iters, rescues int64) {
	return p.Ckt.Stats().Work()
}

// ArmSample implements montecarlo.SampleArmer: the template circuit
// enforces ctx and the per-sample budget at Newton iteration boundaries.
func (p *PooledGate) ArmSample(ctx context.Context, b lifecycle.Budget) {
	p.Ckt.ArmSample(ctx, b)
}

// Transient runs the bench transient into the reusable result.
func (p *PooledGate) Transient(stop, step float64) (*spice.TranResult, error) {
	opts := spice.TranOpts{Stop: stop, Step: step}
	if p.Fast {
		opts.Fast = true
		opts.Guess = p.warm
	}
	if err := p.Ckt.TransientInto(opts, &p.Res); err != nil {
		return nil, err
	}
	return &p.Res, nil
}

// PooledDFF is a reusable flip-flop bench for setup/hold Monte Carlo.
type PooledDFF struct {
	*DFF
	rec Recorder

	// Res is the reusable transient result for the bisection trials.
	Res spice.TranResult

	// Fast selects the carried-Jacobian transient path (setup/hold trials
	// start from explicit initial conditions, so there is no DC warm
	// start).
	Fast bool
}

// NewPooledDFF builds the register template with nominal devices.
func NewPooledDFF(vdd float64, sz DFFSizing, nominal Factory, fast bool) *PooledDFF {
	p := &PooledDFF{Fast: fast}
	p.DFF = NewDFF(vdd, sz, p.rec.Wrap(nominal))
	return p
}

// Restat re-stamps every transistor from f.
func (p *PooledDFF) Restat(f Factory) { p.rec.Restamp(p.Ckt, f) }

// SetObs attaches an observability scope to the template circuit.
func (p *PooledDFF) SetObs(sc *obs.Scope) { p.Ckt.SetObs(sc) }

// AttachTracer implements montecarlo.TraceAttacher.
func (p *PooledDFF) AttachTracer(t obs.Tracer) { p.Ckt.AttachTracer(t) }

// RescueCounts implements montecarlo.RescueReporter.
func (p *PooledDFF) RescueCounts() map[string]int64 {
	return p.Ckt.Stats().RescueCounts()
}

// SolverWork implements montecarlo.WorkReporter.
func (p *PooledDFF) SolverWork() (iters, rescues int64) {
	return p.Ckt.Stats().Work()
}

// ArmSample implements montecarlo.SampleArmer.
func (p *PooledDFF) ArmSample(ctx context.Context, b lifecycle.Budget) {
	p.Ckt.ArmSample(ctx, b)
}

// PooledRing is a reusable ring-oscillator bench.
type PooledRing struct {
	*RingOscillator
	rec  Recorder
	Res  spice.TranResult
	Fast bool
}

// NewPooledRing builds an n-stage ring template with nominal devices.
func NewPooledRing(n int, vdd float64, sz Sizing, nominal Factory, fast bool) *PooledRing {
	p := &PooledRing{Fast: fast}
	p.RingOscillator = NewRingOscillator(n, vdd, sz, p.rec.Wrap(nominal))
	return p
}

// Restat re-stamps every transistor from f.
func (p *PooledRing) Restat(f Factory) { p.rec.Restamp(p.Ckt, f) }

// SetObs attaches an observability scope to the template circuit.
func (p *PooledRing) SetObs(sc *obs.Scope) { p.Ckt.SetObs(sc) }

// AttachTracer implements montecarlo.TraceAttacher.
func (p *PooledRing) AttachTracer(t obs.Tracer) { p.Ckt.AttachTracer(t) }

// RescueCounts implements montecarlo.RescueReporter.
func (p *PooledRing) RescueCounts() map[string]int64 {
	return p.Ckt.Stats().RescueCounts()
}

// SolverWork implements montecarlo.WorkReporter.
func (p *PooledRing) SolverWork() (iters, rescues int64) {
	return p.Ckt.Stats().Work()
}

// ArmSample implements montecarlo.SampleArmer.
func (p *PooledRing) ArmSample(ctx context.Context, b lifecycle.Budget) {
	p.Ckt.ArmSample(ctx, b)
}

// Frequency measures the oscillation frequency like
// RingOscillator.Frequency, but reuses the pooled transient storage.
func (p *PooledRing) Frequency(stop, step float64) (float64, error) {
	opts := spice.TranOpts{Stop: stop, Step: step, UIC: true, IC: p.KickIC(), Fast: p.Fast}
	if err := p.Ckt.TransientInto(opts, &p.Res); err != nil {
		return 0, err
	}
	return p.frequencyFrom(&p.Res)
}

// PooledSRAM holds prebuilt left/right butterfly half-circuits sharing the
// six devices of one template cell. The SRAM cell draws its devices in
// struct order (PDL, PDR, PUL, PUR, PGL, PGR) while the netlist stamps them
// in a different order and into two circuits at once, so the re-stamp
// mapping is explicit rather than recorded.
type PooledSRAM struct {
	Cell *SRAMCell
	Vdd  float64

	// Fast enables the carried-Jacobian DC path between sweep points.
	Fast bool

	cL, cR         *spice.Circuit
	wlL, wlR       int            // VWL source indices (read/hold switch)
	wlRead         spice.Waveform // the READ word-line level, boxed once
	forceL, forceR int
	obsL, obsR     int

	// In is the shared sweep grid; OutL/OutR are the reusable observed
	// curves. Butterfly's returned curves alias this storage.
	In, OutL, OutR []float64
}

// NewPooledSRAM builds the two half-circuits once for an n-point sweep.
func NewPooledSRAM(vdd float64, sz SRAMSizing, nominal Factory, n int, fast bool) *PooledSRAM {
	cell := NewSRAMCell(vdd, sz, nominal)
	p := &PooledSRAM{Cell: cell, Vdd: vdd, Fast: fast, wlRead: spice.DC(vdd)}
	p.cL, p.forceL, p.obsL = cell.butterflyCircuit("L", false)
	p.cR, p.forceR, p.obsR = cell.butterflyCircuit("R", false)
	p.wlL = p.cL.VSourceIndex("VWL")
	p.wlR = p.cR.VSourceIndex("VWL")
	p.In = make([]float64, n)
	for i := range p.In {
		p.In[i] = vdd * float64(i) / float64(n-1)
	}
	p.OutL = make([]float64, n)
	p.OutR = make([]float64, n)
	return p
}

// Restat redraws the six cell devices from f in NewSRAMCell order (keeping
// the statistical RNG stream identical to an unpooled NewSRAMCell call) and
// installs them into both half-circuits.
func (p *PooledSRAM) Restat(f Factory) {
	c := p.Cell
	c.PDL = f(device.NMOS, c.Sz.WPD, c.Sz.L)
	c.PDR = f(device.NMOS, c.Sz.WPD, c.Sz.L)
	c.PUL = f(device.PMOS, c.Sz.WPU, c.Sz.L)
	c.PUR = f(device.PMOS, c.Sz.WPU, c.Sz.L)
	c.PGL = f(device.NMOS, c.Sz.WPG, c.Sz.L)
	c.PGR = f(device.NMOS, c.Sz.WPG, c.Sz.L)
	for _, ckt := range [2]*spice.Circuit{p.cL, p.cR} {
		// butterflyCircuit AddMOS order: PUL, PDL, PUR, PDR, PGL, PGR.
		ckt.SetMOSDevice(0, c.PUL)
		ckt.SetMOSDevice(1, c.PDL)
		ckt.SetMOSDevice(2, c.PUR)
		ckt.SetMOSDevice(3, c.PDR)
		ckt.SetMOSDevice(4, c.PGL)
		ckt.SetMOSDevice(5, c.PGR)
	}
}

// SetObs attaches an observability scope to both half-circuits: the sweeps
// run sequentially on one worker goroutine, so sharing a scope is safe and
// keeps the sample's phase accounting in one place.
func (p *PooledSRAM) SetObs(sc *obs.Scope) {
	p.cL.SetObs(sc)
	p.cR.SetObs(sc)
}

// SetObsSample tags both half-circuits' traces with the MC sample index.
func (p *PooledSRAM) SetObsSample(idx int) {
	p.cL.SetObsSample(idx)
	p.cR.SetObsSample(idx)
}

// Stats returns the summed solver counters of both half-circuits.
func (p *PooledSRAM) Stats() spice.SolverStats {
	return p.cL.Stats().Add(p.cR.Stats())
}

// AttachTracer implements montecarlo.TraceAttacher on both half-circuits
// (they share a scope, so the tracer is simply set twice).
func (p *PooledSRAM) AttachTracer(t obs.Tracer) {
	p.cL.AttachTracer(t)
	p.cR.AttachTracer(t)
}

// RescueCounts implements montecarlo.RescueReporter over both half-circuits.
func (p *PooledSRAM) RescueCounts() map[string]int64 {
	return p.Stats().RescueCounts()
}

// SolverWork implements montecarlo.WorkReporter over both half-circuits.
func (p *PooledSRAM) SolverWork() (iters, rescues int64) {
	return p.Stats().Work()
}

// ResetStats zeroes the solver counters of both half-circuits.
func (p *PooledSRAM) ResetStats() {
	p.cL.ResetStats()
	p.cR.ResetStats()
}

// ArmSample implements montecarlo.SampleArmer on both half-circuits. Each
// half gets its own wall deadline (the halves solve sequentially, so a
// sample may spend up to 2·Wall at iteration boundaries before tripping);
// the montecarlo watchdog still enforces the sample-level Wall+grace bound.
func (p *PooledSRAM) ArmSample(ctx context.Context, b lifecycle.Budget) {
	p.cL.ArmSample(ctx, b)
	p.cR.ArmSample(ctx, b)
}

// SetLinearCore selects the Jacobian factorization backend of both
// half-circuits (see spice.LinearCore).
func (p *PooledSRAM) SetLinearCore(core spice.LinearCore) {
	p.cL.LinearCore = core
	p.cR.LinearCore = core
}

// MatrixInfo reports the MNA matrix shape of one half-circuit (the two are
// structurally identical mirrors); see spice.Circuit.MatrixInfo.
func (p *PooledSRAM) MatrixInfo() (n, nnz int, sparse bool) {
	return p.cL.MatrixInfo()
}

// Butterfly sweeps both prebuilt half-circuits, switching the word line for
// READ or HOLD, and returns the two transfer curves. The curves alias the
// pooled buffers and are only valid until the next Butterfly call.
func (p *PooledSRAM) Butterfly(read bool) (left, right ButterflyCurve, err error) {
	var wl spice.Waveform = spice.DC(0)
	if read {
		wl = p.wlRead
	}
	p.cL.SetVSource(p.wlL, wl)
	p.cR.SetVSource(p.wlR, wl)
	if err = p.cL.DCSweepObserve(p.forceL, p.In, p.obsL, p.OutL, p.Fast); err != nil {
		return
	}
	if err = p.cR.DCSweepObserve(p.forceR, p.In, p.obsR, p.OutR, p.Fast); err != nil {
		return
	}
	left = ButterflyCurve{In: p.In, Out: p.OutL}
	right = ButterflyCurve{In: p.In, Out: p.OutR}
	return
}
