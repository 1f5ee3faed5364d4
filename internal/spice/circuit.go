// Package spice is a small SPICE-class circuit simulator built for the
// benchmark circuits of the paper: modified nodal analysis with Newton
// iteration, DC operating point with gmin and source stepping, DC sweeps
// (SRAM butterfly curves), and charge-conserving transient analysis
// (backward Euler or trapezoidal) for gate-delay and setup/hold Monte
// Carlo. MOSFETs are any implementation of device.Device, so the Virtual
// Source model and the golden BSIM-like model run in the identical engine —
// exactly the apples-to-apples setting the paper's validation needs.
package spice

import (
	"context"
	"fmt"
	"time"

	"vstat/internal/device"
	"vstat/internal/lifecycle"
	"vstat/internal/linalg"
	"vstat/internal/obs"
)

// Gnd is the ground node index. Node indices returned by Circuit.Node are
// non-negative; ground is the fixed reference.
const Gnd = -1

// Waveform is a time-dependent source value. DC analyses evaluate it at t=0
// unless a source override is active.
type Waveform interface {
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// Pulse is a SPICE-style pulse source.
type Pulse struct {
	V0, V1                   float64 // initial and pulsed value, V
	Delay, Rise, Fall, Width float64 // s
	Period                   float64 // s; 0 disables repetition
}

// At evaluates the pulse at time t.
func (p Pulse) At(t float64) float64 {
	t -= p.Delay
	if t < 0 {
		return p.V0
	}
	if p.Period > 0 {
		for t >= p.Period {
			t -= p.Period
		}
	}
	switch {
	case t < p.Rise:
		return p.V0 + (p.V1-p.V0)*t/p.Rise
	case t < p.Rise+p.Width:
		return p.V1
	case t < p.Rise+p.Width+p.Fall:
		return p.V1 + (p.V0-p.V1)*(t-p.Rise-p.Width)/p.Fall
	default:
		return p.V0
	}
}

// PWL is a piecewise-linear waveform through (T[i], V[i]) points, constant
// before the first and after the last point.
type PWL struct {
	T, V []float64
}

// At evaluates the waveform at time t.
func (p PWL) At(t float64) float64 {
	n := len(p.T)
	if n == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	for i := 1; i < n; i++ {
		if t <= p.T[i] {
			f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
			return p.V[i-1] + f*(p.V[i]-p.V[i-1])
		}
	}
	return p.V[n-1]
}

// Element kinds stored by the circuit.
type resistor struct {
	name string
	a, b int
	g    float64 // conductance, S
}

type capacitor struct {
	name string
	a, b int
	c    float64 // F
}

type vsource struct {
	name   string
	p, n   int
	branch int // index into the branch-current unknowns
	wave   Waveform
}

type isource struct {
	name string
	p, n int
	wave Waveform // current from p through the source to n, A
}

type mosfet struct {
	name       string
	d, g, s, b int
	dev        device.Device
	lanes      device.LaneDerivs // dev's grouped path, or nil
}

// Circuit is a netlist under construction plus analysis entry points.
// Node indices are dense integers from Node/NamedNode; Gnd is ground.
type Circuit struct {
	nodeNames []string       // index -> name
	nodeIdx   map[string]int // name -> index

	rs  []resistor
	cs  []capacitor
	vs  []vsource
	is  []isource
	mos []mosfet

	// Gmin is the conductance tied from every node to ground during all
	// analyses (defaults to 1e-12 S); it keeps matrices nonsingular with
	// floating gates.
	Gmin float64

	// MaxNewton bounds Newton iterations per solve (default 150).
	MaxNewton int

	// Newton scratch buffers (see newton); sized on first solve.
	nwF, nwScratch, nwBack []float64

	// Carried Jacobian factorization (see newton): luValid/luKey gate the
	// reuse of spLU's factors across solves.
	luValid bool
	luKey   luKey

	// The linear core (see sparsecore.go): the CSC Jacobian with its
	// precomputed stamp→slot lists, and the symbolic-once factorization
	// reused across all samples and timesteps of this topology.
	sp      *linalg.Sparse
	spLU    *linalg.SparseLU
	spSlots stampSlots
	spReady bool

	// spCurrent reports that spLU holds the factorization of the CSC
	// values stampSparse wrote under spKey from the MOSFETs' bypass bundles
	// as they are now. A written bundle, a new stamp map or a failed
	// factorization clears it; newton reuses the factorization while it
	// holds and the key matches.
	spCurrent bool
	spKey     jacKey

	// evCache holds per-MOSFET evaluations from the last assembly (in a
	// transient, the pre-final-update Newton state), which its residual
	// pass sums and updateTranHistory consumes, so a converged step never
	// re-evaluates the models.
	evCache []device.Eval

	// bypass holds each MOSFET's last full evaluation (see bypass.go).
	bypass []bypassEntry

	// The evaluation step's scratch (see evalPending): the MOSFETs an
	// assembly evaluates, and one grouped call's lanes.
	pend  []pending
	lanes [device.LaneWidth]device.Lane

	// Transient step scratch (see TransientInto) and reusable integrator
	// history, so pooled Monte Carlo samples allocate nothing per transient.
	trX, trPrev, trPrev2, trPred []float64
	trState                      tranState

	// DC sweep scratch and level (see sweep).
	swX, swPrev, swPrev2, swGuess []float64
	swLevel                       level

	// Pseudo-transient continuation scratch (see pseudoTransientInto).
	ptRef, ptSave []float64

	// Charge-history snapshot scratch (see saveTranHistory), so rescue
	// retries never allocate on the transient hot path.
	hsQMos, hsIMos [][4]float64
	hsQCap, hsICap []float64

	stats SolverStats

	// gen counts changes to what a transient step computes beyond its
	// starting state and source values: every new node, element or device
	// card, and every sparse pivot-order analysis. A TranRecord is keyed to
	// it, so any such change invalidates the record.
	gen uint64

	// Run-lifecycle state (see ArmSample in lifecycle.go): the armed
	// context's done channel, the per-sample wall deadline, the iteration
	// cap, and the running iteration count. All zero when disarmed, in
	// which case checkLifecycle is two predictable branches.
	lcDone     <-chan struct{}
	lcCtx      context.Context
	lcDeadline time.Time
	lcBudget   lifecycle.Budget
	lcIters    int64

	// Observability handles (see SetObs/SetObsSample): nil scope means
	// every instrumentation site is a single pointer check.
	obsScope  *obs.Scope
	obsSample int
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{
		nodeIdx:   map[string]int{"0": Gnd, "gnd": Gnd, "GND": Gnd},
		Gmin:      1e-12,
		MaxNewton: 150,
	}
}

// Node creates (or returns) the node with the given name. The names "0",
// "gnd" and "GND" are ground.
func (c *Circuit) Node(name string) int {
	if idx, ok := c.nodeIdx[name]; ok {
		return idx
	}
	idx := len(c.nodeNames)
	c.gen++
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIdx[name] = idx
	return idx
}

// NodeName returns the name of a node index ("gnd" for ground).
func (c *Circuit) NodeName(idx int) string {
	if idx == Gnd {
		return "gnd"
	}
	return c.nodeNames[idx]
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// AddR adds a resistor between nodes a and b.
func (c *Circuit) AddR(name string, a, b int, ohms float64) {
	if ohms <= 0 {
		panic(fmt.Sprintf("spice: resistor %s with non-positive value %g", name, ohms))
	}
	c.gen++
	c.luValid = false
	c.spReady = false
	c.rs = append(c.rs, resistor{name: name, a: a, b: b, g: 1 / ohms})
}

// AddC adds a capacitor between nodes a and b.
func (c *Circuit) AddC(name string, a, b int, farads float64) {
	if farads < 0 {
		panic(fmt.Sprintf("spice: capacitor %s with negative value %g", name, farads))
	}
	c.gen++
	c.luValid = false
	c.spReady = false
	c.cs = append(c.cs, capacitor{name: name, a: a, b: b, c: farads})
}

// AddV adds a voltage source (positive node p, negative node n) and returns
// its source index for later current readback.
func (c *Circuit) AddV(name string, p, n int, w Waveform) int {
	idx := len(c.vs)
	c.gen++
	c.luValid = false
	c.spReady = false
	c.vs = append(c.vs, vsource{name: name, p: p, n: n, branch: idx, wave: w})
	return idx
}

// AddI adds a current source driving current from p through the source to n.
func (c *Circuit) AddI(name string, p, n int, w Waveform) {
	c.gen++
	c.is = append(c.is, isource{name: name, p: p, n: n, wave: w})
}

// AddMOS adds a four-terminal MOSFET instance.
func (c *Circuit) AddMOS(name string, d, g, s, b int, dev device.Device) {
	c.gen++
	c.luValid = false
	c.spReady = false
	lanes, _ := dev.(device.LaneDerivs)
	c.mos = append(c.mos, mosfet{name: name, d: d, g: g, s: s, b: b, dev: dev, lanes: lanes})
}

// NumMOS returns the number of MOSFET instances, in AddMOS order.
func (c *Circuit) NumMOS() int { return len(c.mos) }

// SetMOSDevice replaces the device model of the i-th MOSFET (AddMOS order)
// in place, keeping topology, node names, and solver scratch. This is the
// re-stamp path for pooled Monte Carlo: swap parameter cards, not netlists.
func (c *Circuit) SetMOSDevice(i int, dev device.Device) {
	c.mos[i].dev = dev
	c.mos[i].lanes, _ = dev.(device.LaneDerivs)
	c.gen++
	c.luValid = false
	c.spCurrent = false
	if i < len(c.bypass) {
		c.bypass[i].v = emptyPoint
	}
}

// MOSDevice returns the device model of the i-th MOSFET (AddMOS order).
func (c *Circuit) MOSDevice(i int) device.Device { return c.mos[i].dev }

// VSourceIndex returns the source index of the named voltage source, or -1.
func (c *Circuit) VSourceIndex(name string) int {
	for i, v := range c.vs {
		if v.name == name {
			return i
		}
	}
	return -1
}

// SetVSource replaces the waveform of source index i (from AddV).
func (c *Circuit) SetVSource(i int, w Waveform) { c.vs[i].wave = w }

// unknowns returns the size of the MNA system: node voltages plus
// voltage-source branch currents.
func (c *Circuit) unknowns() int { return len(c.nodeNames) + len(c.vs) }

// nv reads the voltage of node idx from the unknown vector.
func nv(x []float64, idx int) float64 {
	if idx == Gnd {
		return 0
	}
	return x[idx]
}
