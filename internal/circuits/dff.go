package circuits

import (
	"vstat/internal/device"
	"vstat/internal/spice"
)

// DFF is the master–slave register of paper Fig. 8(a): two latch stages
// coupled by NMOS-only pass transistors. The master pass gate is driven by
// clkb (transparent while CLK is low) and the slave pass gate by clk, so
// data is captured on the rising CLK edge. Weak feedback inverters restore
// the level degraded by the NMOS passes.
type DFF struct {
	Ckt                  *spice.Circuit
	VddSrc, ClkSrc, DSrc int
	D, Clk, Q            int
	M1, M2, S1, ClkB     int // internal nodes, exposed for initial conditions
	Vdd                  float64

	// Storage for the setup/hold searches of package measure. Data and
	// Clock are the waveforms the trials drive D and CLK with, rewritten in
	// place so a search allocates nothing; Rec lets each trial resume from
	// the transient steps it shares with the previous one.
	Data, Clock spice.PWL
	Rec         spice.TranRecord
}

// ICHoldingZero returns transient initial conditions with the register
// holding Q=0 and the clock low (master transparent at D=0). Latches are
// bistable, so Monte Carlo transients must start from explicit conditions
// rather than an arbitrary operating point.
func (ff *DFF) ICHoldingZero() map[int]float64 {
	return map[int]float64{
		ff.D: 0, ff.Clk: 0, ff.ClkB: ff.Vdd,
		ff.M1: 0, ff.M2: ff.Vdd,
		ff.S1: ff.Vdd, ff.Q: 0,
	}
}

// DFFSizing configures the flip-flop transistor sizes; the paper gives
// P/N = 600 nm/300 nm for the forward inverters at L = 40 nm.
type DFFSizing struct {
	Fwd  Sizing  // forward latch inverters and output buffer
	Fb   Sizing  // weak feedback inverters
	WPas float64 // NMOS pass-transistor width
	L    float64
}

// DefaultDFFSizing returns the paper's Fig. 8 sizing: forward inverters
// P/N = 600/300 nm, quarter-strength feedback, 300 nm passes, L = 40 nm.
func DefaultDFFSizing() DFFSizing {
	return DFFSizing{
		Fwd: Sizing{WP: 600e-9, WN: 300e-9, L: 40e-9},
		// The keeper must lose the write fight against the level-degraded
		// NMOS pass across mismatch: narrow and long-channel.
		Fb:   Sizing{WP: 100e-9, WN: 50e-9, L: 80e-9},
		WPas: 450e-9,
		L:    40e-9,
	}
}

// NewDFF builds the register with externally driven D and CLK sources
// (waveforms are installed by the caller via SetVSource).
func NewDFF(vdd float64, sz DFFSizing, f Factory) *DFF {
	c := spice.New()
	vddN := c.Node("vdd")
	d := c.Node("d")
	clk := c.Node("clk")
	clkb := c.Node("clkb")
	m1 := c.Node("m1") // master storage
	m2 := c.Node("m2") // master inverted
	s1 := c.Node("s1") // slave storage
	q := c.Node("q")

	vs := c.AddV("VDD", vddN, spice.Gnd, spice.DC(vdd))
	ds := c.AddV("VD", d, spice.Gnd, spice.DC(0))
	cs := c.AddV("VCLK", clk, spice.Gnd, spice.DC(0))

	// Clock inverter generates clkb on-chip.
	AddInverter(c, "XCKB", clk, clkb, vddN, sz.Fwd, f)

	// Master: pass gate transparent while CLK low.
	c.AddMOS("TPAS1", m1, clkb, d, spice.Gnd, f(device.NMOS, sz.WPas, sz.L))
	AddInverter(c, "XM1", m1, m2, vddN, sz.Fwd, f)
	AddInverter(c, "XM2", m2, m1, vddN, sz.Fb, f) // weak keeper

	// Slave: pass gate transparent while CLK high.
	c.AddMOS("TPAS2", s1, clk, m2, spice.Gnd, f(device.NMOS, sz.WPas, sz.L))
	AddInverter(c, "XS1", s1, q, vddN, sz.Fwd, f)
	AddInverter(c, "XS2", q, s1, vddN, sz.Fb, f) // weak keeper

	return &DFF{
		Ckt: c, VddSrc: vs, ClkSrc: cs, DSrc: ds,
		D: d, Clk: clk, Q: q,
		M1: m1, M2: m2, S1: s1, ClkB: clkb,
		Vdd: vdd,
	}
}
