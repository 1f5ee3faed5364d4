// Package core assembles the paper's primary contribution: the statistical
// Virtual Source MOSFET model. A StatVS couples the nominal VS parameter
// cards (one per polarity) with the extracted mismatch coefficients
// (α1..α5 of paper Table II) and produces independently perturbed device
// instances for Monte Carlo circuit simulation; the five sampled parameters
// are the independent Gaussians of paper Table I, and the dependent
// responses δ(Leff) and vxo follow paper Eqs. (4)–(6) inside the model.
//
// StatGolden is the same construction over the golden BSIM-like model with
// its ground-truth coefficients; it plays the role of the industrial
// statistical design kit in every validation experiment.
package core

import (
	"math/rand"

	"vstat/internal/bsim"
	"vstat/internal/circuits"
	"vstat/internal/device"
	"vstat/internal/variation"
	"vstat/internal/vsmodel"
)

// StatVS is the statistical Virtual Source model.
type StatVS struct {
	NMOS, PMOS     vsmodel.Params // nominal cards (geometry retargeted per instance)
	AlphaN, AlphaP variation.Alphas
}

// DefaultStatVS returns the nominal 40-nm cards with zero-variation
// coefficients (to be filled by BPV extraction).
func DefaultStatVS() *StatVS {
	return &StatVS{
		NMOS: vsmodel.NMOS40(1e-6),
		PMOS: vsmodel.PMOS40(1e-6),
	}
}

// Alphas returns the mismatch coefficients for the polarity.
func (m *StatVS) Alphas(k device.Kind) variation.Alphas {
	if k == device.PMOS {
		return m.AlphaP
	}
	return m.AlphaN
}

// Card returns the nominal card retargeted to geometry (w, l).
func (m *StatVS) Card(k device.Kind, w, l float64) vsmodel.Params {
	if k == device.PMOS {
		return m.PMOS.WithGeometry(w, l)
	}
	return m.NMOS.WithGeometry(w, l)
}

// Nominal returns a factory producing unperturbed, bound instances.
func (m *StatVS) Nominal() circuits.Factory {
	return func(k device.Kind, w, l float64) device.Device {
		return m.Card(k, w, l).Bind()
	}
}

// Statistical returns a factory that draws fresh independent mismatch
// deltas from rng for every transistor instance and binds it, so its
// bias-independent quantities are computed once per draw.
func (m *StatVS) Statistical(rng *rand.Rand) circuits.Factory {
	return func(k device.Kind, w, l float64) device.Device {
		return m.Card(k, w, l).ApplyDeltas(m.Alphas(k).Sample(rng, w, l)).Bind()
	}
}

// SampleDevice draws a single perturbed instance at geometry (w, l).
func (m *StatVS) SampleDevice(rng *rand.Rand, k device.Kind, w, l float64) device.Device {
	return m.Statistical(rng)(k, w, l)
}

// StatGolden is the statistical golden (BSIM-like) model standing in for
// the industrial kit.
type StatGolden struct {
	NMOS, PMOS     bsim.Params
	AlphaN, AlphaP variation.Alphas
}

// DefaultStatGolden returns the golden cards with the ground-truth mismatch
// coefficients of internal/variation.
func DefaultStatGolden() *StatGolden {
	return &StatGolden{
		NMOS:   bsim.NMOS40(1e-6),
		PMOS:   bsim.PMOS40(1e-6),
		AlphaN: variation.GoldenTruthNMOS(),
		AlphaP: variation.GoldenTruthPMOS(),
	}
}

// Alphas returns the ground-truth coefficients for the polarity.
func (m *StatGolden) Alphas(k device.Kind) variation.Alphas {
	if k == device.PMOS {
		return m.AlphaP
	}
	return m.AlphaN
}

// Card returns the golden card retargeted to geometry (w, l).
func (m *StatGolden) Card(k device.Kind, w, l float64) bsim.Params {
	if k == device.PMOS {
		return m.PMOS.WithGeometry(w, l)
	}
	return m.NMOS.WithGeometry(w, l)
}

// Nominal returns a factory producing unperturbed golden instances.
func (m *StatGolden) Nominal() circuits.Factory {
	return func(k device.Kind, w, l float64) device.Device {
		p := m.Card(k, w, l)
		return &p
	}
}

// Statistical returns a factory drawing fresh golden-parameter mismatch for
// every instance.
func (m *StatGolden) Statistical(rng *rand.Rand) circuits.Factory {
	return func(k device.Kind, w, l float64) device.Device {
		p := m.Card(k, w, l)
		return p.WithDeltas(m.Alphas(k).Sample(rng, w, l))
	}
}

// SampleDevice draws a single perturbed golden instance.
func (m *StatGolden) SampleDevice(rng *rand.Rand, k device.Kind, w, l float64) device.Device {
	return m.Statistical(rng)(k, w, l)
}

// StatModel is the common interface of the two statistical models, letting
// experiments run the identical flow over both.
type StatModel interface {
	Nominal() circuits.Factory
	Statistical(rng *rand.Rand) circuits.Factory
	SampleDevice(rng *rand.Rand, k device.Kind, w, l float64) device.Device
}

var (
	_ StatModel = (*StatVS)(nil)
	_ StatModel = (*StatGolden)(nil)
)
