// Package device implements the analytic transistor models that substitute
// for SPICE/BSIM4 in the reproduction: a continuous channel-current model
// (strong-inversion conduction plus subthreshold leakage with DIBL) and a
// gate-tunneling model (channel tunneling through each channel half plus
// reverse edge-direct tunneling through the gate-drain overlap).
//
// The channel-current model is deliberately shaped so that the current
// through any device is monotone increasing in its drain voltage and
// monotone decreasing in its source voltage (gate fixed).  The series-
// parallel network solver in package spnet relies on that monotonicity to
// find internal stack node voltages by bisection.
//
// Units follow package tech: nA, V, um.
package device

import (
	"fmt"
	"math"

	"svto/internal/tech"
)

// Device is a single MOS transistor instance: a kind, a width and a process
// corner (Vt/Tox flavor).
type Device struct {
	Kind   tech.DeviceKind
	W      float64 // channel width, um
	Corner tech.Corner
}

// String renders the device compactly, e.g. "nmos w=2 lvt/thin".
func (d Device) String() string {
	return fmt.Sprintf("%s w=%g %s", d.Kind, d.W, d.Corner)
}

// Validate rejects non-physical devices.
func (d Device) Validate() error {
	if d.W <= 0 {
		return fmt.Errorf("device %s: width must be positive", d)
	}
	return nil
}

// ChannelCurrent returns the channel current (nA) flowing from terminal a to
// terminal b, given the absolute node voltages of the gate and the two
// channel terminals.  The sign is positive when conventional current flows
// a->b.  The MOS channel is treated as symmetric: the higher-potential
// terminal acts as the drain for an NMOS (and conversely for a PMOS).
//
// The model is the sum of a strong-inversion linear-region term (zero below
// threshold) and a capped subthreshold term, which makes the total current
// continuous and monotone in the terminal voltages.
func (d Device) ChannelCurrent(p *tech.Params, vg, va, vb float64) float64 {
	if d.Kind == tech.PMOS {
		// A PMOS is an NMOS in a mirrored voltage frame.
		return -nmosChannel(p, &p.PMOS, d.W, d.Corner, -vg, -va, -vb)
	}
	return nmosChannel(p, &p.NMOS, d.W, d.Corner, vg, va, vb)
}

// nmosChannel computes NMOS-frame channel current from a to b.
func nmosChannel(p *tech.Params, dp *tech.DeviceParams, w float64, c tech.Corner, vg, va, vb float64) float64 {
	if va < vb {
		return -nmosChannel(p, dp, w, c, vg, vb, va)
	}
	vgs := vg - vb
	vds := va - vb
	if vds == 0 {
		return 0
	}
	vt := dp.Vt(c.Vt)
	vtEff := vt - dp.DIBL*vds

	// Capped subthreshold term: at and above threshold the exponential is
	// clamped to its threshold value, exp(0) = 1 exactly, so the term stays
	// bounded while the strong-inversion term takes over.
	sub := 1.0
	if arg := (vgs - vtEff) / (p.SubSwing * p.VThermal); arg < 0 {
		sub = math.Exp(arg)
	}
	i := w * dp.Isub0 * sub * (1 - math.Exp(-vds/p.VThermal))

	// Strong-inversion linear-region term. Ron is in kOhm*um, so the
	// conductance w/Ron is in mA/V = 1e6 nA/V.
	if over := vgs - vtEff; over > 0 {
		g := w / (dp.Ron * dp.RonFactor(c)) * 1e6 // nA/V at full gate overdrive
		vddOver := p.Vdd - vt
		if vddOver <= 0 {
			vddOver = p.Vdd
		}
		i += g * (over / vddOver) * vds
	}
	return i
}

// GateLeak returns the magnitude of the gate tunneling current (nA) of the
// device given the absolute gate/source/drain node voltages.  Each channel
// half tunnels according to its own oxide voltage: positive gate-to-channel
// bias produces full channel tunneling, negative bias produces only
// edge-direct tunneling through the much smaller overlap region, scaled by
// OverlapFrac (paper section 2).  PMOS tunneling is scaled by
// Params.PMOSGateScale (zero for standard SiO2).
func (d Device) GateLeak(p *tech.Params, vg, vs, vd float64) float64 {
	dp := p.Device(d.Kind)
	scale := 1.0
	if d.Kind == tech.PMOS {
		scale = p.PMOSGateScale
		if scale == 0 {
			return 0
		}
		// Mirror into the NMOS frame.
		vg, vs, vd = -vg, -vs, -vd
	}
	if d.Corner.Tox == tech.ToxThick {
		scale *= dp.IgateThickScale
	}
	half := d.W * dp.Igate0 / 2 * scale
	return half * (tunnelFactor(p, dp, vg-vs) + tunnelFactor(p, dp, vg-vd))
}

// tunnelFactor returns the relative tunneling intensity of one channel half
// at oxide bias v (NMOS frame). It is 1 at v = Vdd.
func tunnelFactor(p *tech.Params, dp *tech.DeviceParams, v float64) float64 {
	switch {
	case v > 0:
		return math.Exp(dp.IgateSlope * (v - p.Vdd))
	case v < 0:
		return dp.OverlapFrac * math.Exp(dp.IgateSlope*(-v-p.Vdd))
	default:
		return 0
	}
}

// OffIsub returns the subthreshold leakage (nA) of the device when fully OFF
// with the full rail across it (Vgs = 0, Vds = Vdd in its own frame). This
// is the worst-case single-device Isub used in reports and tests.
func (d Device) OffIsub(p *tech.Params) float64 {
	if d.Kind == tech.PMOS {
		// PMOS OFF: gate at Vdd, source at Vdd, drain at 0.
		return -d.ChannelCurrent(p, p.Vdd, 0, p.Vdd)
	}
	// NMOS OFF: gate/source at 0, drain at Vdd.
	return d.ChannelCurrent(p, 0, p.Vdd, 0)
}

// OnIgate returns the gate tunneling current (nA) of the device when fully
// ON with both channel terminals at the leak-maximizing rail (Vgs = Vgd =
// Vdd in its own frame).
func (d Device) OnIgate(p *tech.Params) float64 {
	if d.Kind == tech.PMOS {
		return d.GateLeak(p, 0, p.Vdd, p.Vdd)
	}
	return d.GateLeak(p, p.Vdd, 0, 0)
}

// Resistance returns the effective switching resistance (kOhm) of the device
// at its corner, used by the delay model.
func (d Device) Resistance(p *tech.Params) float64 {
	dp := p.Device(d.Kind)
	return dp.Ron * dp.RonFactor(d.Corner) / d.W
}

// GateCap returns the gate capacitance (fF) of the device at its corner.
func (d Device) GateCap(p *tech.Params) float64 {
	return p.Device(d.Kind).GateCap(d.W, d.Corner)
}

// DrainCap returns the drain diffusion capacitance (fF) of the device.
func (d Device) DrainCap(p *tech.Params) float64 {
	return p.Device(d.Kind).Cd * d.W
}

// WithCorner returns a copy of the device at the given corner.
func (d Device) WithCorner(c tech.Corner) Device {
	d.Corner = c
	return d
}
