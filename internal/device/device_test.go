package device

import (
	"math"
	"testing"
	"testing/quick"

	"svto/internal/tech"
)

func nmos(w float64, c tech.Corner) Device { return Device{tech.NMOS, w, c} }
func pmos(w float64, c tech.Corner) Device { return Device{tech.PMOS, w, c} }

func TestOffIsubCalibration(t *testing.T) {
	p := tech.Default()
	// A 1um low-Vt device fully OFF with Vds = Vdd should leak ~47.5nA,
	// the value the library calibration is built on.
	for _, d := range []Device{nmos(1, tech.FastCorner), pmos(1, tech.FastCorner)} {
		got := d.OffIsub(p)
		if math.Abs(got-47.5) > 1.0 {
			t.Errorf("%s OffIsub = %.2f nA, want ~47.5", d, got)
		}
	}
}

func TestHighVtReduction(t *testing.T) {
	p := tech.Default()
	nLow := nmos(2, tech.FastCorner).OffIsub(p)
	nHigh := nmos(2, tech.LowIsubCorner).OffIsub(p)
	if r := nLow / nHigh; math.Abs(r-17.8) > 0.2 {
		t.Errorf("NMOS high-Vt Isub reduction = %.2f, want ~17.8", r)
	}
	pLow := pmos(2, tech.FastCorner).OffIsub(p)
	pHigh := pmos(2, tech.LowIsubCorner).OffIsub(p)
	if r := pLow / pHigh; math.Abs(r-16.7) > 0.2 {
		t.Errorf("PMOS high-Vt Isub reduction = %.2f, want ~16.7", r)
	}
}

func TestOnIgateCalibration(t *testing.T) {
	p := tech.Default()
	// 2um thin-ox NMOS fully ON: W * Igate0 = 40nA.
	if got := nmos(2, tech.FastCorner).OnIgate(p); math.Abs(got-40) > 0.5 {
		t.Errorf("NMOS OnIgate = %.2f nA, want ~40", got)
	}
	// Standard SiO2: PMOS gate leakage is neglected entirely.
	if got := pmos(2, tech.FastCorner).OnIgate(p); got != 0 {
		t.Errorf("PMOS OnIgate = %.2f nA, want 0 under SiO2", got)
	}
}

func TestThickToxReduction(t *testing.T) {
	p := tech.Default()
	thin := nmos(2, tech.FastCorner).OnIgate(p)
	thick := nmos(2, tech.LowIgateCorner).OnIgate(p)
	if r := thin / thick; math.Abs(r-11) > 0.01 {
		t.Errorf("thick-Tox Igate reduction = %.3f, want 11", r)
	}
}

func TestThickToxDoesNotChangeIsub(t *testing.T) {
	p := tech.Default()
	a := nmos(2, tech.FastCorner).OffIsub(p)
	b := nmos(2, tech.LowIgateCorner).OffIsub(p)
	if a != b {
		t.Errorf("thick oxide changed Isub: %g vs %g", a, b)
	}
}

func TestHighVtDoesNotChangeIgate(t *testing.T) {
	p := tech.Default()
	a := nmos(2, tech.FastCorner).OnIgate(p)
	b := nmos(2, tech.LowIsubCorner).OnIgate(p)
	if a != b {
		t.Errorf("high Vt changed Igate: %g vs %g", a, b)
	}
}

func TestReverseTunnelingMuchSmaller(t *testing.T) {
	p := tech.Default()
	d := nmos(2, tech.FastCorner)
	on := d.OnIgate(p)
	// OFF inverter NMOS: gate 0, source 0, drain Vdd -> reverse overlap
	// tunneling only. The paper calls this "much smaller".
	rev := d.GateLeak(p, 0, 0, p.Vdd)
	if rev <= 0 {
		t.Fatalf("reverse tunneling should be positive, got %g", rev)
	}
	if rev > on/3 {
		t.Errorf("reverse tunneling %g should be well below forward %g", rev, on)
	}
}

func TestStackedOnDeviceIgateSuppressed(t *testing.T) {
	p := tech.Default()
	d := nmos(2, tech.FastCorner)
	// An ON device whose source floated up to ~Vdd-Vt (conducting device
	// above an OFF device in a stack, paper section 3): its Vgs and Vgd
	// are ~one Vt drop, so gate leakage should collapse vs full bias.
	vint := p.Vdd - p.NMOS.VtLow
	suppressed := d.GateLeak(p, p.Vdd, vint, p.Vdd)
	full := d.OnIgate(p)
	if suppressed > full/20 {
		t.Errorf("stack-suppressed Igate %g should be <5%% of full %g", suppressed, full)
	}
}

func TestChannelCurrentAntisymmetric(t *testing.T) {
	p := tech.Default()
	f := func(gRaw, aRaw, bRaw uint8) bool {
		vg := float64(gRaw) / 255 * p.Vdd
		va := float64(aRaw) / 255 * p.Vdd
		vb := float64(bRaw) / 255 * p.Vdd
		for _, d := range []Device{nmos(2, tech.FastCorner), pmos(2, tech.SlowCorner)} {
			iab := d.ChannelCurrent(p, vg, va, vb)
			iba := d.ChannelCurrent(p, vg, vb, va)
			if math.Abs(iab+iba) > 1e-9*(1+math.Abs(iab)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property relied on by the spnet bisection solver: NMOS-frame channel
// current is monotone nondecreasing in va and nonincreasing in vb.
func TestChannelCurrentMonotone(t *testing.T) {
	p := tech.Default()
	f := func(gRaw, aRaw, bRaw, dRaw uint8) bool {
		vg := float64(gRaw) / 255 * p.Vdd
		va := float64(aRaw) / 255 * p.Vdd
		vb := float64(bRaw) / 255 * p.Vdd
		dv := float64(dRaw) / 255 * 0.2
		for _, d := range []Device{
			nmos(2, tech.FastCorner), nmos(1, tech.SlowCorner),
			nmos(3, tech.LowIsubCorner),
		} {
			base := d.ChannelCurrent(p, vg, va, vb)
			if d.ChannelCurrent(p, vg, va+dv, vb)+1e-12 < base {
				return false
			}
			if d.ChannelCurrent(p, vg, va, vb+dv)-1e-12 > base {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The spnet solver settles a bisection step early once a current clears a
// bracket of computed head currents by a relative margin of 1e-12, which is
// sound only if the computed current is monotone down to the last float:
// non-increasing in the bottom-terminal voltage and non-decreasing in the
// top one.  Step each terminal to the adjacent float and along a dense grid,
// including the last few hundred floats below the other terminal, where
// 1-exp(-vds/vT) cancels; any rise (or fall) must stay below the margin.
func TestChannelCurrentMonotoneAtAdjacentFloats(t *testing.T) {
	const margin = 1e-12
	const grid = 200
	corners := []tech.Corner{tech.FastCorner, tech.LowIsubCorner, tech.LowIgateCorner, tech.SlowCorner}
	// excess is how far b rises above a, relative to the larger magnitude.
	excess := func(a, b float64) float64 {
		if b <= a {
			return 0
		}
		return (b - a) / math.Max(math.Abs(a), math.Abs(b))
	}
	worst, checks := 0.0, 0
	for _, p := range []*tech.Params{tech.Default(), tech.Nitrided()} {
		step := p.Vdd / grid
		for _, kind := range []tech.DeviceKind{tech.NMOS, tech.PMOS} {
			for _, c := range corners {
				d := Device{kind, 2, c}
				for g := 0; g <= 10; g++ {
					vg := float64(g) / 10 * p.Vdd
					for a := 0; a <= 10; a++ {
						va := float64(a) / 10 * p.Vdd
						// Bottom terminal: the current must not rise with vb.
						bottom := func(vb float64) {
							i := d.ChannelCurrent(p, vg, va, vb)
							for _, next := range []float64{math.Nextafter(vb, math.Inf(1)), vb + step} {
								e := excess(i, d.ChannelCurrent(p, vg, va, next))
								if e >= margin {
									t.Fatalf("%s %s vg=%v va=%v: current rises %g from vb=%v to %v", p.Name, d, vg, va, e, vb, next)
								}
								worst, checks = math.Max(worst, e), checks+1
							}
						}
						// Top terminal: the current must not fall with va.
						top := func(va, vb float64) {
							i := d.ChannelCurrent(p, vg, va, vb)
							for _, next := range []float64{math.Nextafter(va, math.Inf(1)), va + step} {
								e := excess(d.ChannelCurrent(p, vg, next, vb), i)
								if e >= margin {
									t.Fatalf("%s %s vg=%v vb=%v: current falls %g from va=%v to %v", p.Name, d, vg, vb, e, va, next)
								}
								worst, checks = math.Max(worst, e), checks+1
							}
						}
						for k := 0; k <= grid; k++ {
							bottom(float64(k) * step)
							top(float64(k)*step, va)
						}
						for k, vb := 0, va; k < 300; k++ {
							vb = math.Nextafter(vb, math.Inf(-1))
							bottom(vb)
							top(va, vb)
						}
					}
				}
			}
		}
	}
	t.Logf("%d adjacent-float and grid steps, worst relative violation %g", checks, worst)
}

func TestZeroVdsZeroCurrent(t *testing.T) {
	p := tech.Default()
	for _, d := range []Device{nmos(2, tech.FastCorner), pmos(2, tech.FastCorner)} {
		if i := d.ChannelCurrent(p, p.Vdd, 0.5, 0.5); i != 0 {
			t.Errorf("%s: Vds=0 should give 0 current, got %g", d, i)
		}
	}
}

func TestOnDeviceConductsStrongly(t *testing.T) {
	p := tech.Default()
	d := nmos(2, tech.FastCorner)
	on := d.ChannelCurrent(p, p.Vdd, 0.1, 0) // ON, 100mV across
	off := d.ChannelCurrent(p, 0, p.Vdd, 0)  // OFF, full rail
	if on < 100*off {
		t.Errorf("ON current %g should dwarf OFF leakage %g", on, off)
	}
}

func TestResistanceCornerScaling(t *testing.T) {
	p := tech.Default()
	fast := nmos(2, tech.FastCorner).Resistance(p)
	slow := nmos(2, tech.SlowCorner).Resistance(p)
	want := p.NMOS.RonHighVt * p.NMOS.RonThickTox
	if r := slow / fast; math.Abs(r-want) > 1e-9 {
		t.Errorf("slow/fast resistance = %g, want %g", r, want)
	}
	if fast != p.NMOS.Ron/2 {
		t.Errorf("fast 2um resistance = %g, want %g", fast, p.NMOS.Ron/2)
	}
}

func TestPMOSGateLeakNitrided(t *testing.T) {
	p := tech.Nitrided()
	g := pmos(2, tech.FastCorner).OnIgate(p)
	if g <= 0 {
		t.Fatalf("nitrided PMOS OnIgate should be positive, got %g", g)
	}
	n := nmos(2, tech.FastCorner).OnIgate(p)
	if math.Abs(g/n-p.PMOSGateScale) > 1e-9 {
		t.Errorf("PMOS/NMOS Igate ratio = %g, want %g", g/n, p.PMOSGateScale)
	}
}

func TestWidthScalesLeakage(t *testing.T) {
	p := tech.Default()
	i1 := nmos(1, tech.FastCorner).OffIsub(p)
	i3 := nmos(3, tech.FastCorner).OffIsub(p)
	if math.Abs(i3-3*i1) > 1e-9 {
		t.Errorf("Isub should scale linearly with width: %g vs 3*%g", i3, i1)
	}
	g1 := nmos(1, tech.FastCorner).OnIgate(p)
	g3 := nmos(3, tech.FastCorner).OnIgate(p)
	if math.Abs(g3-3*g1) > 1e-9 {
		t.Errorf("Igate should scale linearly with width: %g vs 3*%g", g3, g1)
	}
}

func TestValidate(t *testing.T) {
	if err := nmos(2, tech.FastCorner).Validate(); err != nil {
		t.Errorf("valid device rejected: %v", err)
	}
	if err := nmos(0, tech.FastCorner).Validate(); err == nil {
		t.Error("zero-width device accepted")
	}
	if err := nmos(-1, tech.FastCorner).Validate(); err == nil {
		t.Error("negative-width device accepted")
	}
}

func TestWithCorner(t *testing.T) {
	d := nmos(2, tech.FastCorner)
	s := d.WithCorner(tech.SlowCorner)
	if s.Corner != tech.SlowCorner || d.Corner != tech.FastCorner {
		t.Errorf("WithCorner mutated or failed: %v %v", d, s)
	}
	if s.W != d.W || s.Kind != d.Kind {
		t.Errorf("WithCorner changed other fields: %v", s)
	}
}

func TestCapacitances(t *testing.T) {
	p := tech.Default()
	d := nmos(2, tech.FastCorner)
	if got, want := d.GateCap(p), 2*p.NMOS.Cg; got != want {
		t.Errorf("GateCap = %g, want %g", got, want)
	}
	thick := d.WithCorner(tech.LowIgateCorner)
	if thick.GateCap(p) >= d.GateCap(p) {
		t.Error("thick oxide should lower gate capacitance")
	}
	if got, want := d.DrainCap(p), 2*p.NMOS.Cd; got != want {
		t.Errorf("DrainCap = %g, want %g", got, want)
	}
}

// At and above threshold the subthreshold exponential is clamped, and
// ChannelCurrent skips math.Exp(0); the result must equal the clamped
// formula evaluated with the Exp(0) call, bit for bit.
func TestClampedSubthresholdSkipsExpExactly(t *testing.T) {
	p := tech.Default()
	// reference is the channel model with the Exp(0) call kept; it also
	// reports whether the subthreshold argument was clamped.
	reference := func(d Device, vg, va, vb float64) (float64, bool) {
		dp, sign := &p.NMOS, 1.0
		if d.Kind == tech.PMOS {
			dp, sign = &p.PMOS, -1
			vg, va, vb = -vg, -va, -vb
		}
		if va < vb {
			va, vb, sign = vb, va, -sign
		}
		vgs, vds := vg-vb, va-vb
		if vds == 0 {
			return sign * 0, false
		}
		vt := dp.Vt(d.Corner.Vt)
		vtEff := vt - dp.DIBL*vds
		arg := (vgs - vtEff) / (p.SubSwing * p.VThermal)
		clamped := arg >= 0
		if arg > 0 {
			arg = 0
		}
		i := d.W * dp.Isub0 * math.Exp(arg) * (1 - math.Exp(-vds/p.VThermal))
		if over := vgs - vtEff; over > 0 {
			g := d.W / (dp.Ron * dp.RonFactor(d.Corner)) * 1e6
			vddOver := p.Vdd - vt
			if vddOver <= 0 {
				vddOver = p.Vdd
			}
			i += g * (over / vddOver) * vds
		}
		return sign * i, clamped
	}
	clamped, total := 0, 0
	for _, d := range []Device{
		nmos(2, tech.FastCorner), nmos(1, tech.SlowCorner), nmos(3, tech.LowIsubCorner),
		pmos(2, tech.FastCorner), pmos(4, tech.LowIgateCorner), pmos(1, tech.SlowCorner),
	} {
		for g := 0; g <= 20; g++ {
			for a := 0; a <= 20; a++ {
				for b := 0; b <= 20; b += 4 {
					vg, va, vb := float64(g)/20*p.Vdd, float64(a)/20*p.Vdd, float64(b)/20*p.Vdd
					got := d.ChannelCurrent(p, vg, va, vb)
					want, c := reference(d, vg, va, vb)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s at vg=%g va=%g vb=%g: %v, Exp(0) formula %v", d, vg, va, vb, got, want)
					}
					total++
					if c {
						clamped++
					}
				}
			}
		}
	}
	if clamped < total/10 {
		t.Fatalf("only %d of %d biases clamp the subthreshold argument", clamped, total)
	}
}
