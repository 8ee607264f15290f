package fan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFanPowerCubicLaw(t *testing.T) {
	f := PaperFan()
	// The paper: c = 1.6e-7 J·s², so P(524 rad/s) ≈ 23 W.
	if p := f.Power(524); math.Abs(p-23.02) > 0.05 {
		t.Errorf("P(524) = %g, want ≈23.0", p)
	}
	if p := f.Power(0); p != 0 {
		t.Errorf("P(0) = %g, want 0", p)
	}
	if p := f.Power(-5); p != 0 {
		t.Errorf("P(-5) = %g, want 0 (clamped)", p)
	}
	// Cubic scaling: doubling speed multiplies power by 8.
	if r := f.Power(200) / f.Power(100); math.Abs(r-8) > 1e-9 {
		t.Errorf("P(2ω)/P(ω) = %g, want 8", r)
	}
}

func TestFanValidate(t *testing.T) {
	if err := (Fan{C: 0, OmegaMax: 1}).Validate(); err == nil {
		t.Error("zero power constant accepted")
	}
	if err := (Fan{C: 1, OmegaMax: 0}).Validate(); err == nil {
		t.Error("zero max speed accepted")
	}
	if err := PaperFan().Validate(); err != nil {
		t.Errorf("paper fan rejected: %v", err)
	}
}

func TestHeatSinkConductanceLaw(t *testing.T) {
	m := PaperModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper values: g(ω) = 0.97·ln(ω) − 0.25.
	w := 209.0 // ≈2000 RPM
	want := 0.97*math.Log(209) - 0.25
	if g := m.Conductance(w); math.Abs(g-want) > 1e-12 {
		t.Errorf("g(209) = %g, want %g", g, want)
	}
	// Still-air floor.
	if g := m.Conductance(0); g != m.GHS {
		t.Errorf("g(0) = %g, want g_HS = %g", g, m.GHS)
	}
	if g := m.Conductance(0.5); g != m.GHS {
		t.Errorf("g(0.5) = %g, want saturated %g", g, m.GHS)
	}
}

func TestConductanceMonotonicContinuous(t *testing.T) {
	m := PaperModel()
	prev := m.Conductance(0)
	for w := 0.1; w < 550; w += 0.5 {
		g := m.Conductance(w)
		if g < prev-1e-12 {
			t.Fatalf("conductance decreased at ω=%g: %g < %g", w, g, prev)
		}
		prev = g
	}
	// Continuity at the crossover.
	wc := m.CrossoverSpeed()
	if d := math.Abs(m.Conductance(wc*0.999) - m.Conductance(wc*1.001)); d > 1e-3 {
		t.Errorf("discontinuity %g at crossover ω=%g", d, wc)
	}
}

func TestCrossoverSpeed(t *testing.T) {
	m := PaperModel()
	wc := m.CrossoverSpeed()
	// p·ln(q·wc) + r must equal g_HS.
	if g := m.P*math.Log(m.Q*wc) + m.R; math.Abs(g-m.GHS) > 1e-9 {
		t.Errorf("log law at crossover = %g, want %g", g, m.GHS)
	}
}

func TestDConductanceDOmega(t *testing.T) {
	m := PaperModel()
	if d := m.DConductanceDOmega(1); d != 0 {
		t.Errorf("derivative on saturated branch = %g, want 0", d)
	}
	w := 300.0
	analytic := m.DConductanceDOmega(w)
	numeric := (m.Conductance(w+1e-4) - m.Conductance(w-1e-4)) / 2e-4
	if math.Abs(analytic-numeric) > 1e-6 {
		t.Errorf("dg/dω analytic %g vs numeric %g", analytic, numeric)
	}
}

func TestHeatSinkValidate(t *testing.T) {
	bad := []HeatSinkModel{
		{P: 0, Q: 1, GHS: 1},
		{P: 1, Q: 0, GHS: 1},
		{P: 1, Q: 1, GHS: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

func TestFitLogLawRecoversParameters(t *testing.T) {
	// Samples generated from a known log law must be fit exactly.
	const p, r = 0.97, -0.25
	var samples []Sample
	for _, w := range []float64{10, 30, 90, 270, 520} {
		samples = append(samples, Sample{Omega: w, G: p*math.Log(w) + r})
	}
	gotP, gotR, err := FitLogLaw(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotP-p) > 1e-9 || math.Abs(gotR-r) > 1e-9 {
		t.Errorf("fit = (%g, %g), want (%g, %g)", gotP, gotR, p, r)
	}
}

func TestFitLogLawErrors(t *testing.T) {
	if _, _, err := FitLogLaw(nil); err == nil {
		t.Error("empty sample set accepted")
	}
	if _, _, err := FitLogLaw([]Sample{{1, 1}}); err == nil {
		t.Error("single sample accepted")
	}
	if _, _, err := FitLogLaw([]Sample{{-1, 1}, {2, 2}}); err == nil {
		t.Error("negative speed accepted")
	}
	if _, _, err := FitLogLaw([]Sample{{5, 1}, {5, 2}}); err == nil {
		t.Error("identical speeds accepted")
	}
}

// Property: the OLS fit minimizes squared error — perturbing (p, r) never
// reduces the residual.
func TestFitLogLawOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		samples := make([]Sample, n)
		for i := range samples {
			w := 5 + rng.Float64()*500
			samples[i] = Sample{Omega: w, G: 0.8*math.Log(w) + rng.NormFloat64()*0.1}
		}
		p, r, err := FitLogLaw(samples)
		if err != nil {
			return false
		}
		sse := func(p, r float64) float64 {
			var s float64
			for _, smp := range samples {
				d := smp.G - (p*math.Log(smp.Omega) + r)
				s += d * d
			}
			return s
		}
		base := sse(p, r)
		for _, dp := range []float64{-0.01, 0.01} {
			if sse(p+dp, r) < base-1e-12 || sse(p, r+dp) < base-1e-12 {
				return false
			}
		}
		return true
	}
	const seed = 1
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

func TestConvectionReferenceFitNearPaper(t *testing.T) {
	// Fitting the first-principles convection model over the paper's
	// operating range must land near the paper's (p, r) = (0.97, −0.25).
	ref := DefaultConvectionReference()
	samples, err := ref.Samples(50, 524, 20)
	if err != nil {
		t.Fatal(err)
	}
	p, r, err := FitLogLaw(samples)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.5 || p > 1.5 {
		t.Errorf("fitted p = %g, want near 0.97", p)
	}
	if r < -1.5 || r > 0.6 {
		t.Errorf("fitted r = %g, want near -0.25", r)
	}
	// The fit must be decent: max relative error below 10% on the range.
	for _, s := range samples {
		fit := p*math.Log(s.Omega) + r
		if rel := math.Abs(fit-s.G) / s.G; rel > 0.15 {
			t.Errorf("fit error %.1f%% at ω=%g", rel*100, s.Omega)
		}
	}
}

func TestConvectionReferenceSampleErrors(t *testing.T) {
	ref := DefaultConvectionReference()
	if _, err := ref.Samples(50, 524, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ref.Samples(-1, 524, 5); err == nil {
		t.Error("negative omegaMin accepted")
	}
	if _, err := ref.Samples(100, 50, 5); err == nil {
		t.Error("inverted range accepted")
	}
	if g := ref.Conductance(0); g != ref.GBase {
		t.Errorf("Conductance(0) = %g, want GBase", g)
	}
}
