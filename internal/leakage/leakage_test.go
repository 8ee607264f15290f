package leakage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func model() Exponential {
	return Exponential{P0: 6, Beta: 0.03, T0: 318.15}
}

func TestExponentialAt(t *testing.T) {
	e := model()
	if got := e.At(e.T0); math.Abs(got-6) > 1e-12 {
		t.Errorf("At(T0) = %g, want P0", got)
	}
	// Doubling temperature rise multiplies leakage exponentially.
	r1 := e.At(e.T0+10) / e.At(e.T0)
	want := math.Exp(0.3)
	if math.Abs(r1-want) > 1e-9 {
		t.Errorf("10 K ratio = %g, want %g", r1, want)
	}
}

func TestValidate(t *testing.T) {
	if err := model().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Exponential{
		{P0: -1, Beta: 0.01, T0: 300},
		{P0: 1, Beta: -0.01, T0: 300},
		{P0: 1, Beta: 0.01, T0: 0},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLinearizeMatchesDerivative(t *testing.T) {
	e := model()
	tref := 348.15
	ta := e.Linearize(tref)
	if math.Abs(ta.B-e.At(tref)) > 1e-12 {
		t.Errorf("b = %g, want P(tref) = %g", ta.B, e.At(tref))
	}
	numSlope := (e.At(tref+1e-5) - e.At(tref-1e-5)) / 2e-5
	if math.Abs(ta.A-numSlope) > 1e-6 {
		t.Errorf("a = %g, numeric slope %g", ta.A, numSlope)
	}
	// The Taylor line is tangent: first-order accurate near tref.
	for _, dt := range []float64{-5, -1, 1, 5} {
		exact := e.At(tref + dt)
		approx := ta.At(tref + dt)
		if math.Abs(exact-approx) > 0.02*exact {
			t.Errorf("Taylor error at ΔT=%g: %g vs %g", dt, approx, exact)
		}
	}
}

func TestTaylorScaleAndValidate(t *testing.T) {
	ta := Taylor{A: 0.2, B: 10, Tref: 350}
	s := ta.Scale(0.5)
	if s.A != 0.1 || s.B != 5 || s.Tref != 350 {
		t.Errorf("Scale = %+v", s)
	}
	if err := ta.Validate(); err != nil {
		t.Errorf("valid Taylor rejected: %v", err)
	}
	for i, bad := range []Taylor{{A: -1, B: 1, Tref: 300}, {A: 1, B: -1, Tref: 300}, {A: 1, B: 1, Tref: 0}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSampleRange(t *testing.T) {
	e := model()
	samples, err := e.SampleRange(300, 390, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("got %d samples, want 10", len(samples))
	}
	if samples[0].T != 300 || samples[9].T != 390 {
		t.Errorf("sample endpoints %g..%g, want 300..390", samples[0].T, samples[9].T)
	}
	// Evenly spaced (the paper: "distributed evenly").
	for i := 1; i < len(samples); i++ {
		if d := samples[i].T - samples[i-1].T; math.Abs(d-10) > 1e-9 {
			t.Errorf("spacing %g at %d, want 10", d, i)
		}
	}
	if _, err := e.SampleRange(300, 390, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := e.SampleRange(400, 300, 5); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestRegressRecoversLinearData(t *testing.T) {
	// Exact linear data must be recovered exactly.
	tref := 345.0
	truth := Taylor{A: 0.25, B: 12, Tref: tref}
	var samples []Sample
	for _, temp := range []float64{300, 320, 340, 360, 380} {
		samples = append(samples, Sample{T: temp, P: truth.At(temp)})
	}
	got, err := Regress(samples, tref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.A-truth.A) > 1e-9 || math.Abs(got.B-truth.B) > 1e-9 {
		t.Errorf("Regress = %+v, want %+v", got, truth)
	}
}

func TestRegressOnExponentialIsReasonable(t *testing.T) {
	// The paper's procedure: sample the (McPAT) leakage at 10 points in
	// [300, 390] and regress. The line must approximate the exponential
	// to within ~35% across the range (the curvature bound).
	e := model()
	samples, _ := e.SampleRange(300, 390, 10)
	ta, err := Regress(samples, 345)
	if err != nil {
		t.Fatal(err)
	}
	if ta.A <= 0 {
		t.Fatalf("regressed slope %g must be positive", ta.A)
	}
	// The exponential spans ~15× over the range, so the line's pointwise
	// relative error can be large at the low end; bound the error against
	// the range maximum instead.
	pMax := samples[len(samples)-1].P
	for _, s := range samples {
		if rel := math.Abs(ta.At(s.T)-s.P) / pMax; rel > 0.25 {
			t.Errorf("regression error %.0f%% of range max at T=%g", rel*100, s.T)
		}
	}
}

func TestRegressErrors(t *testing.T) {
	if _, err := Regress(nil, 300); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := Regress([]Sample{{300, 1}}, 300); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := Regress([]Sample{{300, 1}, {300, 2}}, 300); err == nil {
		t.Error("identical temperatures accepted")
	}
}

// Property: regression of noise-free linear data recovers it regardless of
// the expansion point.
func TestRegressInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := Taylor{A: rng.Float64(), B: 5 + rng.Float64()*20, Tref: 300 + rng.Float64()*90}
		var samples []Sample
		for k := 0; k < 6; k++ {
			temp := 300 + float64(k)*18
			samples = append(samples, Sample{T: temp, P: truth.At(temp)})
		}
		tref2 := 300 + rng.Float64()*90
		got, err := Regress(samples, tref2)
		if err != nil {
			return false
		}
		// Same line, different parameterization: compare predictions.
		for _, s := range samples {
			if math.Abs(got.At(s.T)-s.P) > 1e-6*(1+math.Abs(s.P)) {
				return false
			}
		}
		return true
	}
	const seed = 1
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

func TestRunawayLoopGain(t *testing.T) {
	if g := RunawayLoopGain(0.5, 2.5); math.Abs(g-1.25) > 1e-12 {
		t.Errorf("loop gain = %g, want 1.25", g)
	}
	// Gain < 1: stable; the fixed point T = T0 + Rth·(P0 + a(T−T0))
	// converges. Gain ≥ 1: diverges. Verify by explicit iteration.
	iterate := func(a, rth float64) bool {
		const tAmb, p0 = 318.0, 10.0
		temp := tAmb
		for k := 0; k < 10000; k++ {
			next := tAmb + rth*(p0+a*(temp-tAmb))
			if next > 1e6 {
				return false // diverged
			}
			if math.Abs(next-temp) < 1e-9 {
				return true
			}
			temp = next
		}
		return true
	}
	if !iterate(0.3, 2.0) { // gain 0.6
		t.Error("loop gain 0.6 diverged")
	}
	if iterate(0.6, 2.0) { // gain 1.2
		t.Error("loop gain 1.2 converged")
	}
}
