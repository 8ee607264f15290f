package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTemperatureConversions(t *testing.T) {
	cases := []struct{ c, k float64 }{
		{0, 273.15},
		{45, 318.15},
		{90, 363.15},
		{-273.15, 0},
	}
	for _, tc := range cases {
		if got := CToK(tc.c); math.Abs(got-tc.k) > 1e-12 {
			t.Errorf("CToK(%g) = %g, want %g", tc.c, got, tc.k)
		}
		if got := KToC(tc.k); math.Abs(got-tc.c) > 1e-12 {
			t.Errorf("KToC(%g) = %g, want %g", tc.k, got, tc.c)
		}
	}
}

func TestFanSpeedConversions(t *testing.T) {
	// The paper equates 5000 RPM with 524 rad/s (rounded).
	if got := RPMToRadPerSec(5000); math.Abs(got-523.5987) > 1e-3 {
		t.Errorf("RPMToRadPerSec(5000) = %g, want ≈523.6", got)
	}
	if got := RadPerSecToRPM(524); math.Abs(got-5003.8) > 0.1 {
		t.Errorf("RadPerSecToRPM(524) = %g, want ≈5003.8", got)
	}
}

func TestLengthHelpers(t *testing.T) {
	if got := MM(15.9); math.Abs(got-0.0159) > 1e-15 {
		t.Errorf("MM(15.9) = %g", got)
	}
	if got := Micron(20); math.Abs(got-20e-6) > 1e-18 {
		t.Errorf("Micron(20) = %g", got)
	}
}

func TestConversionRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return true
		}
		tol := 1e-9 * (1 + math.Abs(v))
		return math.Abs(KToC(CToK(v))-v) < tol &&
			math.Abs(RadPerSecToRPM(RPMToRadPerSec(v))-v) < tol
	}
	const seed = 1
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("nearly-equal values reported unequal")
	}
	if ApproxEqual(1.0, 1.1, 1e-9) {
		t.Error("clearly different values reported equal")
	}
	if !ApproxEqual(1e12, 1e12+1, 1e-9) {
		t.Error("relative tolerance not applied for large magnitudes")
	}
	if !ApproxEqual(0, 0, 1e-15) {
		t.Error("zero should equal zero")
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1) = %g", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1) = %g", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp(0.5,0,1) = %g", got)
	}
}
