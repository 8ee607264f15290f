package dvfs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oftec/internal/power"
)

func TestValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Model{
		{VMinScale: 0, FMinScale: 0.4},
		{VMinScale: 1.2, FMinScale: 0.4},
		{VMinScale: 0.7, FMinScale: 0},
		{VMinScale: 0.7, FMinScale: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAtEndpoints(t *testing.T) {
	m := Default()
	nom, err := m.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if nom.VoltageScale != 1 || nom.PowerScale() != 1 || nom.ThroughputScale() != 1 {
		t.Errorf("nominal point not identity: %+v", nom)
	}
	floor, err := m.At(m.FMinScale)
	if err != nil {
		t.Fatal(err)
	}
	if floor.VoltageScale != m.VMinScale {
		t.Errorf("floor voltage %g, want %g", floor.VoltageScale, m.VMinScale)
	}
	// P(floor) = f·V² = 0.4·0.49 = 0.196.
	if math.Abs(floor.PowerScale()-0.4*0.7*0.7) > 1e-12 {
		t.Errorf("floor power scale %g", floor.PowerScale())
	}
	if _, err := m.At(0.2); err == nil {
		t.Error("below-floor frequency accepted")
	}
	if _, err := m.At(1.5); err == nil {
		t.Error("above-nominal frequency accepted")
	}
}

// Property: power scale is strictly increasing in frequency and cubic-ish:
// between f³ (if V∝f exactly) and f (if voltage were flat).
func TestPowerScaleMonotoneProperty(t *testing.T) {
	m := Default()
	f := func(raw uint8) bool {
		f1 := m.FMinScale + (1-m.FMinScale)*float64(raw)/255
		f2 := math.Min(1, f1+0.05)
		p1, err1 := m.At(f1)
		p2, err2 := m.At(f2)
		if err1 != nil || err2 != nil {
			return false
		}
		if f2 > f1 && p2.PowerScale() <= p1.PowerScale() {
			return false
		}
		ps := p1.PowerScale()
		return ps <= p1.FreqScale+1e-12 && ps >= math.Pow(p1.FreqScale, 3)-1e-12
	}
	const seed = 1
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

func TestScaleMap(t *testing.T) {
	m := Default()
	op, err := m.At(0.7)
	if err != nil {
		t.Fatal(err)
	}
	in := power.Map{"a": 10, "b": 4}
	out := op.ScaleMap(in)
	want := op.PowerScale()
	if math.Abs(out["a"]-10*want) > 1e-12 || math.Abs(out["b"]-4*want) > 1e-12 {
		t.Errorf("ScaleMap = %v", out)
	}
	if in["a"] != 10 {
		t.Error("input map mutated")
	}
}

func TestMaxFeasibleFrequencyBisection(t *testing.T) {
	m := Default()
	// Feasible iff power scale ≤ 0.6 → boundary at f where f·V(f)² = 0.6.
	oracle := func(op OperatingPoint) (bool, error) {
		return op.PowerScale() <= 0.6, nil
	}
	op, ok, err := m.MaxFeasibleFrequency(oracle, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("feasible problem reported hopeless")
	}
	if op.PowerScale() > 0.6+1e-9 {
		t.Errorf("returned point infeasible: power scale %g", op.PowerScale())
	}
	// Must be within resolution of the true boundary.
	higher, err := m.At(math.Min(1, op.FreqScale+0.01))
	if err != nil {
		t.Fatal(err)
	}
	if higher.PowerScale() <= 0.6 && higher.FreqScale > op.FreqScale {
		t.Errorf("left %g of headroom on the table", higher.FreqScale-op.FreqScale)
	}
}

func TestMaxFeasibleFrequencyEdges(t *testing.T) {
	m := Default()
	always := func(op OperatingPoint) (bool, error) { return true, nil }
	never := func(op OperatingPoint) (bool, error) { return false, nil }

	op, ok, err := m.MaxFeasibleFrequency(always, 0.01)
	if err != nil || !ok || op.FreqScale != 1 {
		t.Errorf("always-feasible: %+v %v %v", op, ok, err)
	}
	_, ok, err = m.MaxFeasibleFrequency(never, 0.01)
	if err != nil || ok {
		t.Errorf("never-feasible reported ok=%v err=%v", ok, err)
	}
	if _, _, err := m.MaxFeasibleFrequency(always, 0); err == nil {
		t.Error("zero resolution accepted")
	}
}

func TestPerformanceLoss(t *testing.T) {
	m := Default()
	op, err := m.At(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(op.PerformanceLoss()-0.25) > 1e-12 {
		t.Errorf("loss = %g, want 0.25", op.PerformanceLoss())
	}
}
