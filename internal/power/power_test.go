package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oftec/internal/floorplan"
	"oftec/internal/grid"
	"oftec/internal/material"
)

func twoUnitPlan(t *testing.T) *floorplan.Floorplan {
	t.Helper()
	f, err := floorplan.New(4e-3, 4e-3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AddUnit("left", floorplan.Rect{X: 0, Y: 0, W: 2e-3, H: 4e-3}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddUnit("right", floorplan.Rect{X: 2e-3, Y: 0, W: 2e-3, H: 4e-3}); err != nil {
		t.Fatal(err)
	}
	return f
}

func chipGrid(t *testing.T, f *floorplan.Floorplan, res int) *grid.Grid {
	t.Helper()
	g, err := grid.New("chip", floorplan.Rect{W: f.Width, H: f.Height}, 1e-5, res, res, material.Silicon)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTotalScaleClone(t *testing.T) {
	m := Map{"a": 2, "b": 3}
	if m.Total() != 5 {
		t.Errorf("Total = %g", m.Total())
	}
	s := m.Scale(2)
	if s["a"] != 4 || s["b"] != 6 || m["a"] != 2 {
		t.Errorf("Scale mutated or wrong: %v %v", s, m)
	}
	c := m.Clone()
	c["a"] = 100
	if m["a"] != 2 {
		t.Error("Clone aliases original")
	}
	names := m.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestValidate(t *testing.T) {
	f := twoUnitPlan(t)
	good := Map{"left": 1, "right": 2}
	if err := good.Validate(f); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
	if err := (Map{"left": 1}).Validate(f); err == nil {
		t.Error("missing unit accepted")
	}
	if err := (Map{"left": 1, "right": 1, "ghost": 1}).Validate(f); err == nil {
		t.Error("unknown unit accepted")
	}
	if err := (Map{"left": -1, "right": 1}).Validate(f); err == nil {
		t.Error("negative power accepted")
	}
	if err := (Map{"left": math.NaN(), "right": 1}).Validate(f); err == nil {
		t.Error("NaN power accepted")
	}
}

func TestDensity(t *testing.T) {
	f := twoUnitPlan(t)
	m := Map{"left": 4, "right": 1}
	// left: 4 W over 8 mm² = 0.5 W/mm² = 5e5 W/m².
	if d := m.Density(f, "left"); math.Abs(d-5e5) > 1 {
		t.Errorf("Density(left) = %g, want 5e5", d)
	}
	if d := m.Density(f, "ghost"); d != 0 {
		t.Errorf("Density(ghost) = %g, want 0", d)
	}
	name, d := m.MaxDensity(f)
	if name != "left" || math.Abs(d-5e5) > 1 {
		t.Errorf("MaxDensity = %s, %g", name, d)
	}
}

func TestToCellsConservesPower(t *testing.T) {
	f := twoUnitPlan(t)
	m := Map{"left": 3, "right": 7}
	for _, res := range []int{1, 2, 3, 4, 8, 16} {
		g := chipGrid(t, f, res)
		cells, err := m.ToCells(f, g)
		if err != nil {
			t.Fatalf("res=%d: %v", res, err)
		}
		var sum float64
		for _, p := range cells {
			if p < 0 {
				t.Fatalf("res=%d: negative cell power %g", res, p)
			}
			sum += p
		}
		if math.Abs(sum-10) > 1e-9 {
			t.Errorf("res=%d: cell sum %g, want 10", res, sum)
		}
	}
}

func TestToCellsSpatialAssignment(t *testing.T) {
	f := twoUnitPlan(t)
	m := Map{"left": 8, "right": 0}
	g := chipGrid(t, f, 4)
	cells, err := m.ToCells(f, g)
	if err != nil {
		t.Fatal(err)
	}
	// Columns 0-1 are "left": each of the 8 cells gets 1 W; columns 2-3 zero.
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			got := cells[g.Index(r, c)]
			want := 0.0
			if c < 2 {
				want = 1.0
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("cell (%d,%d) = %g, want %g", r, c, got, want)
			}
		}
	}
}

func TestToCellsRejectsInvalidMap(t *testing.T) {
	f := twoUnitPlan(t)
	g := chipGrid(t, f, 4)
	if _, err := (Map{"left": 1}).ToCells(f, g); err == nil {
		t.Error("incomplete map accepted")
	}
}

// Property: power conservation holds for random power maps and resolutions,
// including grids that do not align with unit boundaries.
func TestToCellsConservationProperty(t *testing.T) {
	f := twoUnitPlan(t)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Map{"left": rng.Float64() * 50, "right": rng.Float64() * 50}
		res := 1 + rng.Intn(12)
		g, err := grid.New("chip", floorplan.Rect{W: f.Width, H: f.Height}, 1e-5, res, res, material.Silicon)
		if err != nil {
			return false
		}
		cells, err := m.ToCells(f, g)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range cells {
			sum += p
		}
		return math.Abs(sum-m.Total()) < 1e-9*(1+m.Total())
	}
	const seed = 1
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}
