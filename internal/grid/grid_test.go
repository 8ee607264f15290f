package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oftec/internal/floorplan"
	"oftec/internal/material"
)

func mustGrid(t *testing.T, name string, outline floorplan.Rect, thick float64, rows, cols int, mat material.Material) *Grid {
	t.Helper()
	g, err := New(name, outline, thick, rows, cols, mat)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	out := floorplan.Rect{W: 1, H: 1}
	if _, err := New("g", out, 0.1, 0, 4, material.Silicon); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := New("g", out, 0, 4, 4, material.Silicon); err == nil {
		t.Error("zero thickness accepted")
	}
	if _, err := New("g", floorplan.Rect{}, 0.1, 4, 4, material.Silicon); err == nil {
		t.Error("empty outline accepted")
	}
	bad := material.Material{Name: "bad", Conductivity: -1, VolumetricHeatCapacity: 1}
	if _, err := New("g", out, 0.1, 4, 4, bad); err == nil {
		t.Error("invalid material accepted")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := mustGrid(t, "g", floorplan.Rect{W: 1, H: 1}, 0.01, 5, 7, material.Silicon)
	for idx := 0; idx < g.NumCells(); idx++ {
		r, c := g.RowCol(idx)
		if g.Index(r, c) != idx {
			t.Fatalf("Index(RowCol(%d)) = %d", idx, g.Index(r, c))
		}
	}
}

func TestGeometry(t *testing.T) {
	out := floorplan.Rect{X: 2, Y: 3, W: 4, H: 8}
	g := mustGrid(t, "g", out, 0.5, 4, 2, material.Copper)
	if g.Dx() != 2 || g.Dy() != 2 {
		t.Errorf("Dx,Dy = %g,%g want 2,2", g.Dx(), g.Dy())
	}
	if g.CellArea() != 4 {
		t.Errorf("CellArea = %g, want 4", g.CellArea())
	}
	if g.CellVolume() != 2 {
		t.Errorf("CellVolume = %g, want 2", g.CellVolume())
	}
	r := g.CellRect(1, 1)
	want := floorplan.Rect{X: 4, Y: 5, W: 2, H: 2}
	if r != want {
		t.Errorf("CellRect(1,1) = %+v, want %+v", r, want)
	}
	cx, cy := g.CellCenter(0, 0)
	if cx != 3 || cy != 4 {
		t.Errorf("CellCenter(0,0) = (%g,%g), want (3,4)", cx, cy)
	}
	if hc := g.CellHeatCapacity(); math.Abs(hc-2*material.Copper.VolumetricHeatCapacity) > 1e-6 {
		t.Errorf("CellHeatCapacity = %g", hc)
	}
}

func TestLateralCouplingValue(t *testing.T) {
	// Homogeneous 1×2 grid: g = k·t·dy/dx.
	g := mustGrid(t, "g", floorplan.Rect{W: 2, H: 1}, 0.01, 1, 2, material.Silicon)
	lcs := g.LateralCouplings()
	if len(lcs) != 1 {
		t.Fatalf("got %d couplings, want 1", len(lcs))
	}
	want := material.Silicon.Conductivity * 0.01 * 1.0 / 1.0
	if math.Abs(lcs[0].G-want) > 1e-12 {
		t.Errorf("lateral G = %g, want %g", lcs[0].G, want)
	}
}

func TestLateralCouplingCount(t *testing.T) {
	g := mustGrid(t, "g", floorplan.Rect{W: 1, H: 1}, 0.01, 4, 5, material.TIM)
	// Horizontal: 4 rows × 4 = 16; vertical: 3 × 5 = 15.
	if got, want := len(g.LateralCouplings()), 16+15; got != want {
		t.Errorf("coupling count = %d, want %d", got, want)
	}
}

func TestPerCellConductivityAffectsCouplings(t *testing.T) {
	g := mustGrid(t, "g", floorplan.Rect{W: 2, H: 1}, 0.01, 1, 2, material.Silicon)
	if err := g.SetCellConductivity(1, material.Silicon.Conductivity/9); err != nil {
		t.Fatal(err)
	}
	lcs := g.LateralCouplings()
	// Series of half resistances: r = 0.5/(100·0.01) + 0.5/(100/9·0.01)
	k := material.Silicon.Conductivity
	r := 0.5/(k*0.01) + 0.5/((k/9)*0.01)
	if math.Abs(lcs[0].G-1/r) > 1e-9 {
		t.Errorf("mixed-material G = %g, want %g", lcs[0].G, 1/r)
	}
	if err := g.SetCellConductivity(99, 1); err == nil {
		t.Error("out-of-range cell accepted")
	}
	if err := g.SetCellConductivity(0, -1); err == nil {
		t.Error("negative conductivity accepted")
	}
}

func TestVerticalHalfConductance(t *testing.T) {
	g := mustGrid(t, "g", floorplan.Rect{W: 1, H: 1}, 0.02, 1, 1, material.TIM)
	want := material.TIM.Conductivity * 1.0 / 0.01
	if got := g.VerticalHalfConductance(0); math.Abs(got-want) > 1e-9 {
		t.Errorf("VerticalHalfConductance = %g, want %g", got, want)
	}
}

func TestCoupleVerticalAlignedGrids(t *testing.T) {
	out := floorplan.Rect{W: 1, H: 1}
	a := mustGrid(t, "a", out, 0.02, 2, 2, material.Silicon)
	b := mustGrid(t, "b", out, 0.04, 2, 2, material.TIM)
	vcs := CoupleVertical(a, b)
	if len(vcs) != 4 {
		t.Fatalf("got %d couplings, want 4 (1:1 alignment)", len(vcs))
	}
	area := 0.25
	r := 0.01/(material.Silicon.Conductivity*area) + 0.02/(material.TIM.Conductivity*area)
	for _, vc := range vcs {
		if vc.Lower != vc.Upper {
			t.Errorf("aligned grids should couple 1:1, got %d->%d", vc.Lower, vc.Upper)
		}
		if math.Abs(vc.G-1/r) > 1e-9 {
			t.Errorf("vertical G = %g, want %g", vc.G, 1/r)
		}
	}
}

func TestCoupleVerticalMismatchedGrids(t *testing.T) {
	// Small chip (1×1 at origin) on a larger spreader (3×3 centered).
	chip := mustGrid(t, "chip", floorplan.Rect{X: 0, Y: 0, W: 1, H: 1}, 0.01, 2, 2, material.Silicon)
	spr := mustGrid(t, "spr", floorplan.Rect{X: -1, Y: -1, W: 3, H: 3}, 0.1, 3, 3, material.Copper)
	vcs := CoupleVertical(chip, spr)
	if len(vcs) == 0 {
		t.Fatal("no couplings between stacked layers")
	}
	// Conservation: total coupled overlap equals the chip area.
	var totalOv float64
	for _, vc := range vcs {
		if vc.G <= 0 {
			t.Errorf("non-positive conductance %g", vc.G)
		}
	}
	// Recompute overlap directly.
	for r := 0; r < chip.Rows; r++ {
		for c := 0; c < chip.Cols; c++ {
			rect := chip.CellRect(r, c)
			for _, si := range spr.CellsIntersecting(rect) {
				sr, sc := spr.RowCol(si)
				totalOv += spr.CellRect(sr, sc).Overlap(rect)
			}
		}
	}
	if math.Abs(totalOv-1.0) > 1e-9 {
		t.Errorf("total overlap = %g, want 1 (chip area)", totalOv)
	}
}

func TestCellsIntersecting(t *testing.T) {
	g := mustGrid(t, "g", floorplan.Rect{W: 4, H: 4}, 0.01, 4, 4, material.Silicon)
	cells := g.CellsIntersecting(floorplan.Rect{X: 0.5, Y: 0.5, W: 1, H: 1})
	if len(cells) != 4 {
		t.Errorf("got %d cells, want 4", len(cells))
	}
	// A rect exactly covering one cell.
	cells = g.CellsIntersecting(floorplan.Rect{X: 1, Y: 1, W: 1, H: 1})
	if len(cells) != 1 || cells[0] != g.Index(1, 1) {
		t.Errorf("exact cell rect: got %v", cells)
	}
	// Outside the grid.
	if cells = g.CellsIntersecting(floorplan.Rect{X: 10, Y: 10, W: 1, H: 1}); len(cells) != 0 {
		t.Errorf("outside rect: got %v", cells)
	}
}

func TestOverlapFraction(t *testing.T) {
	g := mustGrid(t, "g", floorplan.Rect{W: 2, H: 2}, 0.01, 2, 2, material.Silicon)
	if f := g.OverlapFraction(0, floorplan.Rect{X: 0, Y: 0, W: 0.5, H: 1}); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("OverlapFraction = %g, want 0.5", f)
	}
}

// overlapSum is Σ over the cells rect touches of its overlap with the
// cell, in m².
func overlapSum(g *Grid, rect floorplan.Rect) float64 {
	var sum float64
	for _, idx := range g.CellsIntersecting(rect) {
		sum += g.OverlapFraction(idx, rect) * g.CellArea()
	}
	return sum
}

// checkOverlapProperty runs an overlap property under a fixed, logged
// seed so a failure reproduces.
func checkOverlapProperty(t *testing.T, seed int64, f func(seed int64) bool) {
	t.Helper()
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
}

// Property: for random rectangles inside the grid, the overlap fractions
// over all cells sum to rect area / cell area (area conservation of the
// decomposition).
func TestOverlapConservationProperty(t *testing.T) {
	g, err := New("g", floorplan.Rect{W: 8, H: 8}, 0.01, 8, 8, material.Silicon)
	if err != nil {
		t.Fatal(err)
	}
	checkOverlapProperty(t, 1, func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, y := rng.Float64()*7.99, rng.Float64()*7.99
		rect := floorplan.Rect{
			X: x,
			Y: y,
			W: 0.01 + rng.Float64()*(8-x-0.01),
			H: 0.01 + rng.Float64()*(8-y-0.01),
		}
		return math.Abs(overlapSum(g, rect)-rect.Area()) < 1e-9
	})
}

// Property: a rectangle crossing the grid's left or right edge is
// clipped, so its overlaps sum to the area of its intersection with the
// grid.
func TestOverlapClippingProperty(t *testing.T) {
	g, err := New("g", floorplan.Rect{W: 8, H: 8}, 0.01, 8, 8, material.Silicon)
	if err != nil {
		t.Fatal(err)
	}
	checkOverlapProperty(t, 2, func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := rng.Float64()*11 - 3
		cross := 8 - x // width that reaches past the right edge
		if x < 0 {
			cross = -x // starts left of the grid: the width that reaches into it
		}
		rect := floorplan.Rect{
			X: x,
			Y: rng.Float64() * 8,
			W: cross + 0.01 + rng.Float64()*3,
			H: 0.01 + rng.Float64()*4,
		}
		return math.Abs(overlapSum(g, rect)-rect.Overlap(g.Outline)) < 1e-9
	})
}
