package backend

import (
	"context"
	"testing"

	"oftec/internal/thermal"
	"oftec/internal/workload"
)

func testPlant(t *testing.T, name, bench string) Plant {
	t.Helper()
	cfg := thermal.DefaultConfig()
	cfg.ChipRes = 8
	cfg.SpreaderRes = 7
	cfg.SinkRes = 6
	cfg.PCBRes = 4
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.PowerMap(cfg.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(name, cfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := map[string]bool{"full": false, "rom": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("backend %q not registered (have %v)", n, names)
		}
	}
	if _, err := FromModel("nope", nil); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestFullScalarMatchesModel pins the k=1 contract: the full backend is a
// pass-through to the model's memoized scalar path (identical pointer),
// and a single-zone zoned evaluator returns the very same result.
func TestFullScalarMatchesModel(t *testing.T) {
	p := testPlant(t, "full", "CRC32")
	full := p.(*Full)
	solved, err := full.Model().Solve(context.Background(), nil, []thermal.Point{Scalar(200, 1).point()}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := solved[0]
	got, err := p.Evaluate(context.Background(), Scalar(200, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("full backend did not return the model's memoized result")
	}

	assign := map[string]int{}
	for _, u := range full.Config().Floorplan.Units() {
		assign[u.Name] = 0
	}
	z, err := full.NewZoning(assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	zev, err := full.WithZoning(z)
	if err != nil {
		t.Fatal(err)
	}
	zgot, err := zev.Evaluate(context.Background(), OpPoint{Omega: 200, Currents: []float64{1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if zgot != want {
		t.Error("single-zone zoned evaluation is not the scalar result")
	}

	// Malformed points are rejected, not guessed at.
	if _, err := p.Evaluate(context.Background(), OpPoint{Omega: 200}, nil); err == nil {
		t.Error("empty Currents accepted")
	}
	if _, err := p.Evaluate(context.Background(), OpPoint{Omega: 200, Currents: []float64{1, 1}}, nil); err == nil {
		t.Error("zoned point accepted without zoning")
	}
}

// TestROMFallsThrough pins the chain: the ROM answers in-hull scalar
// points itself, delegates runaway-adjacent and zoned points to full, and
// Authoritative/ModelOf resolve through it.
func TestROMFallsThrough(t *testing.T) {
	p := testPlant(t, "rom", "Basicmath")
	rom := p.(*ROM)
	cfg := p.Config()

	if auth := Authoritative(rom); auth != rom.full {
		t.Errorf("Authoritative(rom) = %T %v, want the full backend", auth, auth)
	}
	if m, ok := ModelOf(rom); !ok || m != rom.full.Model() {
		t.Error("ModelOf did not resolve through the fall-through chain")
	}

	in := Scalar(0.7*cfg.Fan.OmegaMax, 0.5*cfg.TEC.MaxCurrent)
	if _, err := p.Evaluate(context.Background(), in, nil); err != nil {
		t.Fatal(err)
	}
	if s := rom.ROMStats(); s.Evaluations != 1 || s.Rejections != 0 {
		t.Errorf("in-hull point not served reduced: %+v", s)
	}

	// ω≈0 is below the snapshot floor: the ROM must reject and the full
	// backend must classify the point (runaway), transparently.
	res, err := p.Evaluate(context.Background(), Scalar(0.1, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Runaway {
		t.Error("near-zero fan speed did not run away")
	}
	if s := rom.ROMStats(); s.Rejections != 1 {
		t.Errorf("fall-through not counted: %+v", s)
	}

	// Selection is symmetric.
	fullEv, err := rom.Select("full")
	if err != nil || fullEv != Evaluator(rom.full) {
		t.Errorf("Select(full) = %v, %v", fullEv, err)
	}
	romEv, err := rom.full.Select("rom")
	if err != nil || romEv != Evaluator(rom) {
		t.Errorf("full.Select(rom) = %v, %v (want the one lazily built sibling)", romEv, err)
	}
}
