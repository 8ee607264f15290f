package thermal

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"oftec/internal/units"
	"oftec/internal/workload"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := testConfig()
	orig.Leakage.UnitMultipliers = map[string]float64{"Icache": 1.8, "Dcache": 1.8}

	var buf bytes.Buffer
	if err := SaveConfig(&buf, orig); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Ambient != orig.Ambient || loaded.TMax != orig.TMax {
		t.Errorf("temperatures drifted: %+v", loaded)
	}
	if loaded.ChipRes != orig.ChipRes {
		t.Errorf("resolution drifted: %d", loaded.ChipRes)
	}
	if loaded.TEC.SeebeckPerArea != orig.TEC.SeebeckPerArea {
		t.Errorf("TEC spec drifted")
	}
	if loaded.Floorplan.NumUnits() != orig.Floorplan.NumUnits() {
		t.Errorf("floorplan drifted: %d units", loaded.Floorplan.NumUnits())
	}
	if loaded.Leakage.UnitMultipliers["Icache"] != 1.8 {
		t.Errorf("leakage multipliers drifted: %v", loaded.Leakage.UnitMultipliers)
	}
	if got := len(loaded.TEC.Uncovered); got != len(orig.TEC.Uncovered) {
		t.Errorf("uncovered list drifted: %d entries", got)
	}

	// A loaded config must build an equivalent model.
	b, err := workload.ByName("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.PowerMap(loaded.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewModel(orig, pm)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewModel(loaded, pm)
	if err != nil {
		t.Fatal(err)
	}
	omega := units.RPMToRadPerSec(2000)
	r1, err := solveOne(m1, nil, scalarPt(omega, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := solveOne(m2, nil, scalarPt(omega, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.MaxChipTemp-r2.MaxChipTemp) > 1e-6 {
		t.Errorf("round-tripped config changes physics: %g vs %g", r1.MaxChipTemp, r2.MaxChipTemp)
	}
}

func TestLoadConfigRejectsGarbage(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"Ambient": -5}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := LoadConfig(strings.NewReader(`{"NoSuchField": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestLeakageMultipliersShiftLeakage(t *testing.T) {
	cfg := testConfig()
	b, err := workload.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.PowerMap(cfg.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewModel(cfg, pm)
	if err != nil {
		t.Fatal(err)
	}

	hot := testConfig()
	hot.Leakage.UnitMultipliers = map[string]float64{"L2": 3.0}
	hotModel, err := NewModel(hot, pm)
	if err != nil {
		t.Fatal(err)
	}
	if hotModel.TotalLeakageSlope() <= base.TotalLeakageSlope() {
		t.Errorf("tripling L2 leakage did not raise the total slope: %g vs %g",
			hotModel.TotalLeakageSlope(), base.TotalLeakageSlope())
	}

	// Zeroing every unit's leakage must null the slope entirely.
	none := testConfig()
	none.Leakage.UnitMultipliers = map[string]float64{}
	for _, u := range none.Floorplan.Units() {
		none.Leakage.UnitMultipliers[u.Name] = 0
	}
	noneModel, err := NewModel(none, pm)
	if err != nil {
		t.Fatal(err)
	}
	if s := noneModel.TotalLeakageSlope(); s > 1e-9 {
		t.Errorf("zero multipliers left slope %g", s)
	}
}

func TestLeakageMultiplierValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Leakage.UnitMultipliers = map[string]float64{"Nonesuch": 1}
	if err := cfg.Validate(); err == nil {
		t.Error("unknown unit accepted")
	}
	cfg = testConfig()
	cfg.Leakage.UnitMultipliers = map[string]float64{"L2": -1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative multiplier accepted")
	}
}
