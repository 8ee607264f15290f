package thermal

import (
	"bytes"
	"strings"
	"testing"

	"oftec/internal/units"
)

func TestWriteHeatmapCSV(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "FFT")
	res, err := solveOne(m, nil, scalarPt(units.RPMToRadPerSec(3000), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteHeatmapCSV(&buf, res, "chip"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := cfg.ChipRes*cfg.ChipRes + 1; len(lines) != want {
		t.Fatalf("got %d lines, want %d", len(lines), want)
	}
	if lines[0] != "row,col,x_mm,y_mm,temp_c" {
		t.Errorf("header %q", lines[0])
	}
	// Every plane must be exportable.
	for _, plane := range []string{"pcb", "tim1", "tec_abs", "tec_gen", "tec_rej", "spreader", "tim2", "sink"} {
		var b bytes.Buffer
		if err := m.WriteHeatmapCSV(&b, res, plane); err != nil {
			t.Errorf("plane %s: %v", plane, err)
		}
	}
	if err := m.WriteHeatmapCSV(&buf, res, "nonesuch"); err == nil {
		t.Error("unknown plane accepted")
	}
	runaway, err := solveOne(m, nil, scalarPt(0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteHeatmapCSV(&buf, runaway, "chip"); err == nil {
		t.Error("runaway result accepted")
	}
}
