package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/parallel"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// SensitivityRow is one point of the TEC-quality sensitivity study: how
// OFTEC's achievable cooling power depends on the thermoelectric
// material's Seebeck coefficient (the lever device research pushes —
// Section 3: "most [work] focuses on improving the material"). At
// SeebeckScale = 0 the hybrid system degenerates to the fan-only baseline
// plus passive TEC conduction.
type SensitivityRow struct {
	// SeebeckScale multiplies the deployment's areal Seebeck coefficient.
	SeebeckScale float64
	Feasible     bool
	PowerW       float64
	MaxTempC     float64
	ITEC         float64
	OmegaRPM     float64
}

// SeebeckSensitivity runs OFTEC on one benchmark across a sweep of Seebeck
// scalings. Each scale builds its own model, so the sweep fans out across
// GOMAXPROCS workers; rows come back in the caller's scale order.
func SeebeckSensitivity(s Setup, benchName string, scales []float64) ([]SensitivityRow, error) {
	if len(scales) == 0 {
		return nil, fmt.Errorf("experiments: sensitivity sweep needs at least one scale")
	}
	b, err := workload.ByName(benchName)
	if err != nil {
		return nil, err
	}
	for _, scale := range scales {
		if scale < 0 {
			return nil, fmt.Errorf("experiments: Seebeck scale %g must be non-negative", scale)
		}
	}
	rows := make([]SensitivityRow, len(scales))
	err = parallel.ForEach(context.Background(), len(scales), 0, func(i int) error {
		scale := scales[i]
		cfg := s.Config
		if scale == 0 {
			// α must stay positive for validation; a vanishing coefficient
			// models "passive stack only".
			cfg.TEC.SeebeckPerArea = 1e-9
		} else {
			cfg.TEC.SeebeckPerArea *= scale
		}
		pm, err := b.PowerMap(cfg.Floorplan)
		if err != nil {
			return err
		}
		ev, err := backend.New(s.Backend, cfg, pm)
		if err != nil {
			return err
		}
		out, err := core.NewSystem(ev).Run(core.Options{Mode: core.ModeHybrid})
		if err != nil {
			return fmt.Errorf("experiments: sensitivity scale %g: %w", scale, err)
		}
		row := SensitivityRow{SeebeckScale: scale, Feasible: out.Feasible,
			PowerW: math.Inf(1), MaxTempC: math.Inf(1)}
		if out.Result != nil && !out.Result.Runaway {
			row.PowerW = out.Result.CoolingPower()
			row.MaxTempC = units.KToC(out.Result.MaxChipTemp)
			row.ITEC = out.ITEC
			row.OmegaRPM = units.RadPerSecToRPM(out.Omega)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// WriteSensitivityTable renders the sweep.
func WriteSensitivityTable(w io.Writer, benchName string, rows []SensitivityRow) error {
	if _, err := fmt.Fprintf(w, "Seebeck sensitivity on %s\n", benchName); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "α scale\tfeasible\t𝒫(W)\tTmax(°C)\tω*(RPM)\tI*(A)")
	for _, r := range rows {
		pw, tm := "—", "—"
		if !math.IsInf(r.PowerW, 1) {
			pw = fmt.Sprintf("%.2f", r.PowerW)
			tm = fmt.Sprintf("%.2f", r.MaxTempC)
		}
		fmt.Fprintf(tw, "%.2f\t%t\t%s\t%s\t%.0f\t%.2f\n",
			r.SeebeckScale, r.Feasible, pw, tm, r.OmegaRPM, r.ITEC)
	}
	return tw.Flush()
}

// CoverageRow is one point of the deployment-coverage study (refs [6][7]
// via the paper's Section 6.1 deployment choice): which units carry TEC
// modules, and what the optimizer achieves with that deployment.
type CoverageRow struct {
	Name      string
	NumTEC    int
	Feasible  bool
	PowerW    float64
	MaxTempC  float64
	TECPowerW float64
}

// WriteCoverageTable renders the deployment comparison.
func WriteCoverageTable(w io.Writer, benchName string, rows []CoverageRow) error {
	if _, err := fmt.Fprintf(w, "TEC deployment coverage on %s\n", benchName); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "deployment\tmodules\tfeasible\t𝒫(W)\tTmax(°C)\tP_TEC(W)")
	for _, r := range rows {
		pw, tm := "—", "—"
		if !math.IsInf(r.PowerW, 1) {
			pw = fmt.Sprintf("%.2f", r.PowerW)
			tm = fmt.Sprintf("%.2f", r.MaxTempC)
		}
		fmt.Fprintf(tw, "%s\t%d\t%t\t%s\t%s\t%.2f\n",
			r.Name, r.NumTEC, r.Feasible, pw, tm, r.TECPowerW)
	}
	return tw.Flush()
}

// CoverageStudy compares three deployments on one benchmark: modules
// everywhere, the paper's deployment (no caches), and an integer-cluster
// spot deployment.
func CoverageStudy(s Setup, benchName string) ([]CoverageRow, error) {
	b, err := workload.ByName(benchName)
	if err != nil {
		return nil, err
	}
	deployments := []struct {
		name      string
		uncovered []string
	}{
		{"full coverage", nil},
		{"paper (no caches)", []string{"Icache", "Dcache"}},
		{"int cluster only", []string{
			"L2_left", "L2", "L2_right", "Icache", "ITB", "DTB", "Dcache",
			"FPAdd", "FPMul", "FPReg", "FPMap", "FPQ",
		}},
	}
	rows := make([]CoverageRow, len(deployments))
	err = parallel.ForEach(context.Background(), len(deployments), 0, func(i int) error {
		d := deployments[i]
		cfg := s.Config
		cfg.TEC.Uncovered = d.uncovered
		pm, err := b.PowerMap(cfg.Floorplan)
		if err != nil {
			return err
		}
		ev, err := backend.New(s.Backend, cfg, pm)
		if err != nil {
			return err
		}
		out, err := core.NewSystem(ev).Run(core.Options{Mode: core.ModeHybrid})
		if err != nil {
			return fmt.Errorf("experiments: coverage %q: %w", d.name, err)
		}
		numTEC := 0
		if m, ok := backend.ModelOf(ev); ok {
			// Module counting is model-only reporting with no backend
			// equivalent; the deployment study is about the model itself.
			//lint:ignore seam deployment reporting reads the model's TEC count
			numTEC = m.NumTEC()
		}
		row := CoverageRow{Name: d.name, NumTEC: numTEC, Feasible: out.Feasible,
			PowerW: math.Inf(1), MaxTempC: math.Inf(1)}
		if out.Result != nil && !out.Result.Runaway {
			row.PowerW = out.Result.CoolingPower()
			row.MaxTempC = units.KToC(out.Result.MaxChipTemp)
			row.TECPowerW = out.Result.PTEC
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
