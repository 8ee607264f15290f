package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"oftec/internal/backend"
	"oftec/internal/experiments"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// The reference answers were computed once by `perfbench -write-refs
// refs` on the commit that introduced the benchmark; the paper variant's
// optimize references reproduce REPORT.md (refs_test.go pins that).
//
//go:embed refs/optimize.json refs/surface.json
var refFS embed.FS

// optRef is the reference answer of one optimize cell.
type optRef struct {
	Feasible     bool     `json:"feasible"`
	FailedAtOpt2 bool     `json:"failed_at_opt2"`
	PowerW       *float64 `json:"power_w"` // nil: thermal runaway (𝒫 = +Inf)
}

// surfRef is the reference value of one surface point.
type surfRef struct {
	I       int     `json:"i"` // ω index
	J       int     `json:"j"` // current index
	MaxTemp float64 `json:"max_temp_k,omitempty"`
	Power   float64 `json:"power_w,omitempty"`
	Runaway bool    `json:"runaway,omitempty"`
}

// Tolerances of the output checks.
const (
	powerTolW   = 0.01 // optimize 𝒫 against its reference
	surfRelTol  = 1e-6 // surface 𝒯 and 𝒫 against their references
	surfaceGrid = 40   // the Fig. 6(a)/(b) grid is surfaceGrid × surfaceGrid
)

func loadOptimizeRefs() (map[string]optRef, error) {
	var refs map[string]optRef
	return refs, loadRef("refs/optimize.json", &refs)
}

func loadSurfaceRefs() (map[string][]surfRef, error) {
	var refs map[string][]surfRef
	return refs, loadRef("refs/surface.json", &refs)
}

func loadRef(name string, v any) error {
	data, err := refFS.ReadFile(name)
	if err != nil {
		return fmt.Errorf("reading %s: %w", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", name, err)
	}
	return nil
}

// optCheck is what an optimize operation is checked on.
type optCheck struct {
	feasible, failedAtOpt2 bool
	result                 *thermal.Result
}

// check compares an optimize answer with its reference: the feasibility
// verdict must match, 𝒫 must agree within powerTolW (or both be
// infinite; the adjoint forms may also come in lower), and a feasible
// point must keep every chip cell at or below the variant's T_max.
func (o *optimizer) check(c optCell, v variant, chk optCheck) error {
	ref, ok := o.refs[c.key()]
	if !ok {
		return fmt.Errorf("%s: no reference answer", c.key())
	}
	if chk.result == nil {
		return fmt.Errorf("%s: no result", c.key())
	}
	if chk.feasible != ref.Feasible || chk.failedAtOpt2 != ref.FailedAtOpt2 {
		return fmt.Errorf("%s: verdict feasible=%v failed_at_opt2=%v, reference %v/%v",
			c.key(), chk.feasible, chk.failedAtOpt2, ref.Feasible, ref.FailedAtOpt2)
	}
	p := chk.result.CoolingPower()
	switch {
	case ref.PowerW == nil && !math.IsInf(p, 1):
		return fmt.Errorf("%s: 𝒫 = %.4f W, reference is thermal runaway", c.key(), p)
	case ref.PowerW == nil:
	case c.Form != formPaper && p < *ref.PowerW:
		// The adjoint forms are not pinned to published numbers: a
		// lower 𝒫 at a feasible point is a better optimum, not a fault.
	case !(math.Abs(p-*ref.PowerW) <= powerTolW):
		return fmt.Errorf("%s: 𝒫 = %.4f W, reference %.4f W", c.key(), p, *ref.PowerW)
	}
	if chk.feasible && !(chk.result.MaxChipTemp <= units.CToK(v.TMaxC)) {
		return fmt.Errorf("%s: feasible point at %.3f °C exceeds T_max %g °C", c.key(), units.KToC(chk.result.MaxChipTemp), v.TMaxC)
	}
	return nil
}

// checkSurfacePoint compares one swept point with its reference.
func checkSurfacePoint(bench string, got experiments.SurfacePoint, ref surfRef) error {
	if got.Runaway != ref.Runaway {
		return fmt.Errorf("surface %s (%d,%d): runaway=%v, reference %v", bench, ref.I, ref.J, got.Runaway, ref.Runaway)
	}
	if ref.Runaway {
		return nil
	}
	if !relClose(got.MaxTemp, ref.MaxTemp, surfRelTol) || !relClose(got.Power, ref.Power, surfRelTol) {
		return fmt.Errorf("surface %s (%d,%d): 𝒯=%.9g K 𝒫=%.9g W, reference %.9g K %.9g W",
			bench, ref.I, ref.J, got.MaxTemp, got.Power, ref.MaxTemp, ref.Power)
	}
	return nil
}

// relClose reports |a−b| ≤ tol·|b| (false for NaN).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Abs(b)
}

// onLattice selects the stored surface points: one in sixteen, spread
// over both axes.
func onLattice(i, j int) bool { return (i+3*j)%16 == 0 }

// writeReferences recomputes every reference answer and writes the JSON
// files into dir.
func writeReferences(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	romDir, err := runDir("rom-")
	if err != nil {
		return err
	}
	defer removeAll(romDir)
	backend.SetROMCacheDir(romDir)

	o := &optimizer{}
	opt := map[string]optRef{}
	for _, c := range newOpStream(append(paperCells(), adjointCells()...), 0).pairs {
		if _, done := opt[c.key()]; done {
			continue
		}
		chk, err := o.answer(c)
		if err != nil {
			return err
		}
		ref := optRef{Feasible: chk.feasible, FailedAtOpt2: chk.failedAtOpt2}
		if p := chk.result.CoolingPower(); !math.IsInf(p, 1) {
			ref.PowerW = &p
		}
		opt[c.key()] = ref
	}
	if err := writeJSON(filepath.Join(dir, "optimize.json"), opt); err != nil {
		return err
	}

	surf := map[string][]surfRef{}
	for _, b := range workload.All() {
		sys, err := experiments.DefaultSetup().System(b.Name)
		if err != nil {
			return err
		}
		pts, err := experiments.SurfaceSystem(context.Background(), sys, surfaceGrid, surfaceGrid, 0)
		if err != nil {
			return err
		}
		for i := 0; i < surfaceGrid; i++ {
			for j := 0; j < surfaceGrid; j++ {
				if !onLattice(i, j) {
					continue
				}
				p := pts[i*surfaceGrid+j]
				r := surfRef{I: i, J: j, Runaway: p.Runaway}
				if !p.Runaway {
					r.MaxTemp, r.Power = p.MaxTemp, p.Power
				}
				surf[b.Name] = append(surf[b.Name], r)
			}
		}
	}
	// Compact: the surface values are read by the harness, not by people.
	data, err := json.Marshal(surf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "surface.json"), append(data, '\n'), 0o644)
}

// answer runs one optimize cell untimed and returns what it is checked on.
func (o *optimizer) answer(c optCell) (optCheck, error) {
	r := o.run(c, 0, nil)
	if r.chk.result == nil {
		return r.chk, fmt.Errorf("%s: no answer: %v", c.key(), r.err)
	}
	return r.chk, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
