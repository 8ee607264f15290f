// Package core is the scoped fixture: every way a thermal model can leak
// back across the backend seam, plus the crossings that stay legal.
package core

import (
	"fixture/internal/backend"
	"fixture/internal/thermal"
)

// A stored model re-couples the layers: flagged on the type reference.
type system struct {
	model *thermal.Model
}

// A model in a signature leaks it to every caller: flagged.
func build(cfg thermal.Config) (*thermal.Model, error) {
	return thermal.NewModel(cfg)
}

// A model smuggled through ModelOf has an inferred type — no "Model"
// identifier appears — so only the selection rule catches the call.
func smuggled(ev backend.Evaluator) int {
	m, ok := backend.ModelOf(ev)
	if !ok {
		return 0
	}
	return m.NumTEC()
}

// The sanctioned escape: model-only reporting behind a directive.
func sanctioned(ev backend.Evaluator) int {
	m, ok := backend.ModelOf(ev)
	if !ok {
		return 0
	}
	//lint:ignore seam fixture demonstrates the sanctioned escape
	return m.NumTEC()
}

// Data types cross the seam freely: Result and Config are answers, not
// the solver.
func allowed(ev backend.Evaluator, r *thermal.Result) float64 {
	cfg := ev.Config()
	return r.MaxChipTemp + cfg.Ambient
}

// A type assertion names the type: flagged.
func asserted(v interface{}) bool {
	_, ok := v.(*thermal.Model)
	return ok
}
