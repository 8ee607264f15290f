// Package controller is the scoped fixture: every way the fan types can
// leak past the coolant seam, plus the crossings that stay legal.
package controller

import (
	"fixture/internal/coolant"
	"fixture/internal/fan"
)

// A stored fan re-couples the consumer to one actuator: flagged on the
// type reference.
type dtm struct {
	fan fan.Fan
}

// Fan types in a signature leak them to every caller: flagged twice.
func build(f fan.Fan, h fan.HeatSinkModel) float64 {
	return f.Power(100)
}

// Carrying air parameters through the coolant aliases is legal — they are
// data — but *actuating* them directly is not: the method call on the
// alias value selects through the underlying fan type and is flagged.
func smuggled(spec coolant.FanSpec) float64 {
	return spec.Power(100)
}

// The sanctioned escape: air-only reporting behind a directive.
func sanctioned(spec coolant.FanSpec) float64 {
	//lint:ignore seam fixture demonstrates the sanctioned escape
	return spec.Power(100)
}

// The seam in use: holding alias-typed values and programming against the
// Actuator contract crosses nothing.
func allowed(spec coolant.FanSpec, sink coolant.HeatSinkSpec) float64 {
	var act coolant.Actuator = coolant.Air{Fan: spec, Sink: sink}
	return act.Power(100) + act.Conductance(100)
}

// A type assertion names the type: flagged.
func asserted(v interface{}) bool {
	_, ok := v.(fan.HeatSinkModel)
	return ok
}
