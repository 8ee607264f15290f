// Package fan is a stand-in for the real air-mover package: the seam
// analyzer matches the Fan and HeatSinkModel types by name and
// import-path suffix, so the fixture only needs the shapes.
package fan

type Fan struct{ OmegaMax float64 }

func (f Fan) Power(omega float64) float64 { return omega * omega * omega }

type HeatSinkModel struct{ GHS float64 }

func (h HeatSinkModel) Conductance(omega float64) float64 { return h.GHS }
