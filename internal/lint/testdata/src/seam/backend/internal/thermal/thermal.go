// Package thermal is a stand-in for the real physics package: the
// seam analyzer matches the Model type by name and import-path
// suffix, so the fixture only needs the shapes, not the physics.
package thermal

type Config struct{ Ambient float64 }

type Result struct{ MaxChipTemp float64 }

type Model struct{ cfg Config }

func NewModel(cfg Config) (*Model, error) { return &Model{cfg: cfg}, nil }

func (m *Model) NumTEC() int   { return 0 }
func (m *Model) Config() Config { return m.cfg }

func (m *Model) Evaluate(omega, itec float64) (*Result, error) { return &Result{}, nil }
