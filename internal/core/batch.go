package core

import (
	"context"

	"oftec/internal/backend"
	"oftec/internal/evalcache"
	"oftec/internal/solver"
	"oftec/internal/thermal"
)

// EvaluateBatchContext evaluates a block of scalar operating points
// through the shared cache in one call: hits and in-batch duplicates are
// classified under one lock, and the unique misses run as blocked
// multi-RHS solves when the backend has the BatchEvaluator capability
// (per-point solves otherwise). results[i] corresponds to ops[i].
func (s *System) EvaluateBatchContext(ctx context.Context, ops []backend.OpPoint, warm []float64) ([]*thermal.Result, error) {
	return s.scalar.EvaluateBatch(ctx, ops, warm)
}

// primeStartBatch warms the shared cache with the operating points every
// threshold probe of a Pareto sweep evaluates first — the domain center,
// plus the corner starts under MultiStart — submitted as one block, so
// concurrent Runs begin on cache hits instead of racing the singleflight
// and the start points share one assembly per fan speed. Best-effort:
// any failure simply surfaces in the real runs.
func (s *System) primeStartBatch(ctx context.Context, bnd *evalcache.Binding, opts Options, k int) {
	lower, upper, err := s.bounds(opts.Mode, opts.fixedOmega(), k)
	if err != nil {
		return
	}
	center := make([]float64, 1+k)
	for i := range center {
		center[i] = (lower[i] + upper[i]) / 2
	}
	starts := [][]float64{center}
	if opts.MultiStart {
		p := &solver.Problem{
			F:     func([]float64) float64 { return 0 },
			Lower: lower,
			Upper: upper,
		}
		// CornerStarts leads with the center we already have.
		if corners, err := solver.CornerStarts(p, 0.05); err == nil {
			starts = append(starts, corners[1:]...)
		}
	}
	ops := make([]backend.OpPoint, len(starts))
	for i, x := range starts {
		ops[i] = backend.OpPoint{Omega: x[0], Currents: append([]float64(nil), x[1:]...)}
	}
	//lint:ignore errdrop priming is advisory: a failed warm-up just means workers solve cold
	_, _ = bnd.EvaluateBatch(ctx, ops, nil)
}
