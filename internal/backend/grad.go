package backend

import (
	"context"

	"oftec/internal/thermal"
)

// GradEvaluator is the capability of computing exact adjoint gradients of
// the two optimizer objectives at an operating point: ∇𝒫 and ∇𝒯_τ over
// x = (ω, I₁..I_k), one adjoint solve per objective on the cached
// factorization (see thermal.Model.SolveGrad).
//
// Only backends whose evaluation IS the full linear solve can offer the
// capability — the ROM's reduced system has different adjoints than the
// plant it approximates — so approximate backends simply do not implement
// it and GradientOf falls through to their authoritative sibling.
type GradEvaluator interface {
	EvaluateGrad(ctx context.Context, op OpPoint) (*thermal.Gradient, error)
}

// GradientOf walks ev's fall-through chain and returns the first backend
// offering adjoint gradients. A ROM (or any decorated evaluator) that
// cannot differentiate itself resolves to the full backend underneath it;
// a chain with no gradient-capable member reports false and the caller
// stays on finite differences.
func GradientOf(ev Evaluator) (GradEvaluator, bool) {
	for ev != nil {
		if g, ok := ev.(GradEvaluator); ok {
			return g, true
		}
		f, ok := ev.(Fallthrough)
		if !ok {
			return nil, false
		}
		next := f.Fallthrough()
		if next == ev {
			return nil, false
		}
		ev = next
	}
	return nil, false
}
