// Package core implements OFTEC (Algorithm 1 of the paper): the joint
// optimization of fan speed ω and TEC driving current I_TEC that minimizes
// the cooling power 𝒫 = P_leakage + P_TEC + P_fan subject to the thermal
// constraint (Optimization 1), bootstrapped by the maximum-temperature
// minimization (Optimization 2) that supplies a feasible starting point.
// The package also implements the paper's two baselines (variable-speed
// fan without TECs, fixed-speed fan without TECs) and the TEC-only system
// used to demonstrate thermal runaway.
//
// The optimizer never touches the thermal model directly: every steady
// state comes from a backend.Evaluator ("full" or "rom") behind the shared
// evalcache, so the scalar and zoned paths — and any backend the caller
// selects — share one bounded cache and one set of statistics.
package core

import (
	"context"
	"fmt"
	"sync"

	"oftec/internal/backend"
	"oftec/internal/evalcache"
	"oftec/internal/solver"
	"oftec/internal/thermal"
)

// Mode selects which actuators the controller may use. The paper's
// fairness adjustment (baselines keep the TEC stack's conduction, with the
// modules unpowered) makes every mode share one thermal network: a mode is
// a restriction of the decision space, with I_TEC = 0 recovering pure
// conduction through the TEC layer.
type Mode int

const (
	// ModeHybrid optimizes both ω and I_TEC (OFTEC).
	ModeHybrid Mode = iota
	// ModeVariableFan optimizes ω with the TECs unpowered (baseline 1).
	ModeVariableFan
	// ModeFixedFan pins ω to FixedOmega with the TECs unpowered (baseline 2).
	ModeFixedFan
	// ModeTECOnly optimizes I_TEC with the fan off (the runaway demo).
	ModeTECOnly
)

// String names the mode as the paper's figures label it.
func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "OFTEC"
	case ModeVariableFan:
		return "Var. ω"
	case ModeFixedFan:
		return "Fixed ω"
	case ModeTECOnly:
		return "TEC only"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Method selects the nonlinear programming technique (Section 5.2).
type Method int

const (
	// MethodSQP is the active-set SQP method the paper selected.
	MethodSQP Method = iota
	// MethodInteriorPoint is the log-barrier comparator.
	MethodInteriorPoint
	// MethodTrustRegion is the trust-region comparator.
	MethodTrustRegion
	// MethodNelderMead is a derivative-free comparator (not in the paper;
	// used for verification).
	MethodNelderMead
	// MethodHookeJeeves is a derivative-free pattern-search comparator.
	MethodHookeJeeves
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodSQP:
		return "active-set SQP"
	case MethodInteriorPoint:
		return "interior point"
	case MethodTrustRegion:
		return "trust region"
	case MethodNelderMead:
		return "Nelder-Mead"
	case MethodHookeJeeves:
		return "Hooke-Jeeves"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

func (m Method) run(p *solver.Problem, x0 []float64, opts solver.Options) (solver.Report, error) {
	switch m {
	case MethodSQP:
		return solver.ActiveSetSQP(p, x0, opts)
	case MethodInteriorPoint:
		return solver.InteriorPoint(p, x0, opts)
	case MethodTrustRegion:
		return solver.TrustRegion(p, x0, opts)
	case MethodNelderMead:
		return solver.NelderMead(p, x0, opts)
	case MethodHookeJeeves:
		return solver.HookeJeeves(p, x0, opts)
	default:
		return solver.Report{}, fmt.Errorf("core: unknown method %d", int(m))
	}
}

// chainName is the short stage label used in fallback chains; it matches
// the cmd/oftec -method spelling for the method.
func (m Method) chainName() string {
	switch m {
	case MethodSQP:
		return "sqp"
	case MethodInteriorPoint:
		return "interior"
	case MethodTrustRegion:
		return "trust"
	case MethodNelderMead:
		return "neldermead"
	case MethodHookeJeeves:
		return "hooke"
	default:
		return fmt.Sprintf("method-%d", int(m))
	}
}

// fallbackChain builds the degradation ladder for a run with
// Options.Fallback: the selected method first, then the solver package's
// default chain (SQP → interior point → Hooke-Jeeves) with the selected
// method deduplicated, so every chain ends in the derivative-free stage.
func (m Method) fallbackChain() []solver.NamedRunner {
	chain := []solver.NamedRunner{{Name: m.chainName(), Run: m.run}}
	for _, stage := range solver.DefaultFallbackChain() {
		if stage.Name == m.chainName() {
			continue
		}
		chain = append(chain, stage)
	}
	return chain
}

// System couples a thermal backend with the optimization machinery. All
// steady-state evaluations — scalar and zoned, from every backend the
// caller selects — go through one shared evalcache.Cache, so the objective
// and constraint share one backend solve per operating point. It is safe
// for concurrent use: concurrent misses on the same quantized key coalesce
// onto a single in-flight solve (singleflight), and the bounded cache
// evicts by rotating generations so at most half the working set is
// dropped at once — never the whole cache mid-optimization.
type System struct {
	ev     backend.Evaluator
	cache  *evalcache.Cache
	scalar *evalcache.Binding

	// selections memoizes Options.Backend resolutions so repeated runs on
	// the same System reuse one binding (and its cache space) per backend.
	selMu      sync.Mutex
	selections map[string]selection

	// zoned memoizes zoned bindings per (backend, zoning), so repeated
	// zoned runs and evaluations — every optimize request a service
	// answers for the same chip and zoning — share one cache key space
	// instead of opening a fresh one per call.
	zonedMu sync.Mutex
	zoned   map[zonedKey]*evalcache.Binding

	// solveHook, when non-nil, runs immediately before each underlying
	// scalar backend solve — i.e. exactly once per deduplicated cache
	// miss. Test instrumentation only; set before any traffic.
	solveHook func(omega, itec float64)

	// paretoRunHook, when non-nil, replaces Run for ParetoFront's
	// per-threshold solves, so tests can fault-inject specific thresholds.
	// Test instrumentation only; set before any traffic.
	paretoRunHook func(o Options) (*Outcome, error)
}

// zonedKey identifies one memoized zoned binding: the Options.Backend
// name it was resolved under and the zoning identity.
type zonedKey struct {
	backend string
	zoning  *thermal.Zoning
}

type selection struct {
	ev  backend.Evaluator
	bnd *evalcache.Binding
}

// CacheStats counts evaluation-cache traffic; totals are cumulative for
// the System's lifetime, across the scalar and zoned paths and every
// selected backend.
type CacheStats = evalcache.Stats

// NewSystem wraps a thermal backend (see backend.FromModel / backend.New).
func NewSystem(ev backend.Evaluator) *System { return newSystemCap(ev, 0) }

// NewSystemShared wraps a backend over a caller-owned evaluation cache,
// so several Systems — one per chip configuration in a model pool — share
// one bounded cache, one eviction budget, and one set of traffic
// statistics, and cross-System duplicate operating points coalesce. The
// cache's solve hook is left untouched (the owner may have metrics
// attached); the per-System solveHook test seam is inert on shared
// systems.
func NewSystemShared(ev backend.Evaluator, cache *evalcache.Cache) *System {
	return &System{
		ev:         ev,
		cache:      cache,
		scalar:     cache.Bind(ev),
		selections: map[string]selection{},
		zoned:      map[zonedKey]*evalcache.Binding{},
	}
}

// newSystemCap is NewSystem with an explicit per-generation cache
// capacity; zero selects the default. Tests use small capacities to
// exercise eviction.
func newSystemCap(ev backend.Evaluator, capacity int) *System {
	s := &System{
		ev:         ev,
		cache:      evalcache.New(capacity),
		selections: map[string]selection{},
		zoned:      map[zonedKey]*evalcache.Binding{},
	}
	s.cache.SetSolveHook(func(op backend.OpPoint) {
		if h := s.solveHook; h != nil && op.K() == 1 {
			h(op.Omega, op.Currents[0])
		}
	})
	s.scalar = s.cache.Bind(ev)
	return s
}

// Backend returns the evaluator the system was built on.
func (s *System) Backend() backend.Evaluator { return s.ev }

// Config returns the thermal configuration under optimization.
func (s *System) Config() thermal.Config { return s.ev.Config() }

// CacheStats returns a snapshot of the evaluation-cache counters.
func (s *System) CacheStats() CacheStats { return s.cache.Stats() }

// Evaluate returns the (cached) steady state at a scalar operating point,
// using the system's default backend. Concurrent callers requesting the
// same quantized point share one solve.
func (s *System) Evaluate(omega, itec float64) (*thermal.Result, error) {
	return s.scalar.Evaluate(context.Background(), backend.Scalar(omega, itec), nil)
}

// EvaluateContext is Evaluate bounded by a caller context: a cancelled
// ctx releases coalesced waiters immediately (the leader's solve runs to
// completion for the benefit of other callers). Service request paths use
// this so a client deadline never wedges a handler on someone else's
// solve.
func (s *System) EvaluateContext(ctx context.Context, omega, itec float64) (*thermal.Result, error) {
	return s.scalar.Evaluate(ctx, backend.Scalar(omega, itec), nil)
}

// EvaluateZonedContext evaluates a zoned operating point (one current per
// zone) through the shared cache under a caller context. The binding for
// each zoning is memoized, so repeated calls with one zoning — a service
// answering many requests for the same chip — share one cache key space
// and coalesce duplicates.
func (s *System) EvaluateZonedContext(ctx context.Context, zoning *thermal.Zoning, omega float64, currents []float64) (*thermal.Result, error) {
	bnd, err := s.zonedBinding("", zoning)
	if err != nil {
		return nil, err
	}
	return bnd.Evaluate(ctx, backend.OpPoint{Omega: omega, Currents: currents}, nil)
}

// zonedBinding resolves (backend name, zoning) to its cached evaluator,
// memoized for the System's lifetime.
func (s *System) zonedBinding(name string, zoning *thermal.Zoning) (*evalcache.Binding, error) {
	if zoning == nil {
		return nil, fmt.Errorf("core: zoned evaluation needs a zoning")
	}
	zk := zonedKey{backend: name, zoning: zoning}
	s.zonedMu.Lock()
	defer s.zonedMu.Unlock()
	if bnd, ok := s.zoned[zk]; ok {
		return bnd, nil
	}
	sel, err := s.binding(name)
	if err != nil {
		return nil, err
	}
	zoner, ok := sel.ev.(backend.Zoner)
	if !ok {
		return nil, fmt.Errorf("core: backend %q cannot evaluate zoned operating points", sel.ev.Name())
	}
	zev, err := zoner.WithZoning(zoning)
	if err != nil {
		return nil, err
	}
	bnd := s.cache.Bind(zev)
	s.zoned[zk] = bnd
	return bnd, nil
}

// binding resolves an Options.Backend name to a cached evaluator: the
// empty name (or the system's own backend name) is the system's default;
// anything else goes through the backend's Selector capability, memoized
// so repeated runs share one cache space per backend.
func (s *System) binding(name string) (selection, error) {
	if name == "" || name == s.ev.Name() {
		return selection{ev: s.ev, bnd: s.scalar}, nil
	}
	s.selMu.Lock()
	defer s.selMu.Unlock()
	if sel, ok := s.selections[name]; ok {
		return sel, nil
	}
	selector, ok := s.ev.(backend.Selector)
	if !ok {
		return selection{}, fmt.Errorf("core: backend %q cannot select %q", s.ev.Name(), name)
	}
	ev, err := selector.Select(name)
	if err != nil {
		return selection{}, err
	}
	sel := selection{ev: ev, bnd: s.cache.Bind(ev)}
	s.selections[name] = sel
	return sel, nil
}

// vecEval abstracts the steady-state evaluation of a decision vector
// x = (ω, I_1..I_k) so runVector can swap the plain cached path for a
// warm-start carry (Options.WarmStart).
type vecEval func(x []float64) (*thermal.Result, error)

// bindingEval evaluates through the shared cache with no warm hint.
func bindingEval(bnd *evalcache.Binding) vecEval {
	return func(x []float64) (*thermal.Result, error) {
		return bnd.Evaluate(context.Background(), backend.OpPoint{Omega: x[0], Currents: x[1:]}, nil)
	}
}

// maxTempObj is the 𝒯 objective; runaway maps to the Infeasible sentinel.
func maxTempObj(eval vecEval, x []float64) float64 {
	r, err := eval(x)
	if err != nil || r.Runaway {
		return solver.Infeasible
	}
	return r.MaxChipTemp
}

// coolingPowerObj is the 𝒫 objective.
func coolingPowerObj(eval vecEval, x []float64) float64 {
	r, err := eval(x)
	if err != nil || r.Runaway {
		return solver.Infeasible
	}
	return r.CoolingPower()
}

// maxTemp is the scalar 𝒯 objective on the plain cached path.
func (s *System) maxTemp(omega, itec float64) float64 {
	return maxTempObj(bindingEval(s.scalar), []float64{omega, itec})
}

// coolingPower is the scalar 𝒫 objective on the plain cached path.
func (s *System) coolingPower(omega, itec float64) float64 {
	return coolingPowerObj(bindingEval(s.scalar), []float64{omega, itec})
}

// warmCarry hands each solve the previous converged temperature field as
// its starting point — the optimizer's line searches move in small steps,
// so consecutive solves are near each other and the iterative solver
// converges in a fraction of the iterations. Safe for concurrent use
// (MultiStart's corner launch shares one carry): the carry is advisory
// only, so racing updates change which hint the next cold solve starts
// from, never the converged result beyond solver tolerance.
type warmCarry struct {
	bnd *evalcache.Binding

	mu sync.Mutex
	t  []float64
}

func (w *warmCarry) evaluate(x []float64) (*thermal.Result, error) {
	w.mu.Lock()
	warm := w.t
	w.mu.Unlock()
	res, err := w.bnd.Evaluate(context.Background(), backend.OpPoint{Omega: x[0], Currents: x[1:]}, warm)
	if err == nil && !res.Runaway && res.T != nil {
		// Result fields are shared and immutable; the backend only reads
		// the hint, so carrying the slice forward is safe.
		w.mu.Lock()
		w.t = res.T
		w.mu.Unlock()
	}
	return res, err
}

// bounds returns the decision-variable box for a mode over k control
// zones; x = (ω, I_1..I_k). Every zone shares the mode's current limits —
// a mode restricts actuators, not the zone layout.
func (s *System) bounds(mode Mode, fixedOmega float64, k int) (lower, upper []float64, err error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("core: bounds need at least one control zone, got %d", k)
	}
	cfg := s.ev.Config()
	lower = make([]float64, 1+k)
	upper = make([]float64, 1+k)
	setCurrents := func(limit float64) {
		for i := 1; i <= k; i++ {
			upper[i] = limit
		}
	}
	uMax := cfg.UMax()
	switch mode {
	case ModeHybrid:
		upper[0] = uMax
		setCurrents(cfg.TEC.MaxCurrent)
	case ModeVariableFan:
		upper[0] = uMax
	case ModeFixedFan:
		if fixedOmega < 0 || fixedOmega > uMax {
			return nil, nil, fmt.Errorf("core: fixed actuator command %g outside [0, %g]", fixedOmega, uMax)
		}
		lower[0], upper[0] = fixedOmega, fixedOmega
	case ModeTECOnly:
		setCurrents(cfg.TEC.MaxCurrent)
	default:
		return nil, nil, fmt.Errorf("core: unknown mode %d", int(mode))
	}
	return lower, upper, nil
}
