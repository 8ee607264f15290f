package thermal

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"oftec/internal/sparse"
)

// This file implements a reduced-order model (ROM) of the steady-state
// thermal network: a Galerkin projection of the full n-node system onto a
// low-dimensional basis spanned by full solutions ("snapshots") taken on a
// coarse (ω, I_TEC) grid at construction.
//
// The projection is exact in the parameters because the assembled system
// is affine in them (the same structure assembleInto patches):
//
//	A(ω, I) = A₀ + (g(ω) − g(0))·D_s + I·D_p
//	b(ω, I) = b₀ + (g(ω) − g(0))·b_s + I²·b_j
//
// where A₀, b₀ are the assembled system at (ω=0, I=0) with the Taylor
// leakage folded in, D_s is the diagonal sink-conductance split
// (frac_i at sink nodes), D_p the diagonal Peltier pattern (+α at
// TEC-cold nodes, −α at TEC-hot nodes), b_s the sink ambient injection
// (frac_i·T_amb), and b_j the Joule injection (R_i at the TEC mid plane).
// Projecting each term once at construction reduces every evaluation to a
// dense r×r solve plus an n·r reconstruction, with r ≈ a few dozen. The
// projection is galerkin.go's, which the batched engine shares.
//
// The ROM never silently returns a degraded answer: every evaluation
// reconstructs the full-space residual r = b − A·T̃ (one sparse
// matrix-vector product — no reassembly, thanks to the affine form) and
// converts it to a temperature-error estimate via the worst
// error-to-residual amplification observed on a held-out validation grid.
// If the estimate exceeds the advertised bound, or the reconstructed field
// looks like thermal runaway, Evaluate reports ok=false and the caller
// falls through to the full model.

// ROMOptions configures reduced-model construction. The zero value selects
// the defaults noted on each field.
type ROMOptions struct {
	// MaxRank caps the basis size (default 32).
	MaxRank int
	// SnapshotOmegas × SnapshotCurrents is the snapshot grid: fan speeds
	// span (0, ΩMax] (low speeds that hit thermal runaway are skipped and
	// set the ROM's ω floor), currents span [0, MaxCurrent].
	// Defaults 6 × 4.
	SnapshotOmegas   int
	SnapshotCurrents int
	// ValidateOmegas × ValidateCurrents is the held-out validation grid,
	// offset to the midpoints of the snapshot grid. It calibrates the
	// advertised error bound and the residual→error amplification factor.
	// Defaults 5 × 3.
	ValidateOmegas   int
	ValidateCurrents int
	// Safety multiplies the largest validation-grid error to give the
	// advertised bound (default 2).
	Safety float64
	// CacheDir, when set, enables basis persistence: construction first
	// tries to load a serialized basis + calibration content-addressed by
	// the model/options identity (see rompersist.go) from this directory,
	// skipping the snapshot-collection and calibration sweeps entirely; a
	// fresh build writes its basis back. Any load-time mismatch —
	// corruption, stale format, different identity, failed re-validation —
	// silently falls through to a full build.
	CacheDir string
	// CacheKey is folded into the identity hash, for callers whose model
	// identity has components outside Config + dynamic power (e.g. the
	// serving pool's canonical chip string).
	CacheKey string
	// MinBound floors the advertised bound (default 0.02 K). A basis that
	// nails the validation grid to microkelvins would otherwise advertise
	// a bound at solver-noise scale and reject perfectly good evaluations
	// after benign workload rescales; 20 mK keeps the contract physically
	// meaningful while staying well inside the controller's 50 mK
	// constraint margin.
	MinBound float64
}

func (o *ROMOptions) setDefaults() {
	if o.MaxRank <= 0 {
		o.MaxRank = 32
	}
	if o.SnapshotOmegas <= 0 {
		o.SnapshotOmegas = 6
	}
	if o.SnapshotCurrents <= 0 {
		o.SnapshotCurrents = 4
	}
	if o.ValidateOmegas <= 0 {
		o.ValidateOmegas = 5
	}
	if o.ValidateCurrents <= 0 {
		o.ValidateCurrents = 3
	}
	if o.Safety <= 0 {
		o.Safety = 2
	}
	if o.MinBound <= 0 {
		o.MinBound = 0.02
	}
}

// ROMStats counts reduced-model traffic. Rejections are evaluations that
// fell through to the full model (error estimate over bound, ω below the
// snapshot floor, or a runaway-looking reconstruction).
type ROMStats struct {
	Evaluations  int64
	Rejections   int64
	DynRefreshes int64
}

// ReducedModel is the constructed ROM. It is safe for concurrent Evaluate
// calls, like the Model it projects.
type ReducedModel struct {
	m    *Model
	rank int

	basis [][]float64 // rank orthonormal n-vectors

	// Affine pieces: full-space base operator (for the residual check) and
	// the projected system, whose terms are the sink split (VᵀD_sV, Vᵀb_s)
	// and the Peltier/Joule pattern (VᵀD_pV, Vᵀb_j).
	a0mat *sparse.CSR // A₀ with its own value copy
	g0    float64     // g(0): sink conductance already folded into A₀/b₀
	gal   galerkin

	omegaFloor float64 // smallest snapshot ω that did not run away
	bound      float64 // advertised max |T̃ − T| over chip cells, K
	kappa      float64 // worst validation |ΔT|∞ / ‖residual‖∞ amplification

	// Dynamic power enters b₀ only; the projected base RHS is refreshed
	// lazily when the model's dynamic-power generation moves, so the ROM
	// keeps serving online-control loops that call SetDynamicPower between
	// planning steps without rebuilding the basis. The residual guard
	// catches workloads whose spatial shape drifts outside the snapshot
	// manifold.
	dynMu  sync.Mutex
	dynGen uint64
	b0     []float64 // full-space base RHS at (0, 0); gal.b0 is Vᵀb₀

	evals      atomic.Int64
	rejections atomic.Int64
	refreshes  atomic.Int64

	scratch sync.Pool // *romScratch
}

// romScratch is one pooled per-evaluation workspace.
type romScratch struct {
	ar   [][]float64 // rank×rank reduced operator
	br   []float64   // reduced RHS
	work []float64   // full-space A₀·T̃ / residual workspace
}

// NewReducedModel builds a ROM over the model's operating box
// [0, ΩMax] × [0, MaxCurrent]. It fails if the snapshot grid yields no
// usable basis (for example, every snapshot in thermal runaway). With
// ROMOptions.CacheDir set, a previously persisted basis with a matching
// identity is loaded instead of collected (see rompersist.go), and a
// fresh build persists its basis for the next restart.
func NewReducedModel(m *Model, opts ROMOptions) (*ReducedModel, error) {
	opts.setDefaults()
	cfg := m.Config()
	omegaMax := m.act.UMax()
	iMax := cfg.TEC.MaxCurrent
	if omegaMax <= 0 {
		return nil, fmt.Errorf("thermal: ROM needs a positive fan speed range, got ΩMax=%g", omegaMax)
	}
	if opts.CacheDir != "" {
		if r, err := loadCachedROM(m, opts); err == nil {
			return r, nil
		}
		// Any load failure — missing file, corruption, stale format,
		// identity or bound mismatch — falls through to a full build.
	}
	r, err := buildReducedModel(m, opts, omegaMax, iMax)
	if err != nil {
		return nil, err
	}
	if opts.CacheDir != "" {
		// Best effort: a failed write (read-only dir, disk full) costs the
		// next restart a rebuild, never this construction.
		//lint:ignore errdrop a failed cache write only costs the next restart a rebuild
		_ = saveCachedROM(r, opts)
	}
	return r, nil
}

// newReducedShell captures the model-derived state shared by fresh
// builds and cache loads: the affine base pieces and the pooled scratch
// factory (which needs the rank, so callers invoke initScratch after the
// basis exists).
func newReducedShell(m *Model) (*ReducedModel, error) {
	r := &ReducedModel{m: m, g0: m.act.Conductance(0)}

	// Capture the affine base: assemble once at (ω=0, I=0) with the linear
	// leakage folded in, then copy the matrix values and RHS out of the
	// pooled scratch.
	sc := m.getScratch()
	m.assembleInto(sc, 0, drive{}, true, nil)
	a0vals := make([]float64, len(sc.vals))
	copy(a0vals, sc.vals)
	r.b0 = make([]float64, m.n)
	copy(r.b0, sc.rhs)
	m.putScratch(sc)
	a0mat, err := m.basePat.WithValues(a0vals)
	if err != nil {
		return nil, err
	}
	r.a0mat = a0mat
	r.dynGen = m.dynGen.Load()
	return r, nil
}

func (r *ReducedModel) initScratch() {
	rank := r.rank
	n := r.m.n
	r.scratch.New = func() any {
		return &romScratch{
			ar:   denseSquare(rank),
			br:   make([]float64, rank),
			work: make([]float64, n),
		}
	}
}

func buildReducedModel(m *Model, opts ROMOptions, omegaMax, iMax float64) (*ReducedModel, error) {
	r, err := newReducedShell(m)
	if err != nil {
		return nil, err
	}

	// Snapshot sweep, submitted as one batch: every ω-slice shares one
	// assembly and one factorization (sparse.CGPrecondBatch). Low fan
	// speeds sit in the runaway wall (Figure 6's dark-red region); runaway
	// snapshots carry no field and are skipped, and the smallest surviving
	// ω becomes the ROM's floor.
	var pts []Point
	for io := 0; io < opts.SnapshotOmegas; io++ {
		omega := omegaMax * float64(io+1) / float64(opts.SnapshotOmegas)
		for ic := 0; ic < opts.SnapshotCurrents; ic++ {
			itec := 0.0
			if opts.SnapshotCurrents > 1 {
				itec = iMax * float64(ic) / float64(opts.SnapshotCurrents-1)
			}
			pts = append(pts, Point{Omega: omega, Currents: []float64{itec}})
		}
	}
	snapRes, err := m.Solve(context.Background(), nil, pts, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("thermal: ROM snapshot sweep: %w", err)
	}
	var snaps [][]float64
	r.omegaFloor = math.Inf(1)
	for k, res := range snapRes {
		if res.Runaway {
			continue
		}
		snaps = append(snaps, res.T)
		if pts[k].Omega < r.omegaFloor {
			r.omegaFloor = pts[k].Omega
		}
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("thermal: ROM snapshot grid is entirely in thermal runaway")
	}

	// Dynamic-power sensitivity snapshots: the steady state is affine in
	// the dynamic-power level (a workload rescaled by s solves to
	// A⁻¹b_rest + s·A⁻¹b_dyn), so spanning A⁻¹b_dyn at a few fan speeds
	// lets the lazy RHS refresh track SetDynamicPower rescales — the
	// online-control pattern — without rebuilding the basis.
	for _, omega := range []float64{r.omegaFloor, (r.omegaFloor + omegaMax) / 2, omegaMax} {
		if x, err := r.dynSensitivity(omega); err == nil {
			snaps = append(snaps, x)
		}
	}

	r.basis = orthonormalBasis(snaps, opts.MaxRank)
	r.rank = len(r.basis)
	if r.rank == 0 {
		return nil, fmt.Errorf("thermal: ROM basis collapsed (degenerate snapshots)")
	}
	r.project()
	r.initScratch()

	if err := r.calibrate(opts, omegaMax, iMax); err != nil {
		return nil, err
	}
	return r, nil
}

// dynSensitivity solves A(ω, 0)·x = b_dyn, the derivative of the steady
// state with respect to a uniform dynamic-power scale factor.
func (r *ReducedModel) dynSensitivity(omega float64) ([]float64, error) {
	m := r.m
	sc := m.getScratch()
	defer m.putScratch(sc)
	m.assembleInto(sc, omega, drive{}, true, nil)
	rhs := make([]float64, m.n)
	for i, p := range m.dyn {
		rhs[m.node(planeChip, i)] = p
	}
	x, _, err := sparse.SolveAuto(sc.mat, rhs, sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n, Work: &sc.ws})
	return x, err
}

// project builds the projected system from the captured affine pieces.
func (r *ReducedModel) project() {
	m, rank := r.m, r.rank
	r.gal = newGalerkin(r.basis, r.a0mat, r.b0)
	sink := galerkinTerm{a: denseSquare(rank), b: make([]float64, rank)}
	for c, frac := range m.sinkFrac {
		node := m.node(planeSink, c)
		for i := 0; i < rank; i++ {
			vi := r.basis[i][node]
			sink.b[i] += frac * m.cfg.Ambient * vi
			for j := 0; j < rank; j++ {
				sink.a[i][j] += frac * vi * r.basis[j][node]
			}
		}
	}
	r.gal.terms = append([]galerkinTerm{sink}, m.tecTerms(r.basis, nil, 1)...)
}

// calibrate measures the ROM against full solves on the held-out grid,
// setting the advertised bound and the residual→error amplification. The
// full reference solves go through the batched evaluator — one assembly
// and factorization per validation ω.
func (r *ReducedModel) calibrate(opts ROMOptions, omegaMax, iMax float64) error {
	var pts []Point
	for io := 0; io < opts.ValidateOmegas; io++ {
		// Midpoint offset relative to the snapshot ω grid.
		omega := r.omegaFloor + (omegaMax-r.omegaFloor)*(float64(io)+0.5)/float64(opts.ValidateOmegas)
		for ic := 0; ic < opts.ValidateCurrents; ic++ {
			itec := iMax * (float64(ic) + 0.5) / float64(opts.ValidateCurrents)
			pts = append(pts, Point{Omega: omega, Currents: []float64{itec}})
		}
	}
	fulls, err := r.m.Solve(context.Background(), nil, pts, nil, nil)
	if err != nil {
		return fmt.Errorf("thermal: ROM validation sweep: %w", err)
	}
	var maxErr, maxKappa float64
	valid := 0
	for k, full := range fulls {
		if full.Runaway {
			continue
		}
		t, resNorm, ok := r.reducedSolve(pts[k].Omega, pts[k].Currents[0])
		if !ok {
			continue
		}
		var errInf float64
		nc := r.m.grids[planeChip].NumCells()
		for i := 0; i < nc; i++ {
			node := r.m.node(planeChip, i)
			if d := math.Abs(t[node] - full.T[node]); d > errInf {
				errInf = d
			}
		}
		valid++
		if errInf > maxErr {
			maxErr = errInf
		}
		if resNorm > 1e-12 {
			if k := errInf / resNorm; k > maxKappa {
				maxKappa = k
			}
		}
	}
	if valid == 0 {
		return fmt.Errorf("thermal: ROM validation grid has no usable points")
	}
	r.bound = math.Max(opts.Safety*maxErr, opts.MinBound)
	r.kappa = maxKappa
	return nil
}

// Rank returns the basis size.
func (r *ReducedModel) Rank() int { return r.rank }

// ErrorBound returns the advertised worst-case chip-temperature error in
// kelvin: evaluations whose estimated error exceeds it are rejected
// (Evaluate returns ok=false) instead of returned degraded.
func (r *ReducedModel) ErrorBound() float64 { return r.bound }

// OmegaFloor returns the smallest fan speed the snapshot grid covered;
// below it the ROM always rejects (the region is runaway-dominated).
func (r *ReducedModel) OmegaFloor() float64 { return r.omegaFloor }

// Stats returns a snapshot of the traffic counters.
func (r *ReducedModel) Stats() ROMStats {
	return ROMStats{
		Evaluations:  r.evals.Load(),
		Rejections:   r.rejections.Load(),
		DynRefreshes: r.refreshes.Load(),
	}
}

// ensureDyn refreshes the dynamic-power-dependent RHS pieces if
// SetDynamicPower has been called since they were last projected.
func (r *ReducedModel) ensureDyn() {
	gen := r.m.dynGen.Load()
	r.dynMu.Lock()
	defer r.dynMu.Unlock()
	if gen == r.dynGen {
		return
	}
	sc := r.m.getScratch()
	r.m.assembleInto(sc, 0, drive{}, true, nil)
	copy(r.b0, sc.rhs)
	r.m.putScratch(sc)
	for i := 0; i < r.rank; i++ {
		r.gal.b0[i] = sparse.Dot(r.basis[i], r.b0)
	}
	r.dynGen = gen
	r.refreshes.Add(1)
}

// reducedSolve performs the r×r solve and full-space reconstruction,
// returning the reconstructed field and the infinity norm of the
// full-space residual b − A·T̃. ok=false means the reduced system itself
// failed (singular projection — should not happen for a physical model).
func (r *ReducedModel) reducedSolve(omega, itec float64) (t []float64, resNorm float64, ok bool) {
	r.ensureDyn()
	gd := r.m.act.Conductance(omega) - r.g0
	i2 := itec * itec

	sc := r.scratch.Get().(*romScratch)
	defer r.scratch.Put(sc)
	y, ok := r.gal.solve([]float64{gd, itec}, []float64{gd, i2}, sc.ar, sc.br)
	if !ok {
		return nil, 0, false
	}

	// T̃ = V·y, freshly allocated: the field outlives the scratch inside
	// the returned Result.
	t = make([]float64, r.m.n)
	r.gal.expand(y, t)

	// Full-space residual via the affine pieces — no reassembly:
	// work = b(ω,I) − A(ω,I)·T̃.
	r.dynMu.Lock() // b0 may be swapped by a concurrent ensureDyn
	r.a0mat.MulVec(sc.work, t)
	for i := range sc.work {
		sc.work[i] = r.b0[i] - sc.work[i]
	}
	r.dynMu.Unlock()
	m := r.m
	for c, frac := range m.sinkFrac {
		node := m.node(planeSink, c)
		sc.work[node] += gd*frac*m.cfg.Ambient - gd*frac*t[node]
	}
	if itec != 0 {
		for c, alpha := range m.tecAlpha {
			if alpha == 0 {
				continue
			}
			sc.work[m.node(planeTECCold, c)] -= alpha * itec * t[m.node(planeTECCold, c)]
			sc.work[m.node(planeTECHot, c)] += alpha * itec * t[m.node(planeTECHot, c)]
			sc.work[m.node(planeTECMid, c)] += m.tecR[c] * i2
		}
	}
	return t, sparse.NormInf(sc.work), true
}

// Evaluate computes the reduced steady state at (ω, I_TEC). ok=false means
// the ROM declines the point — estimated error over the advertised bound,
// fan speed below the snapshot floor, a runaway-looking reconstruction, or
// a degenerate reduced system — and the caller must fall through to the
// full model. An error is returned only for invalid operating points.
func (r *ReducedModel) Evaluate(omega, itec float64) (*Result, bool, error) {
	if err := r.m.checkOperatingPoint(omega, itec); err != nil {
		return nil, false, err
	}
	r.evals.Add(1)
	if omega < r.omegaFloor-1e-12 {
		r.rejections.Add(1)
		return nil, false, nil
	}
	// Near or inside the runaway wall the linearized fixed point is
	// meaningless; let the full model classify the point.
	t, resNorm, ok := r.reducedSolve(omega, itec)
	if !ok || r.m.runawayCause(t, nil) != NoRunaway || (r.kappa > 0 && r.kappa*resNorm > r.bound) {
		r.rejections.Add(1)
		return nil, false, nil
	}
	return r.m.buildResult(omega, drive{currents: []float64{itec}}, t, sparse.Stats{}, true), true, nil
}
