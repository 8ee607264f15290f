package thermal

import (
	"context"

	"oftec/internal/sparse"
)

// This file is the batched steady-state evaluator. Bulk workloads —
// surface sweeps, Pareto probes, ROM snapshot collection — evaluate many
// operating points whose systems share one ω-slice of the conductance
// matrix and differ only in the TEC diagonal/RHS terms. solveBatch
// assembles the canonical slice system once, expresses each point as a
// set of per-column diagonal overrides plus an RHS patch, and hands
// width-8 chunks to sparse.CGPrecondBatch under the shared slice
// preconditioner.
//
// Seeds. Within an ω-group the first point solves on its own (from
// ambient, or the memo) unless an explicit warm start seeds the group.
// The first chunk holds batchWidth anchors spread evenly over the rest of
// the group, seeded from that field; every later column starts CG from
// the Galerkin solution of its own system on the fields the group has
// solved so far (seedProjector, galerkin.go). A group of up to
// batchWidth+1 points (batchWidth under an explicit warm start) never
// reaches a later chunk. Seeds come only from fields solved in the same
// call, so the results do not depend on the worker count.
//
// The batched path is a pure performance transform: per column the
// assembly patches use the same floating-point statement shapes as
// assembleInto and the lockstep CG replicates CGPrecond bit-for-bit, so
// a batched result is reflect.DeepEqual to the per-point result from the
// same seed (the equivalence suite pins this). A seed steers CG, not the
// answer: every column stops on the same true-residual test as a
// per-point solve. A column the lockstep solve cannot finish (breakdown,
// iteration budget) falls back to the per-point path, which reproduces
// the identical failure — the same ErrIndefinite certificate — exactly
// as a per-point call would.

// batchWidth is the lockstep column count: wide enough to amortize the
// per-iteration pattern walk over a cache line of float64 columns,
// narrow enough that the interleaved working set stays in cache.
const batchWidth = 8

// solveBatch is Solve's batched engine for validated points (with a
// one-zone zoning already reduced to nil): it solves each ω-group in
// turn (solveGroup) and appends the results to dst.
//
//oftec:allocok batched engine: one results slice and per-group workspaces per call, amortized across the batch
func (m *Model) solveBatch(ctx context.Context, z *Zoning, pts []Point, warm []float64, dst []*Result) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(dst)
	dst = append(dst, make([]*Result, len(pts))...)
	results := dst[n:]
	for _, g := range groupByOmega(pts) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := m.solveGroup(ctx, z, pts, g, warm, results); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// groupByOmega partitions point indices by ω in first-appearance order,
// keeping submission order within each group — the order the per-point
// reference path would visit them in a row-major sweep.
func groupByOmega(pts []Point) [][]int {
	var order []float64
	groups := make(map[float64][]int)
	for i, p := range pts {
		w := p.Omega
		if _, ok := groups[w]; !ok {
			order = append(order, w)
		}
		groups[w] = append(groups[w], i)
	}
	out := make([][]int, 0, len(order))
	for _, w := range order {
		out = append(out, groups[w])
	}
	return out
}

// anchorOrder orders the points of one ω-group for lockstep solving.
// A group longer than one chunk leads with batchWidth anchors spread
// evenly over it, both ends included, and the rest follow in submission
// order: the later chunks, seeded from the anchors' fields, then
// interpolate between solved fields instead of extrapolating. A group
// that fits one chunk keeps its submission order.
func anchorOrder(idxs []int) []int {
	n := len(idxs)
	if n <= batchWidth {
		return idxs
	}
	order := make([]int, 0, n)
	anchor := make([]bool, n)
	for k := 0; k < batchWidth; k++ {
		a := k * (n - 1) / (batchWidth - 1)
		anchor[a] = true
		order = append(order, idxs[a])
	}
	for i, pi := range idxs {
		if !anchor[i] {
			order = append(order, pi)
		}
	}
	return order
}

// solveGroup solves the points idxs of one ω-group. With warm == nil the
// first point solves per-point from ambient (or answers from the memo)
// and its field is the group seed; otherwise warm is. The rest solve in
// lockstep chunks in anchorOrder: the anchor chunk from the group seed,
// every later column from its projected seed (seedProjector) on the
// group's solved fields — the first point's and the anchors' — or from
// the group seed when the projection is singular or the fields span
// nothing. Memoized points answer without solving; a column the lockstep
// solve cannot finish re-solves per-point from the same seed.
func (m *Model) solveGroup(ctx context.Context, z *Zoning, pts []Point, idxs []int, warm []float64, results []*Result) error {
	seed := warm
	var solved [][]float64 // fields solved in this group: the projection basis
	if warm == nil {
		res := m.solvePoint(z, pts[idxs[0]], nil)
		results[idxs[0]] = res
		if !res.Runaway {
			seed = res.T
			solved = append(solved, res.T)
		}
		idxs = idxs[1:]
	}
	if len(idxs) == 0 {
		return nil
	}
	omega := pts[idxs[0]].Omega
	ic, icOK := m.slicePrecond(omega)

	// One canonical assembly for the whole group: the I_TEC = 0 system.
	// Chunks only read sc.vals/sc.rhs; per-point terms live in the
	// override and RHS buffers below.
	sc := m.getScratch()
	defer m.putScratch(sc)
	m.assembleInto(sc, omega, drive{}, true, nil)

	ws := sparse.GetBatchWorkspace()
	defer sparse.PutBatchWorkspace(ws)
	b := make([]float64, m.n*batchWidth)
	x0 := make([]float64, m.n*batchWidth)

	// Override backing store: cold rows then hot rows, cells ascending —
	// strictly ascending node order (the cold plane sits below the hot
	// plane in the stack).
	covered := make([]int, 0, len(m.tecAlpha))
	for i, alpha := range m.tecAlpha {
		if alpha != 0 {
			covered = append(covered, i)
		}
	}
	ovs := make([]sparse.DiagOverride, 0, 2*len(covered))
	for _, pass := range []int{planeTECCold, planeTECHot} {
		for _, cell := range covered {
			row := m.node(pass, cell)
			ovs = append(ovs, sparse.DiagOverride{
				Row:  int32(row),
				K:    m.diagIdx[row],
				Vals: make([]float64, batchWidth),
			})
		}
	}

	// Per-column seeds: the group seed (nil: ambient) or a projected
	// field in the column's own buffer.
	var proj *seedProjector
	var seeds [batchWidth][]float64
	var seedBufs [batchWidth][]float64

	order := anchorOrder(idxs)
	var chunk []int
	for start := 0; start < len(order); start += batchWidth {
		if err := ctx.Err(); err != nil {
			return err
		}
		if start == batchWidth {
			// The anchor chunk is done: project onto the group's fields.
			for _, pi := range order[:batchWidth] {
				if res := results[pi]; !res.Runaway {
					solved = append(solved, res.T)
				}
			}
			proj = m.newSeedProjector(z, sc.mat, sc.rhs, solved)
		}
		chunk = chunk[:0]
		for _, pi := range order[start:min(start+batchWidth, len(order))] {
			if key, memo := memoKey(z, pts[pi]); memo {
				if res, ok := m.loadResult(key); ok {
					results[pi] = res
					continue
				}
			}
			chunk = append(chunk, pi)
		}
		if len(chunk) == 0 {
			continue
		}
		for j, pi := range chunk {
			seeds[j] = seed
			if proj != nil {
				if seedBufs[j] == nil {
					seedBufs[j] = make([]float64, m.n)
				}
				if proj.seed(pts[pi].Currents, seedBufs[j]) {
					seeds[j] = seedBufs[j]
				}
			}
		}
		if !icOK {
			// No slice factorization (matrix not SPD enough): the lockstep
			// solve is unavailable, so every point takes the per-point
			// SolveAuto — the same one it would have taken solo.
			for j, pi := range chunk {
				results[pi] = m.solvePoint(z, pts[pi], seeds[j])
			}
			continue
		}
		w := len(chunk)

		// Pad a wide-enough partial chunk to the full lockstep width by
		// duplicating its final column. Pads run identical arithmetic to
		// their twin so they freeze on the same iteration and cost no
		// extra sweeps; what they buy is the width-8 specialized kernels,
		// which are cheaper per column than the generic path whenever
		// most of the width is real work. Narrow chunks (memo-riddled
		// rows) stay generic — there padding would outweigh the win.
		wp := w
		if w < batchWidth && 2*w > batchWidth {
			wp = batchWidth
		}

		// Per-column override values, with the per-point statement shape
		// (base + α·I / base − α·I; I = 0 leaves the canonical value bits).
		nCov := len(covered)
		for ci, cell := range covered {
			alpha := m.tecAlpha[cell]
			cold := &ovs[ci]
			hot := &ovs[nCov+ci]
			cbase := sc.vals[cold.K]
			hbase := sc.vals[hot.K]
			cold.Vals = cold.Vals[:wp]
			hot.Vals = hot.Vals[:wp]
			for j, pi := range chunk {
				iTEC := driveOf(z, pts[pi]).at(cell)
				cv, hv := cbase, hbase
				if iTEC != 0 {
					cv = cbase + alpha*iTEC
					hv = hbase - alpha*iTEC
				}
				cold.Vals[j] = cv
				hot.Vals[j] = hv
			}
			for j := w; j < wp; j++ {
				cold.Vals[j] = cold.Vals[w-1]
				hot.Vals[j] = hot.Vals[w-1]
			}
		}

		// Interleaved RHS: the canonical slice RHS broadcast per column,
		// plus each point's Joule injection at the gen plane.
		bw := b[:m.n*wp]
		for i := 0; i < m.n; i++ {
			base := sc.rhs[i]
			row := bw[i*wp : i*wp+wp]
			for j := range row {
				row[j] = base
			}
		}
		for _, cell := range covered {
			mid := m.node(planeTECMid, cell)
			row := bw[mid*wp : mid*wp+wp]
			for j, pi := range chunk {
				iTEC := driveOf(z, pts[pi]).at(cell)
				if iTEC != 0 {
					row[j] += m.tecR[cell] * iTEC * iTEC
				}
			}
			for j := w; j < wp; j++ {
				row[j] = row[w-1]
			}
		}

		// Interleaved start: every column from its seed (ambient when it
		// has none — the per-point nil-warm fill); pads copy their twin.
		x0w := x0[:m.n*wp]
		for i := 0; i < m.n; i++ {
			col := x0w[i*wp : i*wp+wp]
			for j := range col {
				s := seeds[min(j, w-1)]
				if s == nil {
					col[j] = m.cfg.Ambient
				} else {
					col[j] = s[i]
				}
			}
		}

		opts := sparse.SolveOptions{Tol: 1e-9, MaxIter: 20 * m.n}
		sols, stats, ok, err := sparse.CGPrecondBatch(sc.mat, ovs[:2*nCov], bw, x0w, ic, wp, opts, ws)
		if err != nil {
			return err
		}
		for j, pi := range chunk {
			if !ok[j] {
				// The lockstep solve failed for this column: re-solve it
				// per-point from the same seed, which reproduces the same
				// failure exactly as a solo call would.
				results[pi] = m.solvePoint(z, pts[pi], seeds[j])
				continue
			}
			res := m.steadyState(omega, driveOf(z, pts[pi]), sols[j], stats[j], nil)
			if key, memo := memoKey(z, pts[pi]); memo {
				m.storeResult(key, res)
			}
			results[pi] = res
		}
	}
	return nil
}
