package sparse

import (
	"fmt"
	"math"
	"sync"
)

// ICPreconditioner is a zero-fill incomplete Cholesky factorization
// M = L·Lᵀ of a symmetric positive-definite matrix, with L restricted to
// the sparsity pattern of the lower triangle of A. For the thermal
// conduction matrices in this repository it cuts CG iteration counts by
// several times compared to Jacobi scaling (see the preconditioner
// ablation benchmark).
type ICPreconditioner struct {
	n int
	// l is the factor in CSR layout (rows sorted by column, diagonal last).
	lRowPtr []int32
	lColIdx []int32
	lValues []float64
	// lt is Lᵀ in CSR layout, for the backward solve.
	ltRowPtr []int32
	ltColIdx []int32
	ltValues []float64
}

// NewICPreconditioner computes the IC(0) factorization. It returns an
// error when the matrix is structurally unsuitable (a missing diagonal)
// or meets a non-positive pivot. A failed pivot is not a certificate of
// indefiniteness (IC(0) drops fill), so SolveAuto then falls back to
// Jacobi CG.
func NewICPreconditioner(a *CSR) (*ICPreconditioner, error) {
	n := a.N()
	p := &ICPreconditioner{n: n}

	// Collect the lower-triangle pattern row by row (columns ascending,
	// diagonal last in each row).
	p.lRowPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		lo, hi := int(a.rowPtr[i]), int(a.rowPtr[i+1])
		cnt := 0
		hasDiag := false
		for k := lo; k < hi; k++ {
			j := int(a.colIdx[k])
			if j < i {
				cnt++
			} else if j == i {
				hasDiag = true
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("sparse: IC(0) needs a structurally nonzero diagonal (row %d)", i)
		}
		p.lRowPtr[i+1] = p.lRowPtr[i] + int32(cnt+1)
	}
	nnz := int(p.lRowPtr[n])
	p.lColIdx = make([]int32, nnz)
	p.lValues = make([]float64, nnz)

	// rowStart[i] tracks the fill position of row i.
	pos := make([]int32, n)
	copy(pos, p.lRowPtr[:n])
	diagPos := make([]int32, n)
	for i := 0; i < n; i++ {
		lo, hi := int(a.rowPtr[i]), int(a.rowPtr[i+1])
		for k := lo; k < hi; k++ {
			j := int(a.colIdx[k])
			if j < i {
				p.lColIdx[pos[i]] = int32(j)
				p.lValues[pos[i]] = a.values[k]
				pos[i]++
			}
		}
		// Diagonal last.
		p.lColIdx[pos[i]] = int32(i)
		p.lValues[pos[i]] = a.At(i, i)
		diagPos[i] = pos[i]
		pos[i]++
	}

	// Factorize in place. For entry (i, j), j < i:
	//   L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j]
	// Diagonal:
	//   L[i][i] = sqrt(A[i][i] − Σ_{k<i} L[i][k]²)
	for i := 0; i < n; i++ {
		rowLo, rowHi := int(p.lRowPtr[i]), int(p.lRowPtr[i+1])
		for idx := rowLo; idx < rowHi-1; idx++ {
			j := int(p.lColIdx[idx])
			// Sparse dot of row i (up to column j) with row j (up to j).
			sum := p.lValues[idx]
			ai, aj := rowLo, int(p.lRowPtr[j])
			aiEnd, ajEnd := idx, int(diagPos[j])
			for ai < aiEnd && aj < ajEnd {
				ci, cj := p.lColIdx[ai], p.lColIdx[aj]
				switch {
				case ci == cj:
					sum -= p.lValues[ai] * p.lValues[aj]
					ai++
					aj++
				case ci < cj:
					ai++
				default:
					aj++
				}
			}
			dj := p.lValues[diagPos[j]]
			if dj == 0 {
				return nil, fmt.Errorf("sparse: IC(0) zero pivot at row %d", j)
			}
			p.lValues[idx] = sum / dj
		}
		// Diagonal.
		d := p.lValues[rowHi-1]
		for idx := rowLo; idx < rowHi-1; idx++ {
			d -= p.lValues[idx] * p.lValues[idx]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("sparse: IC(0) non-positive pivot %g at row %d (matrix not SPD enough)", d, i)
		}
		p.lValues[rowHi-1] = math.Sqrt(d)
	}

	p.buildTranspose()
	return p, nil
}

// buildTranspose materializes Lᵀ in CSR form for the backward solve.
func (p *ICPreconditioner) buildTranspose() {
	n := p.n
	nnz := len(p.lValues)
	p.ltRowPtr = make([]int32, n+1)
	for k := 0; k < nnz; k++ {
		p.ltRowPtr[p.lColIdx[k]+1]++
	}
	for i := 0; i < n; i++ {
		p.ltRowPtr[i+1] += p.ltRowPtr[i]
	}
	p.ltColIdx = make([]int32, nnz)
	p.ltValues = make([]float64, nnz)
	fill := make([]int32, n)
	copy(fill, p.ltRowPtr[:n])
	for i := 0; i < n; i++ {
		for k := p.lRowPtr[i]; k < p.lRowPtr[i+1]; k++ {
			j := p.lColIdx[k]
			p.ltColIdx[fill[j]] = int32(i)
			p.ltValues[fill[j]] = p.lValues[k]
			fill[j]++
		}
	}
}

// ApplyScratch computes dst = (L·Lᵀ)⁻¹·r by one forward and one backward
// triangular solve through the caller's intermediate vector scratch
// (length N). The factor arrays are read-only after construction, so a
// cached ICPreconditioner is safe for concurrent solves as long as each
// solve brings its own scratch (see Workspace).
//
//oftec:hotpath
func (p *ICPreconditioner) ApplyScratch(dst, r, scratch []float64) {
	y := scratch
	// Forward solve L·y = r (rows of L are sorted with the diagonal last).
	for i := 0; i < p.n; i++ {
		s := r[i]
		lo, hi := int(p.lRowPtr[i]), int(p.lRowPtr[i+1])
		for k := lo; k < hi-1; k++ {
			s -= p.lValues[k] * y[p.lColIdx[k]]
		}
		y[i] = s / p.lValues[hi-1]
	}
	// Backward solve Lᵀ·dst = y. Row i of Lᵀ holds columns ≥ i; its first
	// entry is the diagonal.
	for i := p.n - 1; i >= 0; i-- {
		s := y[i]
		lo, hi := int(p.ltRowPtr[i]), int(p.ltRowPtr[i+1])
		for k := lo + 1; k < hi; k++ {
			s -= p.ltValues[k] * dst[p.ltColIdx[k]]
		}
		dst[i] = s / p.ltValues[lo]
	}
}

// FactorCache memoizes IC(0) factorizations under a caller-chosen
// comparable key identifying the matrix content (the thermal model keys
// on its operating point). Assembly paths that rewrite a shared sparsity
// pattern then reuse the factorization of a repeated matrix instead of
// re-running the O(nnz) numeric factorization. The cache is safe for
// concurrent use; cached preconditioners are applied via ApplyScratch, as
// CGPrecond does.
type FactorCache[K comparable] struct {
	mu       sync.Mutex
	capacity int
	// entries holds nil for a failed factorization (matrix not SPD
	// enough), so the failure is cached too and the caller's fallback
	// path does not retry the factorization every solve.
	entries map[K]*ICPreconditioner
	// ring holds the cached keys in insertion order once full; next is
	// the oldest, the one the next new key evicts.
	ring []K
	next int
}

// NewFactorCache returns a cache bounded to the given number of entries
// (≤ 0 selects the default of 8). Past the bound a new key evicts the
// oldest one: an optimization run walks through its fan speeds and
// rarely returns to an early one, and one ω-slice factor of a
// full-resolution model is about 200 KB.
func NewFactorCache[K comparable](capacity int) *FactorCache[K] {
	if capacity <= 0 {
		capacity = 8
	}
	return &FactorCache[K]{capacity: capacity, entries: make(map[K]*ICPreconditioner, capacity)}
}

// IC returns the cached IC(0) preconditioner for key, invoking build on a
// miss. build both assembles the keyed matrix and factorizes it, so a hit
// needs no matrix in hand and callers whose matrices live in pooled
// scratch defer the assembly into build. The second return is false when
// the factorization failed; the failure is cached like a success.
func (c *FactorCache[K]) IC(key K, build func() (*ICPreconditioner, error)) (*ICPreconditioner, bool) {
	c.mu.Lock()
	if ic, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return ic, ic != nil
	}
	c.mu.Unlock()

	// Build outside the lock so concurrent misses on different keys
	// proceed in parallel; duplicated work on one key is possible but
	// harmless (last store wins, results are identical).
	ic, err := build()
	if err != nil {
		ic = nil
	}
	c.mu.Lock()
	if _, dup := c.entries[key]; !dup {
		if len(c.ring) < c.capacity {
			c.ring = append(c.ring, key)
		} else {
			delete(c.entries, c.ring[c.next])
			c.ring[c.next] = key
			c.next = (c.next + 1) % c.capacity
		}
	}
	c.entries[key] = ic
	c.mu.Unlock()
	return ic, ic != nil
}

// Len reports the number of cached factorizations (test instrumentation).
func (c *FactorCache[K]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CGPrecond solves A·x = b with the conjugate gradient method under an
// IC(0) preconditioner. A curvature pᵀAp ≤ 0 stops the solve with
// ErrIndefinite.
func CGPrecond(a *CSR, b []float64, m *ICPreconditioner, opts SolveOptions) ([]float64, Stats, error) {
	n := a.N()
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("sparse: rhs length %d does not match matrix dimension %d", len(b), n)
	}
	if m == nil {
		return nil, Stats{}, fmt.Errorf("sparse: CGPrecond requires a preconditioner")
	}
	x := make([]float64, n)
	if opts.X0 != nil {
		copy(x, opts.X0)
	}
	ws := opts.work(n)
	r := ws.r
	a.Residual(r, x, b)
	bnorm := Norm2(b)
	if bnorm == 0 {
		return x, Stats{}, nil
	}
	tol := opts.tol()

	z, p, ap := ws.z, ws.p, ws.ap
	m.ApplyScratch(z, r, ws.pre)
	copy(p, z)
	rz := Dot(r, z)

	maxIter := opts.maxIter(n)
	for it := 1; it <= maxIter; it++ {
		a.MulVec(ap, p)
		pap := Dot(p, ap)
		if !(pap > 0) {
			return breakdown(it, pap)
		}
		alpha := rz / pap
		AXPY(alpha, p, x)
		AXPY(-alpha, ap, r)
		res := Norm2(r) / bnorm
		if res <= tol {
			return x, Stats{Iterations: it, Residual: res}, nil
		}
		m.ApplyScratch(z, r, ws.pre)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, Stats{Iterations: maxIter, Residual: Norm2(r) / bnorm}, ErrNoConvergence
}
