package sparse

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestBuildWithDiagonal: every row must carry a structural diagonal slot,
// including rows whose triplets never touched the diagonal, and the
// numeric content must match the plain build.
func TestBuildWithDiagonal(t *testing.T) {
	b := NewBuilder(4)
	// Row 2 gets only off-diagonal entries; row 3 gets nothing at all.
	b.Add(0, 0, 2)
	b.Add(1, 1, 3)
	b.Add(2, 1, -1)
	m, err := b.BuildWithDiagonal()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := m.DiagIndices()
	if err != nil {
		t.Fatalf("DiagIndices after BuildWithDiagonal: %v", err)
	}
	if len(idx) != 4 {
		t.Fatalf("got %d diagonal indices, want 4", len(idx))
	}
	for i, k := range idx {
		if m.ColAt(int(k)) != i {
			t.Errorf("row %d: diag index %d points at column %d", i, k, m.ColAt(int(k)))
		}
	}
	for i, want := range []float64{2, 3, 0, 0} {
		if got := m.At(i, i); got != want {
			t.Errorf("diag[%d] = %g, want %g", i, got, want)
		}
	}
	if got := m.At(2, 1); got != -1 {
		t.Errorf("off-diagonal lost: At(2,1) = %g, want -1", got)
	}

	// Plain Build must refuse DiagIndices on a missing diagonal.
	b2 := NewBuilder(2)
	b2.Add(0, 1, 1)
	b2.Add(1, 0, 1)
	m2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.DiagIndices(); err == nil {
		t.Error("DiagIndices accepted a matrix without stored diagonals")
	}
}

// TestWithValuesSharedPattern: a value-array clone must solve identically
// to the original and reflect in-place patches without touching the base.
func TestWithValuesSharedPattern(t *testing.T) {
	base := laplacian1D(40, 1.5)
	vals := make([]float64, base.NNZ())
	if err := base.CopyValues(vals); err != nil {
		t.Fatal(err)
	}
	m, err := base.WithValues(vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.WithValues(make([]float64, 3)); err == nil {
		t.Error("WithValues accepted a wrong-length value array")
	}

	rhs := make([]float64, 40)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}
	x0, _, err := SolveAuto(base, rhs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x1, _, err := SolveAuto(m, rhs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range x0 {
		if x0[i] != x1[i] {
			t.Fatalf("shared-pattern solve differs at %d: %g vs %g", i, x0[i], x1[i])
		}
	}

	// Patch the clone's diagonal in place; the base must be unaffected.
	idx, err := m.DiagIndices()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range idx {
		vals[k] += 1
	}
	if got, want := m.At(3, 3), base.At(3, 3)+1; got != want {
		t.Errorf("patched diag = %g, want %g", got, want)
	}
	if base.At(3, 3) != 3 {
		t.Errorf("base mutated: At(3,3) = %g, want 3", base.At(3, 3))
	}
}

// TestSolveAutoResidualConsistency: SolveAuto must report the relative
// residual ‖b−Ax‖₂/‖b‖₂ that SolveOptions.Tol is defined against, on
// both the IC-PCG path and the Jacobi-CG path (Kershaw's matrix has no
// IC(0) factor).
func TestSolveAutoResidualConsistency(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *CSR
	}{
		{"IC-PCG", laplacian2D(6, 1.5)},
		{"Jacobi CG", kershaw(t)},
	} {
		n := tc.a.N()
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = 1 + math.Sin(float64(i))
		}
		x, stats, err := SolveAuto(tc.a, rhs, SolveOptions{Tol: 1e-8})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r := make([]float64, n)
		tc.a.Residual(r, x, rhs)
		want := Norm2(r) / Norm2(rhs)
		if math.Abs(stats.Residual-want) > 1e-12 {
			t.Errorf("%s: reported residual %g, want ‖r‖₂/‖b‖₂ = %g", tc.name, stats.Residual, want)
		}
		if stats.Residual > 1e-8 {
			t.Errorf("%s: residual %g above the tolerance", tc.name, stats.Residual)
		}
	}
}

// TestWorkspaceReuse: solves through one workspace must agree with
// workspace-free solves bit-for-bit, and the workspace must grow to fit.
func TestWorkspaceReuse(t *testing.T) {
	ws := &Workspace{}
	for _, n := range []int{7, 40, 12} {
		a := laplacian1D(n, 2)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = 1 + float64(i%3)
		}
		plain, st0, err := SolveAuto(a, rhs, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pooled, st1, err := SolveAuto(a, rhs, SolveOptions{Work: ws})
		if err != nil {
			t.Fatal(err)
		}
		if st0.Iterations != st1.Iterations {
			t.Errorf("n=%d: iteration count differs with workspace: %d vs %d", n, st0.Iterations, st1.Iterations)
		}
		for i := range plain {
			if plain[i] != pooled[i] {
				t.Fatalf("n=%d: workspace solve differs at %d", n, i)
			}
		}
	}
}

// TestFactorCache: key hits must reuse the factorization object,
// distinct keys must factorize separately, failures must be cached, and
// the cache must stay within its bound on overflow.
func TestFactorCache(t *testing.T) {
	c := NewFactorCache[int](4)
	a := laplacian1D(20, 1)
	factor := func(m *CSR) func() (*ICPreconditioner, error) {
		return func() (*ICPreconditioner, error) { return NewICPreconditioner(m) }
	}
	ic1, ok := c.IC(7, factor(a))
	if !ok || ic1 == nil {
		t.Fatal("SPD factorization failed")
	}
	ic2, ok := c.IC(7, factor(a))
	if !ok || ic2 != ic1 {
		t.Error("key hit did not reuse the cached factorization")
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}

	// Indefinite matrix: the failure itself is cached.
	b := NewBuilder(2)
	b.AddDiag(0, -1)
	b.AddDiag(1, -1)
	bad, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.IC(9, factor(bad)); ok {
		t.Error("indefinite matrix factorized")
	}
	if _, ok := c.IC(9, factor(bad)); ok {
		t.Error("cached failure reported success")
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}

	// Overflow evicts.
	for k := 10; k < 16; k++ {
		c.IC(k, factor(a))
	}
	if c.Len() > 4 {
		t.Errorf("cache exceeded its bound: %d entries", c.Len())
	}
}

// TestFactorCacheEvictsOldest: capacity + 1 distinct keys evict exactly
// the oldest key, for the default capacity and a small one; a hit does
// not refresh a key's age.
func TestFactorCacheEvictsOldest(t *testing.T) {
	a := laplacian1D(10, 1)
	for _, capacity := range []int{0, 3} {
		c := NewFactorCache[int](capacity)
		if capacity == 0 {
			capacity = 8
		}
		builds := map[int]int{}
		get := func(key int) {
			c.IC(key, func() (*ICPreconditioner, error) {
				builds[key]++
				return NewICPreconditioner(a)
			})
		}
		for k := 0; k < capacity; k++ {
			get(k)
		}
		get(0) // a hit: key 0 stays the oldest
		get(capacity)
		if c.Len() != capacity {
			t.Fatalf("capacity %d: %d entries after %d keys", capacity, c.Len(), capacity+1)
		}
		for k := 1; k <= capacity; k++ {
			get(k)
			if builds[k] != 1 {
				t.Errorf("capacity %d: key %d rebuilt (%d builds); only the oldest key may be evicted", capacity, k, builds[k])
			}
		}
		get(0)
		if builds[0] != 2 {
			t.Errorf("capacity %d: oldest key 0 built %d times, want 2 (evicted once)", capacity, builds[0])
		}
	}
}

// TestFactorCacheConcurrent hammers one cache from many goroutines across
// a few keys; run under -race this pins the locking discipline, and
// the ApplyScratch path keeps shared factors safe inside CGPrecond.
func TestFactorCacheConcurrent(t *testing.T) {
	c := NewFactorCache[int](0)
	mats := make([]*CSR, 4)
	for i := range mats {
		mats[i] = laplacian1D(30, float64(i+1))
	}
	rhs := make([]float64, 30)
	for i := range rhs {
		rhs[i] = float64(i%5) + 1
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ws := &Workspace{}
			for k := 0; k < 50; k++ {
				key := rng.Intn(len(mats))
				m := mats[key]
				ic, ok := c.IC(key, func() (*ICPreconditioner, error) { return NewICPreconditioner(m) })
				if !ok {
					t.Error("factorization failed")
					return
				}
				x, _, err := CGPrecond(m, rhs, ic, SolveOptions{Work: ws})
				if err != nil {
					t.Error(err)
					return
				}
				r := make([]float64, len(rhs))
				if m.Residual(r, x, rhs); Norm2(r)/Norm2(rhs) > 1e-8 {
					t.Error("concurrent solve inaccurate")
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
