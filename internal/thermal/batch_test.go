package thermal

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// This file is the batched-evaluation equivalence suite: Solve on more
// than one point is a pure performance transform, so its results must
// be reflect.DeepEqual — bit-identical fields, Stats
// included — to the per-point reference protocol: within each ω-group
// the first point evaluates from a nil warm start and its solution seeds
// the remaining points (the sweep warm-start carry), or an explicit warm
// seeds everything.

// batchGrid is a small sweep covering memo-cold points, repeated points,
// and the fanless high-current runaway corner.
func batchGrid(cfg Config) []Point {
	var pts []Point
	for _, omega := range []float64{120, 250, 0} {
		for _, itec := range []float64{0, 0.8, cfg.TEC.MaxCurrent} {
			pts = append(pts, scalarPt(omega, itec))
		}
	}
	return pts
}

// perPointReference replays pts through the per-point protocol (one
// Solve call per point) on the given model and zoning.
func perPointReference(t *testing.T, m *Model, z *Zoning, pts []Point, warm []float64) []*Result {
	t.Helper()
	out := make([]*Result, len(pts))
	seeds := map[float64][]float64{}
	seen := map[float64]bool{}
	for i, p := range pts {
		seed := warm
		if warm == nil {
			if !seen[p.Omega] {
				seen[p.Omega] = true
				r0, err := solveOne(m, z, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = r0
				if !r0.Runaway {
					seeds[p.Omega] = r0.T
				}
				continue
			}
			seed = seeds[p.Omega]
		}
		res, err := solveOne(m, z, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

func assertResultsDeepEqual(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: point %d (ω=%g): batched result differs from per-point reference\n got %+v\nwant %+v",
				label, i, want[i].Omega, got[i], want[i])
		}
	}
}

func TestEvaluateBatchMatchesPerPoint(t *testing.T) {
	cfg := testConfig()
	pts := batchGrid(cfg)

	batched := benchModel(t, cfg, "Basicmath")
	got, err := batched.Solve(context.Background(), nil, pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reference := benchModel(t, cfg, "Basicmath")
	want := perPointReference(t, reference, nil, pts, nil)
	assertResultsDeepEqual(t, "cold", got, want)

	// With an explicit warm start every point seeds from it.
	warmRes := want[0]
	if warmRes.Runaway {
		t.Fatal("first grid point unexpectedly ran away")
	}
	b2 := benchModel(t, cfg, "Basicmath")
	got2, err := b2.Solve(context.Background(), nil, pts, warmRes.T, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2 := benchModel(t, cfg, "Basicmath")
	want2 := perPointReference(t, r2, nil, pts, warmRes.T)
	assertResultsDeepEqual(t, "warm", got2, want2)
}

// TestEvaluateBatchSharesMemo: points already memoized answer from the
// memo (pointer-identical results), and a batch populates the memo so
// later per-point calls on the same model return the identical pointers.
func TestEvaluateBatchSharesMemo(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	pre, err := solveOne(m, nil, scalarPt(250, 0.8), nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := []Point{scalarPt(250, 0), scalarPt(250, 0.8), scalarPt(250, 1.4)}
	got, err := m.Solve(context.Background(), nil, pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != pre {
		t.Error("memoized point re-solved in batch (pointer differs)")
	}
	for i, p := range pts {
		solo, err := solveOne(m, nil, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if solo != got[i] {
			t.Errorf("point %d: per-point call after batch returned a different pointer", i)
		}
	}
}

func TestEvaluateZonedBatchMatchesPerPoint(t *testing.T) {
	cfg := testConfig()
	batched := benchModel(t, cfg, "Basicmath")
	reference := benchModel(t, cfg, "Basicmath")

	assign := map[string]int{}
	for i, u := range cfg.Floorplan.Units() {
		assign[u.Name] = i % 2
	}
	zb, err := batched.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := reference.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}

	var pts []Point
	for _, omega := range []float64{150, 250} {
		for _, cur := range [][]float64{{0, 0}, {0.6, 1.2}, {1.4, 0.2}, {0.6, 1.2}} {
			pts = append(pts, Point{Omega: omega, Currents: cur})
		}
	}
	got, err := batched.Solve(context.Background(), zb, pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	assertResultsDeepEqual(t, "zoned", got, perPointReference(t, reference, zr, pts, nil))

	// A one-zone zoning is the series deployment: it shares the scalar
	// memo entry.
	one := map[string]int{}
	for _, u := range cfg.Floorplan.Units() {
		one[u.Name] = 0
	}
	z1, err := batched.NewZoning(one, 1)
	if err != nil {
		t.Fatal(err)
	}
	single := []Point{scalarPt(200, 0.9), scalarPt(200, 1.1)}
	gz, err := batched.Solve(context.Background(), z1, single, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range single {
		gs, err := solveOne(batched, nil, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gz[i] != gs {
			t.Errorf("point %d: k=1 zoned batch did not share the scalar memo entry", i)
		}
	}
}

// TestZonedWarmLengthRejected: a zoned point validates its warm start
// exactly like a scalar point (TestEvaluateBatchValidation), on the
// per-point and the batched path.
func TestZonedWarmLengthRejected(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	z := testZoning(t, m, 2)
	short := make([]float64, m.NumNodes()-1)
	p := Point{Omega: 200, Currents: []float64{0.5, 1}}
	for _, pts := range [][]Point{{p}, {p, p}} {
		if _, err := m.Solve(context.Background(), z, pts, short, nil); err == nil {
			t.Errorf("%d zoned points: warm start of %d nodes accepted, model has %d", len(pts), len(short), m.NumNodes())
		}
	}
}

// TestEvaluateBatchSpansDynamicPowerFlush: a batch issued after a
// SetDynamicPower flush must solve against the new power map, not the
// stale memo, and still match per-point results under the new map.
func TestEvaluateBatchSpansDynamicPowerFlush(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	pts := []Point{scalarPt(200, 0), scalarPt(200, 0.7), scalarPt(200, 1.3), scalarPt(120, 0.7)}
	before, err := m.Solve(context.Background(), nil, pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	newMap := uniformMap(&cfg, 18)
	if err := m.SetDynamicPower(newMap); err != nil {
		t.Fatal(err)
	}
	after, err := m.Solve(context.Background(), nil, pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if reflect.DeepEqual(after[i], before[i]) {
			t.Errorf("point %d: batch after SetDynamicPower returned the pre-flush result", i)
		}
	}

	ref, err := NewModel(cfg, newMap)
	if err != nil {
		t.Fatal(err)
	}
	want := perPointReference(t, ref, nil, pts, nil)
	assertResultsDeepEqual(t, "post-flush", after, want)
}

// countdownCtx reports cancellation only after Err has been consulted a
// fixed number of times, so the batch runs its first chunks and is then
// cancelled between chunks.
type countdownCtx struct {
	remaining int
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

func TestEvaluateBatchCancelledMidBatch(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")

	// Already-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Solve(ctx, nil, batchGrid(cfg), nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}

	// Cancelled mid-batch: the first ω-group proceeds, then the run stops
	// with no results; the model stays healthy for the next call.
	mid := &countdownCtx{remaining: 2}
	if _, err := m.Solve(mid, nil, batchGrid(cfg), nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancel: err = %v, want context.Canceled", err)
	}
	res, err := m.Solve(context.Background(), nil, batchGrid(cfg), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("point %d nil after recovery from cancellation", i)
		}
	}
}

// TestEvaluateBatchValidation: malformed points and warm hints are
// rejected before any solve.
func TestEvaluateBatchValidation(t *testing.T) {
	cfg := testConfig()
	m := benchModel(t, cfg, "Basicmath")
	if _, err := m.Solve(context.Background(), nil, []Point{scalarPt(-1, 0)}, nil, nil); err == nil {
		t.Error("negative ω accepted")
	}
	if _, err := m.Solve(context.Background(), nil, []Point{scalarPt(100, 1)}, make([]float64, 3), nil); err == nil {
		t.Error("short warm accepted")
	}
	if _, err := m.Solve(context.Background(), nil, []Point{{Omega: 100, Currents: []float64{1, 1}}}, nil, nil); err == nil {
		t.Error("two currents accepted without a zoning")
	}
	res, err := m.Solve(context.Background(), nil, nil, nil, nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: res=%v err=%v", res, err)
	}
	assign := map[string]int{}
	for i, u := range cfg.Floorplan.Units() {
		assign[u.Name] = i % 2
	}
	z, err := m.NewZoning(assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Solve(context.Background(), z, []Point{scalarPt(100, 1)}, nil, nil); err == nil {
		t.Error("current-count mismatch accepted")
	}
	if _, err := m.Solve(context.Background(), z, []Point{{Omega: 100, Currents: []float64{1, -2}}}, nil, nil); err == nil {
		t.Error("negative zone current accepted")
	}
}

// TestRunawayCertificateOmegaZeroRow: on the ω=0 row of the Basicmath
// 40-point surface at paper resolution (TEC-only cooling) every point
// runs away, every failed solve ends in the negative-curvature
// certificate, and the batched row stays DeepEqual to the per-point one.
func TestRunawayCertificateOmegaZeroRow(t *testing.T) {
	cfg := DefaultConfig()
	const nI = 40
	pts := make([]Point, nI)
	for j := range pts {
		pts[j] = scalarPt(0, cfg.TEC.MaxCurrent*float64(j)/(nI-1))
	}
	batched, err := benchModel(t, cfg, "Basicmath").Solve(context.Background(), nil, pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	solo := benchModel(t, cfg, "Basicmath")
	var warm []float64
	causes := map[RunawayCause]int{}
	for j, p := range pts {
		res, err := solveOne(solo, nil, p, warm)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Runaway {
			warm = res.T
			t.Errorf("I=%.3f A: TEC-only point did not run away (𝒯=%.1f K)", p.Currents[0], res.MaxChipTemp)
		}
		causes[res.RunawayCause]++
		if (res.RunawayCause == RunawaySolve) != res.SolveStats.Indefinite {
			t.Errorf("I=%.3f A: cause %v with SolveStats %+v; a failed solve must carry the certificate", p.Currents[0], res.RunawayCause, res.SolveStats)
		}
		if !reflect.DeepEqual(res, batched[j]) {
			t.Errorf("I=%.3f A: batched result differs from per-point:\n got %+v\nwant %+v", p.Currents[0], batched[j], res)
		}
	}
	t.Logf("ω=0 row runaway causes: %v", causes)
	if causes[RunawaySolve] == 0 {
		t.Error("no point on the row reached the certificate")
	}
}
