package thermal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// This file is the batched-evaluation equivalence suite: Solve on more
// than one point is a pure performance transform, so its results must
// be reflect.DeepEqual — bit-identical fields, Stats
// included — to the per-point reference protocol: within each ω-group
// the first point evaluates from a nil warm start and its solution seeds
// the anchor points (or an explicit warm seeds them), and every point
// past the anchors starts from its projected seed on the group's solved
// fields (seedProjector).

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
// Solve call per point) on the given model and zoning, in the order the
// batched engine visits them: per ω-group the first point (nil warm
// only), then the anchors (anchorOrder) from the group seed, then the
// rest from their projected seeds, or the group seed where the
// projection declines.
func perPointReference(t *testing.T, m *Model, z *Zoning, pts []Point, warm []float64) []*Result {
	t.Helper()
	out := make([]*Result, len(pts))
	solve := func(i int, seed []float64) *Result {
		res, err := solveOne(m, z, pts[i], seed)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
		return res
	}
	for _, g := range groupByOmega(pts) {
		seed := warm
		var solved [][]float64
		if warm == nil {
			if r0 := solve(g[0], nil); !r0.Runaway {
				seed = r0.T
				solved = append(solved, r0.T)
			}
			g = g[1:]
		}
		order := anchorOrder(g)
		var proj *seedProjector
		for k, i := range order {
			if k < batchWidth {
				if res := solve(i, seed); !res.Runaway {
					solved = append(solved, res.T)
				}
				continue
			}
			if k == batchWidth {
				sc := m.getScratch()
				m.assembleInto(sc, pts[i].Omega, drive{}, true, nil)
				proj = m.newSeedProjector(z, sc.mat, sc.rhs, solved)
				m.putScratch(sc)
			}
			s := seed
			if proj != nil {
				buf := make([]float64, m.NumNodes())
				if proj.seed(pts[i].Currents, buf) {
					s = buf
				}
			}
			solve(i, s)
		}
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

// longGroup is one ω-group of n points whose currents step evenly from
// 0 to the module maximum, one current per zone (zone z's current runs
// in the opposite direction for odd z, so the zones are not in step).
func longGroup(cfg Config, omega float64, n, zones int) []Point {
	pts := make([]Point, n)
	for j := range pts {
		cur := make([]float64, zones)
		for z := range cur {
			f := float64(j) / float64(n-1)
			if z%2 == 1 {
				f = 1 - f
			}
			cur[z] = cfg.TEC.MaxCurrent * f
		}
		pts[j] = Point{Omega: omega, Currents: cur}
	}
	return pts
}

// TestLongGroupBatchMatchesPerPoint: ω-groups longer than one chunk run
// the anchor chunk and then projected chunks. A scalar group and a
// 2-zone group of 24 points each stay DeepEqual, SolveStats included, to
// the per-point replay of the protocol, from a nil and from an explicit
// warm start; a fanless group, where every point runs away, stays
// DeepEqual too. The projection must also steer: past the anchors the
// median point needs fewer CG iterations than the median anchor.
func TestLongGroupBatchMatchesPerPoint(t *testing.T) {
	cfg := testConfig()
	const n = 24
	for _, tc := range []struct {
		name  string
		zones int
		omega float64
	}{
		{"scalar", 1, 200},
		{"zoned", 2, 200},
		{"fanless", 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pts := longGroup(cfg, tc.omega, n, tc.zones)
			zoning := func(m *Model) *Zoning {
				if tc.zones == 1 {
					return nil
				}
				return testZoning(t, m, tc.zones)
			}
			var warm []float64
			for _, label := range []string{"cold", "warm"} {
				batched := benchModel(t, cfg, "Basicmath")
				got, err := batched.Solve(context.Background(), zoning(batched), pts, warm, nil)
				if err != nil {
					t.Fatal(err)
				}
				reference := benchModel(t, cfg, "Basicmath")
				want := perPointReference(t, reference, zoning(reference), pts, warm)
				assertResultsDeepEqual(t, label, got, want)
				if tc.omega == 0 {
					for i, r := range got {
						if !r.Runaway {
							t.Errorf("%s: fanless point %d did not run away", label, i)
						}
					}
					return
				}
				anchors, rest := groupIterations(got, warm == nil)
				if median(rest) >= median(anchors) {
					t.Errorf("%s: projected points take a median of %g CG iterations, anchors %g: the projection does not steer",
						label, median(rest), median(anchors))
				}
				t.Logf("%s: median CG iterations: anchors %g, projected %g", label, median(anchors), median(rest))
				warm = got[0].T
			}
		})
	}
}

// groupIterations splits one ω-group's CG iteration counts into its
// anchors and the points after them, in the order of anchorOrder.
func groupIterations(res []*Result, firstSolo bool) (anchors, rest []float64) {
	idxs := make([]int, len(res))
	for i := range idxs {
		idxs[i] = i
	}
	if firstSolo {
		idxs = idxs[1:]
	}
	for k, i := range anchorOrder(idxs) {
		it := float64(res[i].SolveStats.Iterations)
		if k < batchWidth {
			anchors = append(anchors, it)
		} else {
			rest = append(rest, it)
		}
	}
	return anchors, rest
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// TestProjectedSeedsMatchColdSolves: a projected seed steers CG, not the
// answer beyond the solver tolerance. For seeded random ω-groups of 20
// points — scalar and 2-zone, across the runaway wall — every batched
// point lies within 2e-6 K of a cold per-point solve from ambient on a
// fresh model, with the identical runaway verdict.
//
// The bound is the solver tolerance seen through the conditioning: a
// projected seed starts so close that CG stops just inside the unchanged
// 1e-9 relative residual, where a cold solve overshoots it. Over 400
// random groups of this test (6,789 solved points) six points differed
// by more than 1e-6 K, at most 1.15e-6 K, all right at the runaway wall
// (𝒯 of 463–492 K, where the system is nearly singular). On the 40×40
// paper-resolution surfaces of all eight benchmarks the batched maximum
// chip temperature differs from the per-point reference sweep by at most
// 2.7e-7 K.
func TestProjectedSeedsMatchColdSolves(t *testing.T) {
	cfg := testConfig()
	omegaMax := benchModel(t, cfg, "Basicmath").UMax()
	const n = 20
	var points, runaway, causeDiffs int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Half the groups sit in the low-ω band where, at this test
		// resolution, the runaway wall crosses the current range, so one
		// group mixes solved and runaway points.
		omega := omegaMax * rng.Float64()
		if rng.Intn(2) == 0 {
			omega = 2 + 2*rng.Float64()
		}
		zones := 1 + rng.Intn(2)
		pts := make([]Point, n)
		for j := range pts {
			cur := make([]float64, zones)
			for z := range cur {
				cur[z] = cfg.TEC.MaxCurrent * rng.Float64()
			}
			pts[j] = Point{Omega: omega, Currents: cur}
		}
		batched := benchModel(t, cfg, "Basicmath")
		var z *Zoning
		if zones > 1 {
			z = testZoning(t, batched, zones)
		}
		got, err := batched.Solve(context.Background(), z, pts, nil, nil)
		if err != nil {
			t.Error(err)
			return false
		}
		cold := benchModel(t, cfg, "Basicmath")
		if zones > 1 {
			z = testZoning(t, cold, zones)
		}
		for j, p := range pts {
			want, err := solveOne(cold, z, p, nil)
			if err != nil {
				t.Error(err)
				return false
			}
			if got[j].Runaway != want.Runaway {
				t.Errorf("ω=%g, I=%v: runaway %v, cold solve %v", omega, p.Currents, got[j].Runaway, want.Runaway)
				return false
			}
			points++
			if want.Runaway {
				runaway++
				if got[j].RunawayCause != want.RunawayCause {
					causeDiffs++
				}
				continue
			}
			for i := range want.T {
				if d := math.Abs(got[j].T[i] - want.T[i]); d > 2e-6 {
					t.Errorf("ω=%g, I=%v: node %d differs from the cold solve by %g K", omega, p.Currents, i, d)
					return false
				}
			}
		}
		return true
	}
	const seed = 15
	t.Logf("quick.Check seed %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Error(err)
	}
	t.Logf("%d points, %d runaway (%d with another runaway cause than the cold solve)", points, runaway, causeDiffs)
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
