package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/parallel"
)

// perPointSurface is the per-point reference sweep on SurfaceSystem's
// grid: every point is submitted on its own through the system's
// evaluation cache, as SurfaceSystem submits its rows, and the converged
// field at each point warm-starts the next I step of its row (the carry
// never crosses rows).
func perPointSurface(ctx context.Context, sys *core.System, nOmega, nI, workers int) ([]SurfacePoint, error) {
	cfg := sys.Config()
	out := make([]SurfacePoint, nOmega*nI)
	err := parallel.ForEach(ctx, nOmega, workers, func(i int) error {
		omega := cfg.UMax() * float64(i) / float64(nOmega-1)
		var warm []float64
		for j := 0; j < nI; j++ {
			itec := cfg.TEC.MaxCurrent * float64(j) / float64(nI-1)
			rs, err := sys.EvaluateBatchContext(ctx, []backend.OpPoint{backend.Scalar(omega, itec)}, warm)
			if err != nil {
				return err
			}
			res := rs[0]
			if !res.Runaway {
				warm = res.T
			}
			out[i*nI+j] = surfacePoint(omega, itec, res)
		}
		return nil
	})
	return out, err
}

// TestSurfaceBatchedMatchesPerPoint pins the row-batch submission: the
// batched sweep must classify every point like the per-point reference
// sweep (runaway flags identical) and agree on temperatures and powers to
// solver tolerance — the two paths warm-start differently (chained carry
// vs. first-solution, anchor and projected seeds), so bit-identity is not
// the contract here; determinism across worker counts is, and is pinned
// below. Rows of 20 points run past the anchor chunk, so the projected
// seeds are exercised.
func TestSurfaceBatchedMatchesPerPoint(t *testing.T) {
	setup := FastSetup()
	batchedSys, err := setup.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := batchedSys.Backend().(backend.BatchEvaluator); !ok {
		t.Fatal("full backend lost the BatchEvaluator capability")
	}
	batched, err := SurfaceSystem(context.Background(), batchedSys, 9, 20, 0)
	if err != nil {
		t.Fatal(err)
	}

	refSys, err := setup.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := perPointSurface(context.Background(), refSys, 9, 20, 0)
	if err != nil {
		t.Fatal(err)
	}

	for i := range ref {
		b, r := batched[i], ref[i]
		if b.Omega != r.Omega || b.ITEC != r.ITEC || b.Runaway != r.Runaway {
			t.Fatalf("point %d: grid/classification mismatch: %+v vs %+v", i, b, r)
		}
		if r.Runaway {
			continue
		}
		if math.Abs(b.MaxTemp-r.MaxTemp) > 1e-6 || math.Abs(b.Power-r.Power) > 1e-6 {
			t.Errorf("point %d (ω=%g, I=%g): batched (%g K, %g W) vs per-point (%g K, %g W)",
				i, b.Omega, b.ITEC, b.MaxTemp, b.Power, r.MaxTemp, r.Power)
		}
	}
}

// TestSurfaceBatchedParallelMatchesSerial: rows are independent batches,
// so the batched sweep is bit-deterministic for any worker count, with
// rows long enough to reach the projected chunks.
func TestSurfaceBatchedParallelMatchesSerial(t *testing.T) {
	setup := FastSetup()
	serialSys, err := setup.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := SurfaceSystem(context.Background(), serialSys, 10, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	parSys, err := setup.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	par, err := SurfaceSystem(context.Background(), parSys, 10, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("batched surface differs between 1 and 4 workers")
	}
}
