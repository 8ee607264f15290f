package core

import (
	"context"
	"testing"

	"oftec/internal/backend"
)

// TestEvaluateBatchContextMatchesPerPoint pins the System-level batch
// seam: batched evaluation populates the same shared cache, so per-point
// replays return pointer-identical results, and the batch counters tick.
func TestEvaluateBatchContextMatchesPerPoint(t *testing.T) {
	s := benchSystem(t, "Basicmath")
	if _, ok := s.Backend().(backend.BatchEvaluator); !ok {
		t.Fatal("full backend lost the BatchEvaluator capability")
	}
	ops := []backend.OpPoint{
		backend.Scalar(150, 0),
		backend.Scalar(150, 1),
		backend.Scalar(250, 0.5),
		backend.Scalar(150, 1), // duplicate
	}
	res, err := s.EvaluateBatchContext(context.Background(), ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[3] != res[1] {
		t.Error("duplicate op did not alias the first occurrence")
	}
	for i, op := range ops {
		solo, err := s.Evaluate(op.Omega, op.Currents[0])
		if err != nil {
			t.Fatal(err)
		}
		if solo != res[i] {
			t.Errorf("point %d: per-point replay returned a different pointer", i)
		}
	}
	if stats := s.CacheStats(); stats.Batches == 0 || stats.BatchPoints < int64(len(ops)) {
		t.Errorf("batch counters did not tick: %+v", stats)
	}
}
