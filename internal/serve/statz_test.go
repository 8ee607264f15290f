package serve

import (
	"net/http"
	"os"
	"testing"

	"oftec/internal/backend"
)

// TestStatzBatchCounters drives a sweep (whole ω-rows submitted as
// batches) and checks /statz reports the blocked traffic alongside the
// /stats superset.
func TestStatzBatchCounters(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/sweep", SweepRequest{NOmega: 4, NI: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body.String())
	}
	rec = get(t, h, "/statz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statz status %d: %s", rec.Code, rec.Body.String())
	}
	statz := decodeBody[StatzResponse](t, rec)
	if statz.Batch.Batches < 4 || statz.Batch.BatchPoints < 16 {
		t.Errorf("4×4 sweep counted %d batches / %d points, want ≥4 / ≥16", statz.Batch.Batches, statz.Batch.BatchPoints)
	}
	if statz.Cache.Misses == 0 || statz.Pool.Builds != 1 || statz.Req.Sweep != 1 {
		t.Errorf("statz superset fields off: %+v", statz)
	}
}

// TestStatzAdmissionExempt: /statz must answer on a saturated server.
func TestStatzAdmissionExempt(t *testing.T) {
	s := New(Options{MaxInflight: 1})
	h := s.Handler()
	s.sem <- struct{}{} // occupy the only slot
	defer func() { <-s.sem }()
	if rec := get(t, h, "/statz"); rec.Code != http.StatusOK {
		t.Errorf("statz blocked by admission control: %d", rec.Code)
	}
}

// TestROMCacheDirPersists: a server with ROMCacheDir set writes the ROM
// basis for a "rom"-backed chip so a restart can skip snapshot
// collection.
func TestROMCacheDirPersists(t *testing.T) {
	dir := t.TempDir()
	prev := backend.ROMCacheDir()
	defer backend.SetROMCacheDir(prev)

	s := New(Options{ROMCacheDir: dir})
	h := s.Handler()
	rec := post(t, h, "/v1/evaluate", EvaluateRequest{
		Chip: ChipSpec{Backend: "rom"}, OmegaRPM: 3000, ITecA: 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("rom evaluate status %d: %s", rec.Code, rec.Body.String())
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("ROM cache dir empty after building a rom-backed chip")
	}
}
