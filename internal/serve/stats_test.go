package serve

import (
	"net/http"
	"os"
	"testing"

	"oftec/internal/backend"
)

// TestStatsBatchCounters drives a sweep (whole ω-rows submitted as
// batches) and checks /stats reports the blocked traffic alongside the
// pool, cache, and request counters, and that /statz answers 404.
func TestStatsBatchCounters(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	rec := post(t, h, "/v1/sweep", SweepRequest{NOmega: 4, NI: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body.String())
	}
	rec = get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", rec.Code, rec.Body.String())
	}
	stats := decodeBody[StatsResponse](t, rec)
	if stats.Batch.Batches < 4 || stats.Batch.BatchPoints < 16 {
		t.Errorf("4×4 sweep counted %d batches / %d points, want ≥4 / ≥16", stats.Batch.Batches, stats.Batch.BatchPoints)
	}
	if stats.Cache.Misses == 0 || stats.Pool.Builds != 1 || stats.Req.Sweep != 1 {
		t.Errorf("stats fields off: %+v", stats)
	}
	if rec := get(t, h, "/statz"); rec.Code != http.StatusNotFound {
		t.Errorf("GET /statz answered %d, want 404", rec.Code)
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
