package thermal

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"
)

// romTestOptions keeps ROM construction fast at test resolution. Defaults
// are filled eagerly so romIdentity sees the same options NewReducedModel
// hashes internally.
func romTestOptions(dir string) ROMOptions {
	opts := ROMOptions{
		MaxRank:          16,
		SnapshotOmegas:   4,
		SnapshotCurrents: 3,
		ValidateOmegas:   3,
		ValidateCurrents: 2,
		CacheDir:         dir,
	}
	opts.setDefaults()
	return opts
}

// romEvalGrid compares two ROMs over a probe grid; both must make the
// same accept/reject decisions and return DeepEqual results.
func assertROMsIdentical(t *testing.T, label string, a, b *ReducedModel) {
	t.Helper()
	if a.rank != b.rank || a.omegaFloor != b.omegaFloor || a.bound != b.bound || a.kappa != b.kappa {
		t.Fatalf("%s: calibration differs: rank %d/%d floor %g/%g bound %g/%g kappa %g/%g",
			label, a.rank, b.rank, a.omegaFloor, b.omegaFloor, a.bound, b.bound, a.kappa, b.kappa)
	}
	if !reflect.DeepEqual(a.basis, b.basis) {
		t.Fatalf("%s: basis bits differ", label)
	}
	cfg := a.m.Config()
	for _, omega := range []float64{a.omegaFloor, (a.omegaFloor + cfg.Fan.OmegaMax) / 2, cfg.Fan.OmegaMax} {
		for _, itec := range []float64{0, 0.5 * cfg.TEC.MaxCurrent, cfg.TEC.MaxCurrent} {
			ra, oka, err := a.Evaluate(omega, itec)
			if err != nil {
				t.Fatal(err)
			}
			rb, okb, err := b.Evaluate(omega, itec)
			if err != nil {
				t.Fatal(err)
			}
			if oka != okb {
				t.Fatalf("%s: (ω=%g, I=%g): accept %v vs %v", label, omega, itec, oka, okb)
			}
			if oka && !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s: (ω=%g, I=%g): results differ bitwise", label, omega, itec)
			}
		}
	}
}

func romCacheFile(t testing.TB, m *Model, opts ROMOptions) string {
	t.Helper()
	identity, err := romIdentity(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return romCachePath(opts.CacheDir, identity)
}

func TestROMPersistRoundTripBitIdentical(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	opts := romTestOptions(dir)

	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, opts)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("fresh build did not persist its basis: %v", err)
	}

	// A restarted replica: fresh model, same config and workload, same
	// cache dir. It must load, skipping collection, and behave
	// bit-identically to the freshly collected ROM.
	m2 := benchModel(t, cfg, "Basicmath")
	loaded, err := loadCachedROM(m2, opts)
	if err != nil {
		t.Fatalf("persisted basis did not load: %v", err)
	}
	assertROMsIdentical(t, "replica", collected, loaded)

	// NewReducedModel takes the same load path.
	viaNew, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), opts)
	if err != nil {
		t.Fatal(err)
	}
	assertROMsIdentical(t, "via-new", collected, viaNew)
}

func TestROMPersistCorruptByteRejectedAndFallsThrough(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	opts := romTestOptions(dir)
	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, opts)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the basis payload: the checksum must catch it.
	for _, pos := range []int{romHeaderLen + 11, len(raw) / 2, 9} {
		bad := make([]byte, len(raw))
		copy(bad, raw)
		bad[pos] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCachedROM(benchModel(t, cfg, "Basicmath"), opts); err == nil {
			t.Fatalf("corrupt byte at %d accepted", pos)
		}
		// The constructor falls through to a full rebuild and the result
		// still matches the original.
		rebuilt, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), opts)
		if err != nil {
			t.Fatalf("corrupt cache broke construction: %v", err)
		}
		assertROMsIdentical(t, "rebuilt-after-corruption", collected, rebuilt)
	}

	// A truncated file is rejected too.
	if err := os.WriteFile(path, raw[:romHeaderLen-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCachedROM(benchModel(t, cfg, "Basicmath"), opts); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestROMPersistStaleVersionIgnored(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	opts := romTestOptions(dir)
	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, opts)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the format version and re-seal the checksum, so the ONLY
	// defect is staleness — it must be ignored on its own merits, not
	// caught as corruption.
	stale := make([]byte, len(raw))
	copy(stale, raw)
	binary.LittleEndian.PutUint32(stale[8:], romFormatVersion+7)
	h := fnv.New64a()
	h.Write(stale[:len(stale)-8])
	binary.LittleEndian.PutUint64(stale[len(stale)-8:], h.Sum64())
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadCachedROM(benchModel(t, cfg, "Basicmath"), opts)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("stale version: err = %v, want a format-version rejection", err)
	}
	if _, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), opts); err != nil {
		t.Fatalf("stale cache broke construction: %v", err)
	}
}

func TestROMPersistIdentityMismatchIgnored(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	opts := romTestOptions(dir)
	collected, err := NewReducedModel(benchModel(t, cfg, "Basicmath"), opts)
	if err != nil {
		t.Fatal(err)
	}
	path := romCacheFile(t, collected.m, opts)

	// A different workload has a different identity: its cache path is
	// empty, so the load misses and the build runs fresh.
	other := benchModel(t, cfg, "CRC32")
	if _, err := loadCachedROM(other, opts); err == nil {
		t.Fatal("foreign-identity cache load unexpectedly succeeded")
	}

	// Planting Basicmath's file under CRC32's content address must fail
	// the in-header identity check, not load a wrong basis.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(romCacheFile(t, other, opts), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadCachedROM(benchModel(t, cfg, "CRC32"), opts)
	if err == nil || !strings.Contains(err.Error(), "identity") {
		t.Fatalf("planted foreign basis: err = %v, want an identity rejection", err)
	}

	// CacheKey participates in the identity.
	keyed := opts
	keyed.CacheKey = "replica-7"
	idA, err := romIdentity(collected.m, opts)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := romIdentity(collected.m, keyed)
	if err != nil {
		t.Fatal(err)
	}
	if idA == idB {
		t.Error("CacheKey does not change the identity hash")
	}
}
