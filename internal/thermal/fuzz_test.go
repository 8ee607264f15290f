package thermal

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"testing"
)

// FuzzLoadConfig feeds arbitrary bytes to the config loader. It must never
// panic, and whatever it accepts must pass Validate and survive a
// SaveConfig/LoadConfig round trip byte for byte.
//
//	go test ./internal/thermal -run '^$' -fuzz FuzzLoadConfig -fuzztime 10s
func FuzzLoadConfig(f *testing.F) {
	for _, cfg := range []Config{DefaultConfig(), testConfig()} {
		var buf bytes.Buffer
		if err := SaveConfig(&buf, cfg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	withMultipliers := testConfig()
	withMultipliers.Leakage.UnitMultipliers = map[string]float64{"Icache": 1.8}
	var buf bytes.Buffer
	if err := SaveConfig(&buf, withMultipliers); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, s := range []string{"", "null", "{}", "[]", "not json", `{"Ambient": -5}`, `{"NoSuchField": 1}`} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("LoadConfig accepted a config that fails Validate: %v", err)
		}
		var first bytes.Buffer
		if err := SaveConfig(&first, c); err != nil {
			t.Fatalf("accepted config does not save: %v", err)
		}
		back, err := LoadConfig(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved config does not reload: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := SaveConfig(&second, back); err != nil {
			t.Fatalf("reloaded config does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("config changed across a save/load round trip:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzROMCacheFile writes arbitrary bytes at a model's OFTECROM cache path.
// loadCachedROM must never panic, and must either reject the file or load
// a basis and calibration bit-identical to the ROM that was saved there.
// The checksum guards against corruption, not forgery, so the seeds that
// reach the fields behind it carry a recomputed checksum.
//
//	go test ./internal/thermal -run '^$' -fuzz FuzzROMCacheFile -fuzztime 10s
func FuzzROMCacheFile(f *testing.F) {
	// A coarse grid and a low rank keep the file under 4 KB, so mutation
	// and minimization stay fast.
	cfg := testConfig()
	cfg.ChipRes, cfg.SpreaderRes, cfg.SinkRes, cfg.PCBRes = 4, 3, 3, 2
	opts := romTestOptions(f.TempDir())
	opts.MaxRank = 4
	saved, err := NewReducedModel(benchModel(f, cfg, "Basicmath"), opts)
	if err != nil {
		f.Fatal(err)
	}
	path := romCacheFile(f, saved.m, opts)
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	m := benchModel(f, cfg, "Basicmath")
	if _, err := loadCachedROM(m, opts); err != nil {
		f.Fatalf("the saved file does not load: %v", err)
	}

	f.Add(valid)
	for _, n := range []int{0, 8, romHeaderLen - 1, romHeaderLen + 8, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	flipped := func(bit int) []byte {
		b := bytes.Clone(valid)
		b[bit/8] ^= 1 << (bit % 8)
		return b
	}
	// Offsets into the header: magic, version, identity, n, rank, the
	// three calibration scalars; then the basis payload and the checksum.
	for _, off := range []int{0, 8, 12, 20, 24, 28, 36, 44, romHeaderLen, len(valid) / 2, len(valid) - 1} {
		f.Add(flipped(8*off + 3))
	}
	resummed := func(b []byte) []byte {
		h := fnv.New64a()
		h.Write(b[:len(b)-8])
		binary.LittleEndian.PutUint64(b[len(b)-8:], h.Sum64())
		return b
	}
	for _, off := range []int{8, 12, 20, 24} { // version, identity, n, rank
		f.Add(resummed(flipped(8 * off)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadCachedROM(m, opts)
		if err != nil {
			return
		}
		same := got.rank == saved.rank &&
			math.Float64bits(got.omegaFloor) == math.Float64bits(saved.omegaFloor) &&
			math.Float64bits(got.bound) == math.Float64bits(saved.bound) &&
			math.Float64bits(got.kappa) == math.Float64bits(saved.kappa)
		for k := 0; same && k < got.rank; k++ {
			for i, v := range got.basis[k] {
				if math.Float64bits(v) != math.Float64bits(saved.basis[k][i]) {
					same = false
					break
				}
			}
		}
		if !same {
			t.Fatalf("accepted a %d-byte file whose basis or calibration differs from the saved ROM", len(data))
		}
	})
}
