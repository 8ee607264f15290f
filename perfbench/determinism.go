package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// recordLen bounds how many operations a determinism record keeps.
const recordLen = 64

// checkDeterminism compares this run's per-operation counts with the
// record an earlier run of the same build, workload and seed left behind,
// and then stores the longer of the two. Counts (evaluation-cache misses,
// solver iterations and evaluations, CG iterations) and the answers
// themselves must repeat exactly; CG totals are compared where both runs
// were traced. Records are keyed by the harness binary, so a changed
// program starts a fresh record instead of failing against its parent's.
func checkDeterminism(workload string, seed uint64, records []opRecord) error {
	if len(records) > recordLen {
		records = records[:recordLen]
	}
	build, err := buildID()
	if err != nil {
		return fmt.Errorf("determinism record: %w", err)
	}
	path := filepath.Join(workDir, fmt.Sprintf("record-%s-seed%d-%s.json", workload, seed, build))
	var prev []opRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("determinism record %s: %w", path, err)
		}
	}
	merged, err := mergeRecords(prev, records)
	if err != nil {
		return fmt.Errorf("determinism record %s: %w", path, err)
	}
	data, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// mergeRecords checks that two records of the same seed agree on their
// common prefix and returns their union.
func mergeRecords(a, b []opRecord) ([]opRecord, error) {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := append([]opRecord(nil), a...)
	for i, r := range b {
		if !out[i].sameOutcome(r) {
			return nil, fmt.Errorf("op %d differs from an earlier run with the same seed: %+v vs %+v", i, r, out[i])
		}
		switch {
		case out[i].CGTotal < 0:
			out[i].CGTotal = r.CGTotal
		case r.CGTotal >= 0 && r.CGTotal != out[i].CGTotal:
			return nil, fmt.Errorf("op %d spent %d CG iterations, an earlier run with the same seed %d", i, r.CGTotal, out[i].CGTotal)
		}
	}
	return out, nil
}

// buildID names the running harness build: a digest of its executable.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	//lint:ignore errdrop the file is only read
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}
