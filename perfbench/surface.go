package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"time"
	"weak"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/experiments"
	"oftec/internal/workload"
)

// checksPerSweep is how many stored reference points each sweep is
// checked against.
const checksPerSweep = 50

// surfacer runs surface-batch operations.
type surfacer struct {
	seed uint64
	refs map[string][]surfRef
}

func sweepCells() []optCell {
	var cells []optCell
	for _, b := range workload.All() {
		cells = append(cells, optCell{Bench: b.Name, Form: formSweep})
	}
	return cells
}

// run sweeps the Fig. 6(a)/(b) grid on a fresh full-resolution system
// with one worker per CPU, then checks a seeded subset of the points.
func (s *surfacer) run(c optCell, i int, rec *recorder) opResult {
	out := opResult{rec: opRecord{Cell: c.key(), CGFinal: -1, CGTotal: -1}}
	t0 := time.Now()
	base, err := experiments.DefaultSetup().System(c.Bench)
	if err != nil {
		out.err = fmt.Errorf("%s: building system: %w", c.key(), err)
		return out
	}
	ev := backend.Evaluator(base.Backend())
	if m, ok := backend.ModelOf(ev); ok {
		out.model = weak.Make(m)
	}
	if rec != nil {
		if ev, err = rec.wrap(ev, false); err != nil {
			out.err = err
			return out
		}
	}
	cache := evalcache.New(0)
	sys := core.NewSystemShared(ev, cache)
	t1 := time.Now()
	pts, err := experiments.SurfaceSystem(context.Background(), sys, surfaceGrid, surfaceGrid, runtime.NumCPU())
	end := time.Now()
	out.build, out.run, out.wall, out.lat = t1.Sub(t0), end.Sub(t1), end.Sub(t0), end.Sub(t1)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", c.key(), err)
		return out
	}
	out.points = len(pts)
	out.cache = cache.Stats()
	out.rec.Misses = out.cache.Misses
	out.rec.PowerBits = surfaceHash(pts)
	if out.cache.Misses != int64(len(pts)) {
		out.err = fmt.Errorf("%s: memo guard: %d evaluation-cache misses for %d distinct points", c.key(), out.cache.Misses, len(pts))
		return out
	}
	if s.refs != nil {
		out.err = s.check(c.Bench, i, pts)
	}
	return out
}

// check compares checksPerSweep reference points, chosen from the seed
// and the operation index, with the sweep.
func (s *surfacer) check(bench string, op int, pts []experiments.SurfacePoint) error {
	refs := s.refs[bench]
	if len(refs) == 0 {
		return fmt.Errorf("surface %s: no reference points", bench)
	}
	rng := rand.New(rand.NewPCG(s.seed, uint64(op)))
	for _, k := range rng.Perm(len(refs))[:min(checksPerSweep, len(refs))] {
		ref := refs[k]
		if err := checkSurfacePoint(bench, pts[ref.I*surfaceGrid+ref.J], ref); err != nil {
			return err
		}
	}
	return nil
}

// surfaceHash fingerprints a whole sweep for the traced-run equivalence.
func surfaceHash(pts []experiments.SurfacePoint) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range pts {
		for _, v := range []float64{p.Omega, p.ITEC, p.MaxTemp, p.Power} {
			bits := math.Float64bits(v)
			for k := range b {
				b[k] = byte(bits >> (8 * k))
			}
			//lint:ignore errdrop hash.Hash's Write is documented to never fail
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// runSurfaceBatch is the surface-batch workload.
func runSurfaceBatch(rc runConfig) (*result, error) {
	refs, err := loadSurfaceRefs()
	if err != nil {
		return nil, err
	}
	s := &surfacer{seed: rc.seed, refs: refs}
	stream := newOpStream(sweepCells(), rc.seed)
	setupS, err := medianSetup(setupRepeatsCheap, func() error {
		for _, b := range workload.All() {
			if _, err := experiments.DefaultSetup().System(b.Name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.run(stream.at(0), 0, nil)
	return streamResult(rc, streamSpec{name: "surface-batch", stream: stream, setupS: setupS,
		do: s.run, sweeps: true}), nil
}
