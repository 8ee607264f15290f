package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"oftec/internal/evalcache"
	"oftec/internal/solver"
)

// layerUnits lists every per-layer metric and its unit. A traced run
// prints all of them; one that does not apply to the workload reads 0
// (README.md says which apply where).
var layerUnits = map[string]string{
	"serve.handler_ms_p50":   "ms",
	"serve.handler_ms_p99":   "ms",
	"serve.transport_ms_p50": "ms",
	"serve.latency_ms_p99":   "ms",
	"serve.refused":          "count",
	"loadgen.late_ms_p99":    "ms",

	"core.build_ms_per_op": "ms",
	"core.self_ms_per_op":  "ms",

	"solver.iterations_per_op":   "count/op",
	"solver.func_evals_per_op":   "count/op",
	"solver.grad_evals_per_op":   "count/op",
	"solver.converged_share":     "ratio",
	"solver.iter_ms_p50":         "ms",
	"evalcache.lookups":          "count/op",
	"evalcache.hit_ratio":        "ratio",
	"evalcache.misses_per_op":    "count/op",
	"evalcache.waits":            "count/op",
	"evalcache.rotations":        "count",
	"evalcache.batch_points":     "count/op",
	"backend.evaluate_calls":     "count/op",
	"backend.evaluate_ms_p50":    "ms",
	"backend.batch_calls":        "count/op",
	"backend.batch_width":        "count",
	"backend.batch_ms_per_point": "ms",
	"backend.grad_calls":         "count/op",
	"backend.grad_ms_p50":        "ms",
	"backend.grad_borrowed":      "count/op",

	"sparse.cg_iters_per_solve_p50": "count",
	"sparse.cg_iters_per_op":        "count/op",
	"sparse.adjoint_iters_per_grad": "count",
	"sparse.zero_iter_solves":       "count/op",

	"parallel.cpu_util":       "ratio",
	"runtime.alloc_mb_per_op": "MB",
	"runtime.gc_cpu_frac":     "ratio",
	"trace.overhead_frac":     "ratio",
	"check.error_rate":        "ratio",
}

// layers accumulates the per-layer values of one traced run.
type layers map[string]float64

// into writes every per-layer metric into m, zero where unset.
func (l layers) into(m map[string]metric) {
	for name, unit := range layerUnits {
		m[name] = metric{l[name], unit}
	}
}

// addCache records evaluation-cache deltas over ops operations.
func (l layers) addCache(st evalcache.Stats, ops int) {
	lookups := float64(st.Hits + st.Waits + st.Misses + st.Collisions)
	n := float64(ops)
	l["evalcache.lookups"] = lookups / n
	l["evalcache.hit_ratio"] = ratio(float64(st.Hits+st.Waits), lookups)
	l["evalcache.misses_per_op"] = float64(st.Misses) / n
	l["evalcache.waits"] = float64(st.Waits) / n
	l["evalcache.rotations"] = float64(st.Rotations)
	l["evalcache.batch_points"] = float64(st.BatchPoints) / n
}

// addBackend derives the backend and sparse metrics from the spans of
// ops operations.
func (l layers) addBackend(spans []span, solves []int, ops int) {
	n := float64(ops)
	var evalMS, gradMS []float64
	var batchCalls, batchWidth, borrowed, zero, cg, adjoint int
	var batchMS float64
	for _, s := range spans {
		if s.Layer != "backend" {
			continue
		}
		zero += s.Zero
		cg += s.CG
		switch s.Name {
		case "evaluate":
			evalMS = append(evalMS, s.dur())
		case "batch":
			batchCalls++
			batchWidth += s.Width
			batchMS += s.dur()
		case "grad":
			gradMS = append(gradMS, s.dur())
			adjoint += s.Adjoint
			if s.Borrowed {
				borrowed++
			}
		}
	}
	l["backend.evaluate_calls"] = float64(len(evalMS)) / n
	l["backend.evaluate_ms_p50"] = median(evalMS)
	l["backend.batch_calls"] = float64(batchCalls) / n
	l["backend.batch_width"] = ratio(float64(batchWidth), float64(batchCalls))
	l["backend.batch_ms_per_point"] = ratio(batchMS, float64(batchWidth))
	l["backend.grad_calls"] = float64(len(gradMS)) / n
	l["backend.grad_ms_p50"] = median(gradMS)
	l["backend.grad_borrowed"] = float64(borrowed) / n

	iters := make([]float64, len(solves))
	for i, v := range solves {
		iters[i] = float64(v)
	}
	l["sparse.cg_iters_per_solve_p50"] = median(iters)
	l["sparse.cg_iters_per_op"] = float64(cg) / n
	l["sparse.adjoint_iters_per_grad"] = ratio(float64(adjoint), float64(len(gradMS)))
	l["sparse.zero_iter_solves"] = float64(zero) / n
}

// addRuntime records the process-level figures of a traced phase.
func (l layers) addRuntime(u usageDelta, ops int) {
	l["parallel.cpu_util"] = u.cpuUtil()
	l["runtime.alloc_mb_per_op"] = u.allocMB / float64(ops)
	l["runtime.gc_cpu_frac"] = u.gcFrac()
}

// addSolver records solver counts from the reports of ops operations and
// the iteration intervals the solver trace timestamped.
func (l layers) addSolver(reports []solver.Report, iterMS []float64, ops int) {
	n := float64(ops)
	var iters, evals, grads, ran, conv int
	for _, r := range reports {
		iters += r.Iterations
		evals += r.FuncEvals
		grads += r.GradEvals
		if r.Iterations > 0 || r.FuncEvals > 0 {
			ran++
			if r.Converged || r.EarlyStopped {
				conv++
			}
		}
	}
	l["solver.iterations_per_op"] = float64(iters) / n
	l["solver.func_evals_per_op"] = float64(evals) / n
	l["solver.grad_evals_per_op"] = float64(grads) / n
	l["solver.converged_share"] = ratio(float64(conv), float64(ran))
	l["solver.iter_ms_p50"] = median(iterMS)
}

// layerMetrics fills the per-layer metrics of a stream workload from its
// untraced and traced phases.
func layerMetrics(m map[string]metric, plain, traced phase, sweeps bool) {
	l := layers{}
	n := len(traced.ops)
	var st evalcache.Stats
	var reports []solver.Report
	var iterMS []float64
	var build, self float64
	backendMS := map[int]float64{}
	for _, s := range traced.spans {
		if s.Layer == "backend" {
			backendMS[s.Op] += s.dur()
		}
	}
	for i, op := range traced.ops {
		st.Hits += op.cache.Hits
		st.Waits += op.cache.Waits
		st.Misses += op.cache.Misses
		st.Collisions += op.cache.Collisions
		st.Rotations += op.cache.Rotations
		st.BatchPoints += op.cache.BatchPoints
		reports = append(reports, op.reports...)
		iterMS = append(iterMS, op.iterMS...)
		build += ms(op.build)
		self += ms(op.run) - backendMS[i]
	}
	l["core.build_ms_per_op"] = build / float64(n)
	if !sweeps {
		// A sweep's backend calls overlap on several workers, so wall
		// time minus backend time is not core's own time.
		l["core.self_ms_per_op"] = self / float64(n)
	}
	l.addCache(st, n)
	l.addSolver(reports, iterMS, n)
	l.addBackend(traced.spans, traced.solves, n)
	l.addRuntime(traced.use, n)
	l["trace.overhead_frac"] = overhead(plain.ops, traced.ops)
	l.into(m)
}

// overhead compares the traced and untraced wall time of the operations
// both phases completed (the same operations, in the same order).
func overhead(plain, traced []opResult) float64 {
	k := len(plain)
	if len(traced) < k {
		k = len(traced)
	}
	var a, b float64
	for i := 0; i < k; i++ {
		a += ms(plain[i].wall)
		b += ms(traced[i].wall)
	}
	return ratio(b, a) - 1
}

// writeSpans dumps a traced run's spans, one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
