package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"time"
	"weak"

	"oftec/internal/evalcache"
	"oftec/internal/solver"
	"oftec/internal/thermal"
)

// opStream is the seeded operation sequence. A round runs every cell
// under every one of its variants once, in an order the seed shuffles,
// so the seed changes the order and the inputs' sequence while every
// seed does the same mix of work.
type opStream struct {
	pairs []optCell
	rng   *rand.Rand
	ops   []optCell
}

func newOpStream(cells []optCell, seed uint64) *opStream {
	s := &opStream{rng: rand.New(rand.NewPCG(seed, 0x6f66746563))}
	for _, c := range cells {
		for v := range c.variants() {
			c.Variant = v
			s.pairs = append(s.pairs, c)
		}
	}
	return s
}

// at returns operation i, extending the sequence one round at a time.
func (s *opStream) at(i int) optCell {
	for i >= len(s.ops) {
		for _, j := range s.rng.Perm(len(s.pairs)) {
			s.ops = append(s.ops, s.pairs[j])
		}
	}
	return s.ops[i]
}

// opRecord is the count fingerprint of one operation: what the
// determinism record stores and the traced-run equivalence compares.
type opRecord struct {
	Cell        string    `json:"cell"`
	Omega       float64   `json:"omega"`
	Currents    []float64 `json:"currents,omitempty"`
	PowerBits   uint64    `json:"power_bits"` // 𝒫 (optimize) or a hash of the surface
	Misses      int64     `json:"misses"`
	SolverIters int       `json:"solver_iters"`
	FuncEvals   int       `json:"func_evals"`
	CGFinal     int       `json:"cg_final"` // CG iterations of the certified result; -1 for sweeps
	CGTotal     int       `json:"cg_total"` // CG iterations of the op; -1 when it ran untraced
}

// sameOutcome compares everything but CGTotal, which only a traced run
// observes.
func (a opRecord) sameOutcome(b opRecord) bool {
	if a.Cell != b.Cell || len(a.Currents) != len(b.Currents) ||
		math.Float64bits(a.Omega) != math.Float64bits(b.Omega) || a.PowerBits != b.PowerBits ||
		a.Misses != b.Misses || a.SolverIters != b.SolverIters || a.FuncEvals != b.FuncEvals || a.CGFinal != b.CGFinal {
		return false
	}
	for i := range a.Currents {
		if math.Float64bits(a.Currents[i]) != math.Float64bits(b.Currents[i]) {
			return false
		}
	}
	return true
}

// opResult is one timed operation.
type opResult struct {
	rec     opRecord
	points  int           // operations in the throughput sense: 1, or the points of a sweep
	lat     time.Duration // the latency sample: build + optimize, or one sweep
	wall    time.Duration // build + run
	build   time.Duration
	run     time.Duration
	cache   evalcache.Stats
	reports []solver.Report
	iterMS  []float64 // solver iteration intervals (traced only)
	chk     optCheck
	err     error // a failure: error, wrong answer or memo hit
	// Identities for the memo guard: the model the operation ran on and
	// the result it certified (zero when there is none).
	model  weak.Pointer[thermal.Model]
	result weak.Pointer[thermal.Result]
}

// memoGuard fails operations that measured a memo instead of a solve.
// Besides an operation's own counts it remembers, across a whole run,
// the thermal model and the certified result every earlier operation was
// handed: each operation builds a fresh system, so meeting one of them
// again means a memo (a reused model's per-version result store) answered.
// Weak pointers identify the objects without keeping them alive, and never
// match a later object at a reused address.
type memoGuard struct {
	n       int // operations checked so far
	models  map[weak.Pointer[thermal.Model]]string
	results map[weak.Pointer[thermal.Result]]string
}

func newMemoGuard() *memoGuard {
	return &memoGuard{models: map[weak.Pointer[thermal.Model]]string{}, results: map[weak.Pointer[thermal.Result]]string{}}
}

// check fails op when it made no evaluation-cache miss, spent no CG
// iteration (cg < 0: not observable in this run), was handed stale
// results (a traced run's count of results an earlier operation got), or
// reuses an earlier operation's model or certified result.
func (g *memoGuard) check(op opResult, cg, stale int) error {
	key := op.rec.Cell
	g.n++
	label := fmt.Sprintf("operation %d (%s)", g.n, key)
	switch {
	case op.rec.Misses == 0:
		return fmt.Errorf("%s: memo guard: no evaluation-cache miss", key)
	case cg == 0:
		return fmt.Errorf("%s: memo guard: no CG iteration", key)
	case stale > 0:
		return fmt.Errorf("%s: memo guard: %d backend results were handed to an earlier operation", key, stale)
	}
	var zero weak.Pointer[thermal.Model]
	if op.model != zero {
		if prev, ok := g.models[op.model]; ok {
			return fmt.Errorf("%s: memo guard: runs on the model of %s", key, prev)
		}
		g.models[op.model] = label
	}
	var none weak.Pointer[thermal.Result]
	if op.result != none {
		if prev, ok := g.results[op.result]; ok {
			return fmt.Errorf("%s: memo guard: certified the result of %s", key, prev)
		}
		g.results[op.result] = label
	}
	return nil
}

// phase is the outcome of running the stream for a while.
type phase struct {
	ops    []opResult
	use    usageDelta
	heapMB float64
	spans  []span
	solves []int
}

// opFunc runs one operation, traced when rec is non-nil.
type opFunc func(c optCell, i int, rec *recorder) opResult

// runPhase runs operations from the start of the stream until the
// deadline passes (at least one operation).
func runPhase(s *opStream, seconds float64, rec *recorder, do opFunc) phase {
	var ph phase
	hw := watchHeap()
	u0 := readUsage()
	deadline := u0.wall.Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if rec != nil {
			rec.beginOp(i)
		}
		ph.ops = append(ph.ops, do(s.at(i), i, rec))
	}
	ph.use = u0.to(readUsage())
	ph.heapMB = hw.stop()
	if rec != nil {
		ph.spans, ph.solves = rec.snapshot()
	}
	return ph
}

// Set-up repeats: setup_s is the median of this many set-ups. A cheap
// set-up (model builds, tens of milliseconds) is repeated often enough
// that host jitter over one short window does not move the median; a
// slow one (ROM collection, server warm-up, over a second) fewer times.
const (
	setupRepeatsCheap = 25
	setupRepeatsSlow  = 5
)

// medianSetup times f n times and returns the median in seconds.
func medianSetup(n int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		xs = append(xs, time.Since(t).Seconds())
	}
	return median(xs), nil
}

// tailPercentile is the percentile op_ms_tail reports on every workload.
const tailPercentile = 90

// streamSpec describes a stream workload to streamResult.
type streamSpec struct {
	name   string
	stream *opStream
	setupS float64
	do     opFunc
	sweeps bool // operations fan out (no core self time)
}

// streamResult runs the untraced phase (and the traced one when asked),
// applies the checks, and assembles the metrics.
func streamResult(rc runConfig, sp streamSpec) *result {
	untracedS := rc.seconds
	if rc.trace {
		untracedS = rc.seconds / 2
	}
	plain := runPhase(sp.stream, untracedS, nil, sp.do)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) {
		res.Failed++
		if res.Failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL", err)
		}
	}
	guard := newMemoGuard()
	records := make([]opRecord, len(plain.ops))
	for i, op := range plain.ops {
		res.Attempted++
		if op.err == nil {
			op.err = guard.check(op, op.rec.CGFinal, 0)
		}
		if op.err != nil {
			fail(op.err)
		}
		records[i] = op.rec
	}

	if !rc.trace {
		var lat []float64
		points := 0
		for _, op := range plain.ops {
			lat = append(lat, ms(op.lat))
			points += op.points
		}
		res.Metrics["setup_s"] = metric{sp.setupS, "s"}
		res.Metrics["ops_per_s"] = metric{float64(points) / plain.use.wall.Seconds(), "1/s"}
		res.Metrics["op_ms_p50"] = metric{median(lat), "ms"}
		res.Metrics["op_ms_tail"] = metric{tailReport(sp.name+" op_ms", lat, tailPercentile), "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{ms(plain.use.cpu) / float64(points), "ms"}
		res.Metrics["heap_peak_mb"] = metric{plain.heapMB, "MB"}
	} else {
		traced := runPhase(sp.stream, rc.seconds/2, newRecorder(), sp.do)
		for i, op := range traced.ops {
			res.Attempted++
			cg, stale := opCG(traced.spans, i)
			if op.err == nil {
				op.err = guard.check(op, cg, stale)
			}
			if op.err == nil && i < len(records) && !records[i].sameOutcome(op.rec) {
				op.err = fmt.Errorf("%s: the traced run diverged from the untraced run at op %d: %+v vs %+v", op.rec.Cell, i, op.rec, records[i])
			}
			if op.err != nil {
				fail(op.err)
			}
			if i < len(records) {
				records[i].CGTotal = cg
			}
		}
		layerMetrics(res.Metrics, plain, traced, sp.sweeps)
		res.Metrics["check.error_rate"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
		if err := writeSpans(spanPath(sp.name, rc.seed), traced.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	if err := checkDeterminism(sp.name, rc.seed, records); err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", err)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res
}

// opCG sums the CG iterations, forward and adjoint, that the backend
// spans of op i spent, and the stale results they returned.
func opCG(spans []span, i int) (cg, stale int) {
	for _, s := range spans {
		if s.Op == i && s.Layer == "backend" {
			cg += s.CG + s.Adjoint
			stale += s.Stale
		}
	}
	return cg, stale
}
