package main

import (
	"context"
	"fmt"
	"sync"
	"time"
	"weak"

	"oftec/internal/backend"
	"oftec/internal/power"
	"oftec/internal/thermal"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call (no span is recorded inside the program).
type span struct {
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	Op       int     `json:"op"`
	StartMS  float64 `json:"start_ms"`
	EndMS    float64 `json:"end_ms"`
	Width    int     `json:"width,omitempty"`    // points in a batch call
	CG       int     `json:"cg,omitempty"`       // CG iterations of fresh solves
	Adjoint  int     `json:"adjoint,omitempty"`  // adjoint CG iterations
	Zero     int     `json:"zero,omitempty"`     // results that cost no CG iteration
	Stale    int     `json:"stale,omitempty"`    // results an earlier operation was handed
	Borrowed bool    `json:"borrowed,omitempty"` // a ROM binding's gradient answered by the full model
	Backend  string  `json:"backend,omitempty"`  // backend name for backend spans
}

func (s span) dur() float64 { return s.EndMS - s.StartMS }

// recorder collects spans in memory. Safe for concurrent use; op is the
// index of the operation the harness is currently timing (operations run
// one at a time, their inner calls may fan out).
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	op     int
	spans  []span
	solves []int // CG iterations of each fresh solve
	// seen maps every result returned during the phase to the operation
	// that first got it. Weak pointers identify a result without keeping
	// it alive, and never match a later result at a reused address.
	seen map[weak.Pointer[thermal.Result]]int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), seen: map[weak.Pointer[thermal.Result]]int{}}
}

// beginOp starts attributing spans to operation op.
func (r *recorder) beginOp(op int) {
	r.mu.Lock()
	r.op = op
	r.mu.Unlock()
}

func (r *recorder) since(t time.Time) float64 { return ms(t.Sub(r.t0)) }

// add records a span; results are scanned for CG work. A result returned
// earlier in the same op (a memo hit below the evaluation cache) counts
// as a zero-iteration solve, one returned to an earlier op as stale: a
// fresh model per operation cannot hand it out again.
func (r *recorder) add(s span, start time.Time, results ...*thermal.Result) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Op = r.op
	s.StartMS = r.since(start)
	s.EndMS = r.since(end)
	for _, res := range results {
		if res == nil {
			continue
		}
		id := weak.Make(res)
		if op, ok := r.seen[id]; ok {
			if op != r.op {
				s.Stale++
			}
			s.Zero++
			continue
		}
		r.seen[id] = r.op
		if res.SolveStats.Iterations == 0 {
			s.Zero++
			continue
		}
		s.CG += res.SolveStats.Iterations
		r.solves = append(r.solves, res.SolveStats.Iterations)
	}
	r.spans = append(r.spans, s)
}

// snapshot returns the spans and per-solve CG counts recorded so far.
func (r *recorder) snapshot() ([]span, []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), append([]int(nil), r.solves...)
}

// capability bits of a backend.Evaluator.
const (
	capBatch = 1 << iota
	capGrad
	capZoner
	capSelector
	capFallthrough
	capModel
	capExact
	capPlant
)

func capsOf(ev backend.Evaluator) int {
	c := 0
	if _, ok := ev.(backend.BatchEvaluator); ok {
		c |= capBatch
	}
	if _, ok := ev.(backend.GradEvaluator); ok {
		c |= capGrad
	}
	if _, ok := ev.(backend.Zoner); ok {
		c |= capZoner
	}
	if _, ok := ev.(backend.Selector); ok {
		c |= capSelector
	}
	if _, ok := ev.(backend.Fallthrough); ok {
		c |= capFallthrough
	}
	if _, ok := ev.(backend.ModelProvider); ok {
		c |= capModel
	}
	if _, ok := ev.(backend.ExactEvaluator); ok {
		c |= capExact
	}
	if _, ok := ev.(backend.Plant); ok {
		c |= capPlant
	}
	return c
}

// The capability sets the registered backends present. A tap must offer
// exactly its inner evaluator's set, or capability probes in core
// (batching, gradients, zoning, fall-through) would take another path
// than the untraced run; wrap refuses any other set.
// capsROMGrad is the rom backend once it answers gradients itself (a ROM
// adjoint) instead of borrowing them through its fall-through.
const (
	capsFull    = capBatch | capGrad | capZoner | capSelector | capModel | capExact | capPlant
	capsROM     = capBatch | capZoner | capSelector | capFallthrough | capExact | capPlant
	capsROMGrad = capsROM | capGrad
	capsZoned   = capBatch | capGrad | capModel
)

// tap is the forwarding decorator the traced run puts around the
// backend.Evaluator handed to core: every call into the backend layer is
// timed and counted, and everything it returns that is itself an
// evaluator (selected siblings, zoned views, the fall-through target) is
// wrapped in turn.
type tap struct {
	inner    backend.Evaluator
	rec      *recorder
	borrowed bool // reached through a ROM's fall-through
}

// wrap decorates ev with a tap offering the same capabilities.
func (r *recorder) wrap(ev backend.Evaluator, borrowed bool) (backend.Evaluator, error) {
	t := &tap{inner: ev, rec: r, borrowed: borrowed}
	switch capsOf(ev) {
	case capsFull:
		return &fullTap{tap: t, batcher: batcher{t}, grader: grader{t}, zoner: zoner{t}, selector: selector{t},
			modeler: modeler{t}, exacter: exacter{t}, planter: planter{t}}, nil
	case capsROM, capsROMGrad:
		next, err := r.wrap(ev.(backend.Fallthrough).Fallthrough(), true)
		if err != nil {
			return nil, err
		}
		rt := &romTap{tap: t, batcher: batcher{t}, zoner: zoner{t}, selector: selector{t},
			faller: faller{next}, exacter: exacter{t}, planter: planter{t}}
		if capsOf(ev) == capsROMGrad {
			return &romGradTap{romTap: rt, grader: grader{t}}, nil
		}
		return rt, nil
	case capsZoned:
		return &zonedTap{tap: t, batcher: batcher{t}, grader: grader{t}, modeler: modeler{t}}, nil
	default:
		return nil, fmt.Errorf("tap: no forwarding type for the capability set %#x of backend %q", capsOf(ev), ev.Name())
	}
}

func (t *tap) Name() string           { return t.inner.Name() }
func (t *tap) Config() thermal.Config { return t.inner.Config() }

func (t *tap) Evaluate(ctx context.Context, op backend.OpPoint, warm []float64) (*thermal.Result, error) {
	start := time.Now()
	res, err := t.inner.Evaluate(ctx, op, warm)
	t.rec.add(span{Layer: "backend", Name: "evaluate", Backend: t.inner.Name()}, start, res)
	return res, err
}

// unwrapTap returns the evaluator a tap forwards to (ev itself when it is
// not a tap).
func unwrapTap(ev any) any {
	switch w := ev.(type) {
	case *fullTap:
		return w.tap.inner
	case *romTap:
		return w.tap.inner
	case *romGradTap:
		return w.tap.inner
	case *zonedTap:
		return w.tap.inner
	}
	return ev
}

type fullTap struct {
	*tap
	batcher
	grader
	zoner
	selector
	modeler
	exacter
	planter
}

type romTap struct {
	*tap
	batcher
	zoner
	selector
	faller
	exacter
	planter
}

type romGradTap struct {
	*romTap
	grader
}

type zonedTap struct {
	*tap
	batcher
	grader
	modeler
}

type batcher struct{ t *tap }

func (b batcher) EvaluateBatch(ctx context.Context, ops []backend.OpPoint, warm []float64) ([]*thermal.Result, error) {
	start := time.Now()
	res, err := b.t.inner.(backend.BatchEvaluator).EvaluateBatch(ctx, ops, warm)
	b.t.rec.add(span{Layer: "backend", Name: "batch", Width: len(ops), Backend: b.t.inner.Name()}, start, res...)
	return res, err
}

type grader struct{ t *tap }

func (g grader) EvaluateGrad(ctx context.Context, op backend.OpPoint) (*thermal.Gradient, error) {
	start := time.Now()
	grad, err := g.t.inner.(backend.GradEvaluator).EvaluateGrad(ctx, op)
	s := span{Layer: "backend", Name: "grad", Borrowed: g.t.borrowed, Backend: g.t.inner.Name()}
	var res *thermal.Result
	if grad != nil {
		s.Adjoint = grad.AdjointStats.Iterations
		res = grad.Result
	}
	g.t.rec.add(s, start, res)
	return grad, err
}

type zoner struct{ t *tap }

func (z zoner) WithZoning(zn *thermal.Zoning) (backend.Evaluator, error) {
	ev, err := z.t.inner.(backend.Zoner).WithZoning(zn)
	if err != nil {
		return nil, err
	}
	return z.t.rec.wrap(ev, false)
}

func (z zoner) NewZoning(assign map[string]int, numZones int) (*thermal.Zoning, error) {
	return z.t.inner.(backend.Zoner).NewZoning(assign, numZones)
}

type selector struct{ t *tap }

func (s selector) Select(name string) (backend.Evaluator, error) {
	ev, err := s.t.inner.(backend.Selector).Select(name)
	if err != nil {
		return nil, err
	}
	return s.t.rec.wrap(ev, false)
}

type faller struct{ next backend.Evaluator }

func (f faller) Fallthrough() backend.Evaluator { return f.next }

type modeler struct{ t *tap }

func (m modeler) Model() *thermal.Model { return m.t.inner.(backend.ModelProvider).Model() }

type exacter struct{ t *tap }

func (e exacter) EvaluateExact(omega, itec float64) (*thermal.Result, error) {
	start := time.Now()
	res, err := e.t.inner.(backend.ExactEvaluator).EvaluateExact(omega, itec)
	e.t.rec.add(span{Layer: "backend", Name: "exact", Backend: e.t.inner.Name()}, start, res)
	return res, err
}

type planter struct{ t *tap }

func (p planter) plant() backend.Plant { return p.t.inner.(backend.Plant) }

func (p planter) NewTransient(omega, itec float64, t0 []float64) (backend.Transient, error) {
	return p.plant().NewTransient(omega, itec, t0)
}

func (p planter) SetDynamicPower(dyn power.Map) error { return p.plant().SetDynamicPower(dyn) }

func (p planter) DynamicPowerTotal() float64 { return p.plant().DynamicPowerTotal() }

func (p planter) InstantaneousPowers(temps []float64, itec float64) (leak, tec float64, err error) {
	return p.plant().InstantaneousPowers(temps, itec)
}
