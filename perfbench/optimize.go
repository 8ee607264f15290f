package main

import (
	"fmt"
	"math"
	"sync"
	"time"
	"weak"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/experiments"
	"oftec/internal/solver"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// Forms of an optimize operation.
const (
	formPaper  = "paper"   // Algorithm 1, default options, full backend
	formROM    = "rom"     // adjoint gradients on the rom backend
	formZoned8 = "zoned8"  // adjoint gradients, SpreadZoning(8), full backend
	formSweep  = "surface" // the 40×40 (ω, I) sweep of surface-batch
)

// variant is one T_max/ambient setting a cell can run under.
type variant struct {
	TMaxC, AmbientC float64
}

// paperVariants change the model configuration; the first is the paper's
// (T_max 90 °C, ambient 45 °C).
var paperVariants = []variant{{90, 45}, {88, 45}, {90, 44}}

// adjointVariants change only core.Options.TMax, so one persisted ROM
// basis per benchmark serves every variant.
var adjointVariants = []variant{{90, 45}, {88, 45}, {89, 45}}

// optCell is one kind of optimize operation.
type optCell struct {
	Bench   string
	Form    string
	Mode    core.Mode
	Variant int
}

func (c optCell) variants() []variant {
	switch c.Form {
	case formPaper:
		return paperVariants
	case formSweep:
		return paperVariants[:1]
	default:
		return adjointVariants
	}
}

// key names the cell and its variant in the reference table.
func (c optCell) key() string {
	if c.Form == formSweep {
		return c.Form + "/" + c.Bench
	}
	v := c.variants()[c.Variant]
	return fmt.Sprintf("%s/%s/%s/tmax%g-amb%g", c.Form, c.Bench, modeKey(c.Mode), v.TMaxC, v.AmbientC)
}

func modeKey(m core.Mode) string {
	switch m {
	case core.ModeHybrid:
		return "oftec"
	case core.ModeVariableFan:
		return "var"
	case core.ModeFixedFan:
		return "fixed"
	default:
		return "teconly"
	}
}

var allModes = []core.Mode{core.ModeHybrid, core.ModeVariableFan, core.ModeFixedFan, core.ModeTECOnly}

// paperCells: 8 MiBench benchmarks × 4 modes, with OFTEC, the paper's
// method, counted twice. Fixed-ω and the infeasible Var-ω runs take a
// few milliseconds and the rest a hundred or more; with the four modes
// weighted equally the median would fall in the gap between the two
// groups and jump across it from run to run.
func paperCells() []optCell {
	var cells []optCell
	for _, b := range workload.All() {
		for _, m := range append([]core.Mode{core.ModeHybrid}, allModes...) {
			cells = append(cells, optCell{Bench: b.Name, Form: formPaper, Mode: m})
		}
	}
	return cells
}

// adjointCells: per benchmark two scalar ROM runs and one zoned k=8 run,
// so the slower ROM form holds the median and the zoned form the rest.
func adjointCells() []optCell {
	var cells []optCell
	for _, b := range workload.All() {
		cells = append(cells,
			optCell{Bench: b.Name, Form: formROM},
			optCell{Bench: b.Name, Form: formROM},
			optCell{Bench: b.Name, Form: formZoned8})
	}
	return cells
}

// optimizer runs optimize operations and checks them against refs (no
// check when refs is nil, which is how the references are made).
type optimizer struct {
	refs map[string]optRef
	// system builds the system an operation runs on; nil means
	// Setup.System, which builds a fresh one every time.
	system func(s experiments.Setup, bench string) (*core.System, error)
}

func paperConfig(v variant) experiments.Setup {
	s := experiments.DefaultSetup()
	s.Config.TMax = units.CToK(v.TMaxC)
	s.Config.Ambient = units.CToK(v.AmbientC)
	return s
}

// iterTimer timestamps solver iterations through solver.Options.Trace.
type iterTimer struct {
	mu    sync.Mutex
	last  time.Time
	lastI int
	meth  string
	gaps  []float64
}

func (t *iterTimer) record(r solver.TraceRecord) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.Method == t.meth && r.Iter > t.lastI {
		t.gaps = append(t.gaps, ms(now.Sub(t.last))/float64(r.Iter-t.lastI))
	}
	t.last, t.lastI, t.meth = now, r.Iter, r.Method
}

// run executes one operation: build a fresh system (a fresh model, so no
// memo below the evaluation cache survives from an earlier operation),
// optimize, and check the answer.
func (o *optimizer) run(c optCell, _ int, rec *recorder) opResult {
	v := c.variants()[c.Variant]
	setup := paperConfig(v)
	opts := core.Options{Mode: c.Mode}
	if c.Form != formPaper {
		setup = experiments.DefaultSetup()
		opts = core.Options{Gradient: true, TMax: units.CToK(v.TMaxC)}
	}
	if c.Form == formROM {
		setup.Backend = "rom"
	}
	var it *iterTimer
	if rec != nil {
		it = &iterTimer{}
		opts.Solver.Trace = it.record
	}
	out := opResult{rec: opRecord{Cell: c.key(), CGTotal: -1}, points: 1}

	build := o.system
	if build == nil {
		build = experiments.Setup.System
	}
	t0 := time.Now()
	base, err := build(setup, c.Bench)
	if err != nil {
		out.err = fmt.Errorf("%s: building system: %w", c.key(), err)
		return out
	}
	ev := backend.Evaluator(base.Backend())
	if m, ok := backend.ModelOf(ev); ok {
		out.model = weak.Make(m)
	}
	var runZoned func(sys *core.System) (*core.ZonedOutcome, error)
	if c.Form == formZoned8 {
		m, ok := backend.ModelOf(ev)
		if !ok {
			out.err = fmt.Errorf("%s: backend %q exposes no model to zone", c.key(), ev.Name())
			return out
		}
		z, err := m.SpreadZoning(8)
		if err != nil {
			out.err = fmt.Errorf("%s: zoning: %w", c.key(), err)
			return out
		}
		runZoned = func(sys *core.System) (*core.ZonedOutcome, error) { return sys.RunZoned(z, opts) }
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
	out.build = t1.Sub(t0)

	var chk optCheck
	if runZoned != nil {
		zo, err := runZoned(sys)
		if err != nil {
			out.err = fmt.Errorf("%s: %w", c.key(), err)
			return out
		}
		chk = optCheck{feasible: zo.Feasible, failedAtOpt2: zo.FailedAtOpt2, result: zo.Result}
		out.reports = []solver.Report{zo.Opt2Report, zo.Report}
		out.rec.Omega, out.rec.Currents = zo.Omega, zo.Currents
	} else {
		so, err := sys.Run(opts)
		if err != nil {
			out.err = fmt.Errorf("%s: %w", c.key(), err)
			return out
		}
		chk = optCheck{feasible: so.Feasible, failedAtOpt2: so.FailedAtOpt2, result: so.Result}
		out.reports = []solver.Report{so.Opt2Report, so.Opt1Report}
		out.rec.Omega, out.rec.Currents = so.Omega, []float64{so.ITEC}
	}
	end := time.Now()
	out.run = end.Sub(t1)
	out.wall = end.Sub(t0)
	out.lat = out.wall
	out.cache = cache.Stats()
	if it != nil {
		out.iterMS = it.gaps
	}

	for _, r := range out.reports {
		out.rec.SolverIters += r.Iterations
		out.rec.FuncEvals += r.FuncEvals
	}
	out.rec.Misses = out.cache.Misses
	if chk.result != nil {
		out.rec.PowerBits = math.Float64bits(chk.result.CoolingPower())
		out.rec.CGFinal = chk.result.SolveStats.Iterations
		out.result = weak.Make(chk.result)
	}
	out.chk = chk
	if o.refs != nil {
		out.err = o.check(c, v, chk)
	}
	return out
}

// runOptimizePaper is the optimize-paper workload.
func runOptimizePaper(rc runConfig) (*result, error) {
	refs, err := loadOptimizeRefs()
	if err != nil {
		return nil, err
	}
	o := &optimizer{refs: refs}
	stream := newOpStream(paperCells(), rc.seed)
	// Set-up builds every benchmark's model under every variant once;
	// operations build their own.
	setupS, err := medianSetup(setupRepeatsCheap, func() error {
		for _, b := range workload.All() {
			for _, v := range paperVariants {
				if _, err := paperConfig(v).System(b.Name); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One untimed operation so the first timed one does not pay for
	// first-touch page faults and pool growth.
	o.run(stream.at(0), 0, nil)
	return streamResult(rc, streamSpec{name: "optimize-paper", stream: stream, setupS: setupS,
		do: o.run}), nil
}

// runOptimizeAdjoint is the optimize-adjoint workload.
func runOptimizeAdjoint(rc runConfig) (*result, error) {
	refs, err := loadOptimizeRefs()
	if err != nil {
		return nil, err
	}
	o := &optimizer{refs: refs}
	stream := newOpStream(adjointCells(), rc.seed)
	var romDir string
	defer func() {
		if romDir != "" {
			removeAll(romDir)
		}
	}()
	// Set-up collects every benchmark's ROM basis cold into a fresh
	// cache directory, as an oftecd replica with -rom-cache-dir does on
	// first start; the last directory serves the run, whose operations
	// load the persisted bases.
	setupS, err := medianSetup(setupRepeatsSlow, func() error {
		if romDir != "" {
			removeAll(romDir)
		}
		dir, err := runDir("rom-")
		if err != nil {
			return err
		}
		romDir = dir
		backend.SetROMCacheDir(dir)
		s := experiments.DefaultSetup()
		s.Backend = "rom"
		for _, b := range workload.All() {
			if _, err := s.System(b.Name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.run(stream.at(0), 0, nil)
	return streamResult(rc, streamSpec{name: "optimize-adjoint", stream: stream, setupS: setupS,
		do: o.run}), nil
}
