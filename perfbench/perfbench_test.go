package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/experiments"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

func TestPercentileAndTailSupport(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	if got := percentile(xs, 50); math.Abs(got-500.5) > 1e-9 {
		t.Errorf("p50 of 1..1000 = %v, want 500.5", got)
	}
	if got := percentile(xs, 99); math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	// The tail rule: a percentile needs at least ten samples beyond it.
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 99, 10}, {999, 99, 9}, {100, 90, 10}, {99, 90, 9}, {27, 90, 2}, {40000, 99, 400},
	} {
		if got := tailSupport(c.n, c.p); got != c.beyond {
			t.Errorf("tailSupport(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

// TestOpenLoopDueTimeAccounting stalls the server on the first two
// requests: the requests that fall due during the stall must be charged
// from their due time, not from when a sender got to them, and the
// generator must not count that wait as its own lateness.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const stall = 100 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, _ := strconv.Atoi(r.Header.Get(requestHeader)); id < 2 {
			time.Sleep(stall)
		}
		fmt.Fprint(w, "{}")
	}))
	defer ts.Close()
	client, closeIdle := newClient(2)
	defer closeIdle()

	const rate = 200.0 // one request due every 5 ms
	reqs := make([]request, 40)
	for i := range reqs {
		reqs[i] = request{path: "/", body: []byte("{}")}
	}
	outs := offer(reqs, rate, ts.URL, client, 2)
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		due := dueOffset(i, rate)
		if due < stall-10*time.Millisecond && i >= 2 {
			// Queued behind the stall: its latency covers the wait.
			if want := stall - due - 5*time.Millisecond; o.latency < want {
				t.Errorf("request %d due at %v: latency %v, want at least %v (timed from its due time)", i, due, o.latency, want)
			}
			if o.latency-o.sendLat < stall/2-due {
				t.Errorf("request %d: latency %v barely exceeds its send time %v; the queueing wait is not charged", i, o.latency, o.sendLat)
			}
			if o.slept {
				t.Errorf("request %d was due during the stall but its sender slept for it", i)
			}
		}
	}
	last := outs[len(outs)-1]
	if !last.slept || last.latency > 50*time.Millisecond {
		t.Errorf("the backlog never drained: last request slept=%v latency=%v", last.slept, last.latency)
	}
}

// TestTapCapabilityParity wraps every registered backend, and everything
// reachable from it, and checks that capability probes resolve the same
// way wrapped and unwrapped.
func TestTapCapabilityParity(t *testing.T) {
	cfg := serveChipConfig()
	b, err := workload.ByName("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.PowerMap(cfg.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	for _, name := range backend.Names() {
		plant, err := backend.New(name, cfg, pm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, _ := backend.ModelOf(plant)
		z, err := m.SpreadZoning(4)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := rec.wrap(plant, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkParity(t, name, plant, wrapped)
		for _, sel := range []string{"full", "rom"} {
			u, uerr := plant.(backend.Selector).Select(sel)
			w, werr := wrapped.(backend.Selector).Select(sel)
			if (uerr == nil) != (werr == nil) {
				t.Fatalf("%s.Select(%s): errors differ: %v vs %v", name, sel, uerr, werr)
			}
			if uerr == nil {
				checkParity(t, name+"→"+sel, u, w)
				uz, _ := u.(backend.Zoner).WithZoning(z)
				wz, _ := w.(backend.Zoner).WithZoning(z)
				checkParity(t, name+"→"+sel+"/zoned", uz, wz)
			}
		}
		// Through the evaluation cache, as core probes them.
		c := evalcache.New(0)
		checkParity(t, name+" bound", c.Bind(plant), c.Bind(wrapped))
	}
	// A rom backend that answers gradients itself, as a ROM adjoint
	// would make it.
	plant, err := backend.New("rom", cfg, pm)
	if err != nil {
		t.Fatal(err)
	}
	stub := romGrad{plant.(*backend.ROM)}
	if capsOf(stub) != capsROMGrad {
		t.Fatalf("stub capability set %#x, want %#x", capsOf(stub), capsROMGrad)
	}
	wrapped, err := rec.wrap(stub, false)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, "rom+grad", stub, wrapped)
	if g, _ := backend.GradientOf(wrapped); unwrapTap(g) != any(stub) {
		t.Errorf("rom+grad: GradientOf resolves to %T through the tap, want the stub itself", g)
	}
	c := evalcache.New(0)
	checkParity(t, "rom+grad bound", c.Bind(stub), c.Bind(wrapped))
}

// romGrad is a rom binding with its own gradients.
type romGrad struct{ *backend.ROM }

func (r romGrad) EvaluateGrad(ctx context.Context, op backend.OpPoint) (*thermal.Gradient, error) {
	g, ok := backend.GradientOf(r.Fallthrough())
	if !ok {
		return nil, fmt.Errorf("no gradient below the rom backend")
	}
	return g.EvaluateGrad(ctx, op)
}

func checkParity(t *testing.T, label string, plain, wrapped backend.Evaluator) {
	t.Helper()
	if capsOf(plain) != capsOf(wrapped) {
		t.Errorf("%s: capability set %#x wrapped, %#x unwrapped", label, capsOf(wrapped), capsOf(plain))
	}
	ug, uok := backend.GradientOf(plain)
	wg, wok := backend.GradientOf(wrapped)
	if uok != wok || (uok && !sameEvaluator(unwrapTap(wg), ug)) {
		t.Errorf("%s: GradientOf resolves differently wrapped (%T, %v) and unwrapped (%T, %v)", label, wg, wok, ug, uok)
	}
	um, uok := backend.ModelOf(plain)
	wm, wok := backend.ModelOf(wrapped)
	if uok != wok || um != wm {
		t.Errorf("%s: ModelOf resolves differently wrapped and unwrapped", label)
	}
	if ua, wa := backend.Authoritative(plain), backend.Authoritative(wrapped); !sameEvaluator(unwrapTap(wa), ua) {
		t.Errorf("%s: Authoritative resolves to %T wrapped, %T unwrapped", label, wa, ua)
	}
}

// sameEvaluator reports whether two resolutions name the same evaluator:
// the same object, or two views of one model that the backend builds per
// call (WithZoning returns a fresh zoned view each time, and a binding over
// a tap is a different binding by construction).
func sameEvaluator(a, b any) bool {
	if a == b {
		return true
	}
	ea, ok1 := a.(backend.Evaluator)
	eb, ok2 := b.(backend.Evaluator)
	if !ok1 || !ok2 || fmt.Sprintf("%T", ea) != fmt.Sprintf("%T", eb) || ea.Name() != eb.Name() {
		return false
	}
	ma, _ := backend.ModelOf(ea)
	mb, _ := backend.ModelOf(eb)
	return ma == mb
}

// TestTracedRunMatchesUntraced runs one cell of each optimize form with
// and without the tap: the answers and counts must be identical, which
// shows the tap kept every capability the run probes for.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-resolution optimizations")
	}
	dir := t.TempDir()
	backend.SetROMCacheDir(dir)
	defer backend.SetROMCacheDir("")
	o := &optimizer{}
	for _, c := range []optCell{
		{Bench: "Dijkstra", Form: formPaper, Mode: core.ModeHybrid},
		{Bench: "Dijkstra", Form: formROM},
		{Bench: "Dijkstra", Form: formZoned8},
	} {
		plain := o.run(c, 0, nil)
		rec := newRecorder()
		traced := o.run(c, 0, rec)
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: %v / %v", c.key(), plain.err, traced.err)
		}
		if !plain.rec.sameOutcome(traced.rec) {
			t.Errorf("%s: traced %+v, untraced %+v", c.key(), traced.rec, plain.rec)
		}
		spans, _ := rec.snapshot()
		if len(spans) == 0 {
			t.Errorf("%s: the traced run recorded no backend call", c.key())
		}
		if cg, _ := opCG(spans, 0); cg == 0 {
			t.Errorf("%s: the traced run saw no CG iteration", c.key())
		}
		if c.Form == formROM {
			borrowed := 0
			for _, s := range spans {
				if s.Name == "grad" && s.Borrowed {
					borrowed++
				}
			}
			if borrowed == 0 {
				t.Errorf("%s: no gradient was borrowed from the full model", c.key())
			}
		}
	}
}

// reportRows is REPORT.md's Figure 6(e)/(f) table (T_max 90 °C, ambient
// 45 °C): feasibility and 𝒫 to two decimals.
var reportRows = []struct {
	bench, mode string
	feasible    bool
	powerW      float64
}{
	{"Basicmath", "oftec", true, 12.47}, {"Basicmath", "var", true, 13.34}, {"Basicmath", "fixed", true, 13.99},
	{"BitCount", "oftec", true, 20.55}, {"BitCount", "var", false, 38.17}, {"BitCount", "fixed", false, 17.66},
	{"CRC32", "oftec", true, 11.13}, {"CRC32", "var", true, 11.93}, {"CRC32", "fixed", true, 12.67},
	{"Dijkstra", "oftec", true, 16.87}, {"Dijkstra", "var", false, 38.70}, {"Dijkstra", "fixed", false, 18.25},
	{"FFT", "oftec", true, 16.11}, {"FFT", "var", false, 37.69}, {"FFT", "fixed", false, 17.14},
	{"Quicksort", "oftec", true, 24.12}, {"Quicksort", "var", false, 38.61}, {"Quicksort", "fixed", false, 18.15},
	{"Stringsearch", "oftec", true, 11.80}, {"Stringsearch", "var", true, 12.63}, {"Stringsearch", "fixed", true, 13.32},
	{"Susan", "oftec", true, 16.92}, {"Susan", "var", false, 38.77}, {"Susan", "fixed", false, 18.33},
}

// TestPaperReferencesMatchReport pins the stored paper-variant answers to
// REPORT.md, so the references are not merely the program's own output.
func TestPaperReferencesMatchReport(t *testing.T) {
	refs, err := loadOptimizeRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reportRows {
		key := fmt.Sprintf("paper/%s/%s/tmax90-amb45", r.bench, r.mode)
		ref, ok := refs[key]
		if !ok {
			t.Fatalf("no reference for %s", key)
		}
		if ref.Feasible != r.feasible || ref.PowerW == nil || math.Abs(*ref.PowerW-r.powerW) > 0.0051 {
			t.Errorf("%s: reference feasible=%v 𝒫=%v, REPORT.md %v %.2f W", key, ref.Feasible, ref.PowerW, r.feasible, r.powerW)
		}
	}
	// REPORT.md: thermal runaway on 8/8 benchmarks in the TEC-only system.
	for _, b := range workload.All() {
		ref := refs[fmt.Sprintf("paper/%s/teconly/tmax90-amb45", b.Name)]
		if ref.Feasible || ref.PowerW != nil {
			t.Errorf("%s TEC-only: reference %+v, want thermal runaway", b.Name, ref)
		}
	}
}

// TestChecksRejectWrongReferences feeds every output check a deliberately
// wrong reference.
func TestChecksRejectWrongReferences(t *testing.T) {
	p := 12.47
	res := &thermal.Result{MaxChipTemp: units.CToK(63.94), PLeakage: 10, PTEC: 1.47, PFan: 1}
	c := optCell{Bench: "Basicmath", Form: formPaper, Mode: core.ModeHybrid}
	v := paperVariants[0]
	chk := optCheck{feasible: true, result: res}
	for name, ref := range map[string]optRef{
		"right":           {Feasible: true, PowerW: &p},
		"power off":       {Feasible: true, PowerW: ptr(p + 0.02)},
		"verdict flipped": {Feasible: false, PowerW: &p},
		"runaway":         {Feasible: true},
	} {
		o := &optimizer{refs: map[string]optRef{c.key(): ref}}
		err := o.check(c, v, chk)
		if (err == nil) != (name == "right") {
			t.Errorf("%s reference: check returned %v", name, err)
		}
	}
	hot := chk
	hot.result = &thermal.Result{MaxChipTemp: units.CToK(90.5), PLeakage: 10, PTEC: 1.47, PFan: 1}
	if err := (&optimizer{refs: map[string]optRef{c.key(): {Feasible: true, PowerW: &p}}}).check(c, v, hot); err == nil {
		t.Error("a feasible verdict above T_max passed the check")
	}

	pt := experiments.SurfacePoint{MaxTemp: 350, Power: 20}
	for name, ref := range map[string]surfRef{
		"right":       {MaxTemp: 350, Power: 20},
		"temperature": {MaxTemp: 350 * (1 + 2e-6), Power: 20},
		"power":       {MaxTemp: 350, Power: 20 * (1 - 2e-6)},
		"runaway":     {Runaway: true},
	} {
		if err := checkSurfacePoint("Basicmath", pt, ref); (err == nil) != (name == "right") {
			t.Errorf("%s surface reference: check returned %v", name, err)
		}
	}
}

func ptr(v float64) *float64 { return &v }

// TestSpotCheckRejectsWrongAnswer checks a served answer against a
// direct evaluation, then tampers with it.
func TestSpotCheckRejectsWrongAnswer(t *testing.T) {
	sys, err := experiments.Setup{Config: serveChipConfig()}.System("Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Evaluate(units.RPMToRadPerSec(2500), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]*core.System{"Basicmath": sys}
	for name, temp := range map[string]float64{"right": units.KToC(res.MaxChipTemp), "wrong": units.KToC(res.MaxChipTemp) + 0.01} {
		body := fmt.Sprintf(`{"omega_rpm":2500,"itec_a":1.5,"runaway":false,"max_temp_c":%v,"cooling_power_w":%v}`, temp, res.CoolingPower())
		ph := servePhase{
			reqs: []request{{path: "/v1/evaluate", chip: "Basicmath", omegaRPM: 2500, itec: 1.5, spotChecked: true}},
			outs: []outcome{{body: []byte(body)}},
		}
		checked, errs := spotCheck(ph, direct)
		if checked != 1 || (len(errs) == 0) != (name == "right") {
			t.Errorf("%s answer: checked %d, errors %v", name, checked, errs)
		}
	}
}

func TestMemoGuardCounts(t *testing.T) {
	op := func(misses int64) opResult { return opResult{rec: opRecord{Cell: "x", Misses: misses}} }
	if newMemoGuard().check(op(0), 10, 0) == nil || newMemoGuard().check(op(5), 0, 0) == nil {
		t.Error("an operation with no miss or no CG iteration passed the memo guard")
	}
	if newMemoGuard().check(op(5), 10, 1) == nil {
		t.Error("an operation handed an earlier operation's result passed the memo guard")
	}
	if err := newMemoGuard().check(op(5), 10, 0); err != nil {
		t.Error(err)
	}
	if err := newMemoGuard().check(op(5), -1, 0); err != nil {
		t.Errorf("an unobserved CG count failed the guard: %v", err)
	}
}

// TestMemoGuardCatchesReusedSystem runs two operations on one reused
// system, untraced and traced: the second is answered by the model's
// result memo, and the guard must fail it, while fresh systems pass.
func TestMemoGuardCatchesReusedSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full-resolution optimizations")
	}
	c := optCell{Bench: "CRC32", Form: formPaper, Mode: core.ModeFixedFan}
	var shared *core.System
	reuse := func(s experiments.Setup, bench string) (*core.System, error) {
		if shared == nil {
			var err error
			shared, err = s.System(bench)
			return shared, err
		}
		return shared, nil
	}
	for _, tc := range []struct {
		name   string
		system func(experiments.Setup, string) (*core.System, error)
		traced bool
		caught bool
	}{
		{"fresh", nil, false, false},
		{"fresh traced", nil, true, false},
		{"reused", reuse, false, true},
		{"reused traced", reuse, true, true},
	} {
		shared = nil
		o := &optimizer{system: tc.system}
		var rec *recorder
		if tc.traced {
			rec = newRecorder()
		}
		g := newMemoGuard()
		var errs []error
		for i := 0; i < 2; i++ {
			cg := -1
			if rec != nil {
				rec.beginOp(i)
			}
			op := o.run(c, i, rec)
			if op.err != nil {
				t.Fatalf("%s: op %d: %v", tc.name, i, op.err)
			}
			stale := 0
			if rec != nil {
				spans, _ := rec.snapshot()
				cg, stale = opCG(spans, i)
			}
			errs = append(errs, g.check(op, cg, stale))
		}
		if errs[0] != nil {
			t.Errorf("%s: the first operation failed the guard: %v", tc.name, errs[0])
		}
		if (errs[1] != nil) != tc.caught {
			t.Errorf("%s: second operation: guard returned %v, want a failure: %v", tc.name, errs[1], tc.caught)
		}
	}
	// The traced count alone, without the identities: a reused model
	// hands the second operation the first one's results.
	shared = nil
	rec := newRecorder()
	o := &optimizer{system: reuse}
	for i := 0; i < 2; i++ {
		rec.beginOp(i)
		if op := o.run(c, i, rec); op.err != nil {
			t.Fatal(op.err)
		}
	}
	spans, _ := rec.snapshot()
	if _, stale := opCG(spans, 1); stale == 0 {
		t.Error("the recorder saw no stale result in an operation on a reused model")
	}
}

// TestSeedsGiveDifferentStreams: a seed fixes the operation stream, and a
// different seed changes it.
func TestSeedsGiveDifferentStreams(t *testing.T) {
	stream := func(cells []optCell, seed uint64) string {
		s := newOpStream(cells, seed)
		out := ""
		for i := 0; i < 2*len(cells); i++ {
			out += s.at(i).key() + ";"
		}
		return out
	}
	for _, cells := range [][]optCell{paperCells(), adjointCells(), sweepCells()} {
		if stream(cells, 7) != stream(cells, 7) {
			t.Error("one seed gave two streams")
		}
		if stream(cells, 7) == stream(cells, 8) {
			t.Error("seeds 7 and 8 gave the same stream")
		}
	}
	_, a := serveStream(7, 500)
	_, b := serveStream(8, 500)
	same := true
	for i := range a {
		if string(a[i].body) != string(b[i].body) {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
}

func TestDeterminismRecordMerge(t *testing.T) {
	a := []opRecord{{Cell: "x", Misses: 3, CGTotal: -1}, {Cell: "y", Misses: 4, CGTotal: -1}}
	b := []opRecord{{Cell: "x", Misses: 3, CGTotal: 120}}
	got, err := mergeRecords(a, b)
	if err != nil || len(got) != 2 || got[0].CGTotal != 120 {
		t.Fatalf("merge = %+v, %v", got, err)
	}
	if _, err := mergeRecords(got, []opRecord{{Cell: "x", Misses: 3, CGTotal: 121}}); err == nil {
		t.Error("a different CG total for the same seed was accepted")
	}
	if _, err := mergeRecords(got, []opRecord{{Cell: "x", Misses: 2, CGTotal: -1}}); err == nil {
		t.Error("a different miss count for the same seed was accepted")
	}
}

// TestServeWarmUp drives a real server through warm-up and a short
// timed window with spot checks.
func TestServeWarmUp(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	warm, timed := serveStream(3, 400)
	w, err := startWarm(warm[:200], true)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := w.timedRun(timed)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ph.outs {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		if o.handlerMS <= 0 {
			t.Fatalf("request %d: no handler time recorded", i)
		}
	}
	direct := map[string]*core.System{}
	for _, chip := range serveChips {
		if direct[chip], err = (experiments.Setup{Config: serveChipConfig()}).System(chip); err != nil {
			t.Fatal(err)
		}
	}
	checked, errs := spotCheck(ph, direct)
	if checked == 0 || len(errs) > 0 {
		t.Errorf("spot checks: %d checked, errors %v", checked, errs)
	}
}
