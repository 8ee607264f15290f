package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oftec/internal/core"
	"oftec/internal/evalcache"
	"oftec/internal/experiments"
	"oftec/internal/serve"
	"oftec/internal/thermal"
	"oftec/internal/units"
	"oftec/internal/workload"
)

// The serve-open load: an open loop at a fixed offered rate with a fixed
// p99 latency limit, calibrated once (calibrateServe) on the commit that
// introduced the benchmark, on 2 CPUs: the rate is 25–30 % of the
// closed-loop capacity of nproc clients, low enough that a host-side
// slowdown does not push the queue towards saturation (README.md).
// Goodput counts the requests that finished within the limit.
const (
	serveRate      = 1000.0                // offered requests per second
	serveLimit     = 25 * time.Millisecond // p99 latency limit
	serveTimeout   = 5 * time.Second       // a request still running after this has failed
	serveDrain     = 10 * time.Second      // how long past the window due requests may still be sent
	serveHotPoints = 48                    // hot operating points per chip
	serveHotShare  = 0.25                  // share of evaluates that hit the hot set
	serveFreshOpt  = 40                    // every 40th optimize is at a freshly drawn ambient
	serveMaxFresh  = 40                    // fresh ambients per stream, inside the pool's 64 models
	spotChecks     = 200                   // scalar evaluates checked against a direct evaluation
	warmRequests   = 3000                  // untimed requests that warm the pool and the cache
	requestHeader  = "X-Perfbench-Request" // carries the request index to the handler wrapper
)

// serveChips are the chips requests address (the service's default
// reduced resolution).
var serveChips = []string{"Basicmath", "Dijkstra", "FFT", "Quicksort"}

// serveChipConfig mirrors the service's default chip configuration
// (serve.ChipSpec without paper_res), for the direct spot checks.
func serveChipConfig() thermal.Config {
	cfg := thermal.DefaultConfig()
	cfg.ChipRes, cfg.SpreaderRes, cfg.SinkRes, cfg.PCBRes = 8, 7, 6, 4
	return cfg
}

// request is one generated request.
type request struct {
	kind string // a serveMix kind
	path string
	body []byte
	// For spot-checked scalar evaluates: the chip and point, so the
	// answer can be compared with a direct evaluation.
	chip        string
	omegaRPM    float64
	itec        float64
	spotChecked bool
}

// loadGen generates the seeded request stream.
type loadGen struct {
	rng    *rand.Rand
	hot    map[string][][2]float64 // chip → hot (ω RPM, I) points
	hotCur map[string][][]float64  // chip → the zone currents of each hot point
	fresh  []float64               // ambients (°C) drawn for optimizes so far
	nOpt   int                     // optimizes drawn so far
	// spot-check sampling: every scalar evaluate is checked with
	// probability spotP until spotChecks have been chosen.
	spotP    float64
	spotLeft int
}

func newLoadGen(seed uint64) *loadGen {
	g := &loadGen{rng: rand.New(rand.NewPCG(seed, 0x73657276)), hot: map[string][][2]float64{}, hotCur: map[string][][]float64{}}
	for _, chip := range serveChips {
		for k := 0; k < serveHotPoints; k++ {
			p := g.point()
			g.hot[chip] = append(g.hot[chip], p)
			g.hotCur[chip] = append(g.hotCur[chip], g.currents(p[1]))
		}
	}
	return g
}

// serveStream generates the warm-up requests and then n timed requests
// from one seeded generator, so both share the hot set; spot checks are
// sampled from the timed requests only. The warm-up opens with every
// request that is solved once and answered from the cache after, so the
// work a warm-up does, and so setup_s, does not depend on which of them
// the seed happens to draw early.
func serveStream(seed uint64, n int) (warm, timed []request) {
	g := newLoadGen(seed)
	warm = g.coverage()
	for len(warm) < warmRequests {
		warm = append(warm, g.next())
	}
	g.spotLeft = spotChecks
	g.spotP = math.Min(1, 2*float64(spotChecks)/math.Max(1, float64(n)))
	timed = make([]request, n)
	for i := range timed {
		timed[i] = g.next()
	}
	return warm, timed
}

// point draws a fresh continuous operating point (fan RPM, TEC amps).
func (g *loadGen) point() [2]float64 {
	return [2]float64{500 + 4500*g.rng.Float64(), 4 * g.rng.Float64()}
}

// currents draws nine zone currents around i.
func (g *loadGen) currents(i float64) []float64 {
	cur := make([]float64, 9)
	for k := range cur {
		cur[k] = i * (0.5 + g.rng.Float64())
	}
	return cur
}

// evalPoint draws an evaluate's point: a hot one (its index returned)
// or a fresh one (index -1).
func (g *loadGen) evalPoint(chip string) ([2]float64, int) {
	if g.rng.Float64() < serveHotShare {
		k := g.rng.IntN(serveHotPoints)
		return g.hot[chip][k], k
	}
	return g.point(), -1
}

// ambient is an optimize's ambient: the default (0), or for every
// serveFreshOpt-th optimize a fresh draw, as a controller re-solving
// after the room's temperature moved would send. A new ambient is a new
// chip configuration: the pool builds a model for it and the optimize
// solves from scratch. A fixed count rather than a random share keeps
// the number of resident models, and so the heap, the same from seed to
// seed. Past serveMaxFresh draws, earlier ambients repeat.
func (g *loadGen) ambient() float64 {
	g.nOpt++
	if g.nOpt%serveFreshOpt != 0 {
		return 0
	}
	if len(g.fresh) >= serveMaxFresh {
		return g.fresh[g.rng.IntN(len(g.fresh))]
	}
	a := 40 + 5*g.rng.Float64()
	g.fresh = append(g.fresh, a)
	return a
}

// serveMix is the request mix in percent: oftecload's default
// (-mix evaluate:86,zoned:6,optimize:4,sweep:2,pareto:2).
var serveMix = []struct {
	kind string
	pct  float64
}{{"evaluate", 86}, {"zoned", 6}, {"optimize", 4}, {"sweep", 2}, {"pareto", 2}}

// Optimize requests vary the chip, the mode and the method.
var (
	serveModes   = []string{"oftec", "var", "fixed", "teconly"}
	serveMethods = []string{"sqp", "interior", "trust"}
)

// next draws the next request. Evaluates mix hot and fresh points;
// optimizes vary chip, mode and method, and now and then the ambient;
// sweeps (4×4) and Pareto probes (T_max 90 and 80 °C) are oftecload's.
func (g *loadGen) next() request {
	chip := serveChips[g.rng.IntN(len(serveChips))]
	kind, u := serveMix[len(serveMix)-1].kind, 100*g.rng.Float64()
	for _, m := range serveMix {
		if u < m.pct {
			kind = m.kind
			break
		}
		u -= m.pct
	}
	switch kind {
	case "evaluate":
		p, _ := g.evalPoint(chip)
		r := evaluateReq(chip, p)
		if g.spotLeft > 0 && g.rng.Float64() < g.spotP {
			r.spotChecked = true
			g.spotLeft--
		}
		return r
	case "zoned":
		p, k := g.evalPoint(chip)
		cur := g.currents(p[1])
		if k >= 0 {
			cur = g.hotCur[chip][k]
		}
		return zonedReq(chip, p, cur)
	case "optimize":
		amb := g.ambient()
		return optimizeReq(chip, serveModes[g.rng.IntN(len(serveModes))], serveMethods[g.rng.IntN(len(serveMethods))], amb)
	case "sweep":
		return sweepReq(chip)
	default:
		return paretoReq(chip)
	}
}

// coverage is one request of every kind the cache answers after its
// first solve: per chip, a zoned evaluate (the pool builds the zoning),
// each optimize mode and method at the default ambient, a sweep and a
// Pareto probe.
func (g *loadGen) coverage() []request {
	var reqs []request
	for _, chip := range serveChips {
		reqs = append(reqs, zonedReq(chip, g.hot[chip][0], g.hotCur[chip][0]), sweepReq(chip), paretoReq(chip))
		for _, mode := range serveModes {
			for _, method := range serveMethods {
				reqs = append(reqs, optimizeReq(chip, mode, method, 0))
			}
		}
	}
	return reqs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always encode
	}
	return b
}

func evaluateReq(chip string, p [2]float64) request {
	return request{kind: "evaluate", path: "/v1/evaluate", chip: chip, omegaRPM: p[0], itec: p[1],
		body: mustJSON(serve.EvaluateRequest{Chip: serve.ChipSpec{Bench: chip}, OmegaRPM: p[0], ITecA: p[1]})}
}

func zonedReq(chip string, p [2]float64, cur []float64) request {
	return request{kind: "zoned", path: "/v1/evaluate", body: mustJSON(serve.EvaluateRequest{Chip: serve.ChipSpec{Bench: chip},
		OmegaRPM: p[0], CurrentsA: cur, Zoning: &serve.ZoneSpec{Zones: 9}})}
}

func optimizeReq(chip, mode, method string, ambientC float64) request {
	return request{kind: "optimize", path: "/v1/optimize", body: mustJSON(serve.OptimizeRequest{
		Chip: serve.ChipSpec{Bench: chip, AmbientC: ambientC}, Mode: mode, Method: method})}
}

func sweepReq(chip string) request {
	return request{kind: "sweep", path: "/v1/sweep", body: mustJSON(serve.SweepRequest{Chip: serve.ChipSpec{Bench: chip}, NOmega: 4, NI: 4})}
}

func paretoReq(chip string) request {
	return request{kind: "pareto", path: "/v1/pareto", body: mustJSON(serve.ParetoRequest{Chip: serve.ChipSpec{Bench: chip}, TMaxC: []float64{90, 80}})}
}

// outcome is one request as the load generator saw it.
type outcome struct {
	latency   time.Duration // from the due time to the end of the response
	sendLat   time.Duration // from sending to the end of the response
	late      time.Duration // how late an idle sender woke for it
	slept     bool
	status    int
	err       error
	bodyHash  uint64
	body      []byte // kept for spot-checked requests
	handlerMS float64
}

// server is one in-process oftecd behind a loopback listener.
type server struct {
	srv      *serve.Server
	hs       *http.Server
	url      string
	wg       sync.WaitGroup
	serveErr error
	handler  *handlerTimes
}

// handlerTimes records the handler's own time per request index.
type handlerTimes struct {
	mu sync.Mutex
	ms map[int]float64
}

func startServer(traced bool) (*server, error) {
	srv := serve.New(serve.Options{})
	h := srv.Handler()
	s := &server{srv: srv}
	if traced {
		s.handler = &handlerTimes{ms: map[int]float64{}}
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			d := ms(time.Since(start))
			if id, err := strconv.Atoi(r.Header.Get(requestHeader)); err == nil {
				s.handler.mu.Lock()
				s.handler.ms[id] = d
				s.handler.mu.Unlock()
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveErr = s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the server down and waits for its serving goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.wg.Wait()
	if err == nil && !errors.Is(s.serveErr, http.ErrServerClosed) {
		err = s.serveErr
	}
	return err
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) (*http.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &http.Client{Transport: tr, Timeout: serveTimeout}, tr.CloseIdleConnections
}

// send issues one request and reads the whole response.
func send(client *http.Client, url string, id int, r request, keep bool) outcome {
	var o outcome
	req, err := http.NewRequest(http.MethodPost, url+r.path, bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(requestHeader, strconv.Itoa(id))
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	o.status, o.err = resp.StatusCode, err
	if o.err == nil && o.status != http.StatusOK {
		o.err = fmt.Errorf("%s: HTTP %d: %s", r.path, o.status, bytes.TrimSpace(body))
	}
	h := fnv.New64a()
	//lint:ignore errdrop hash.Hash's Write is documented to never fail
	h.Write(body)
	o.bodyHash = h.Sum64()
	if keep {
		o.body = body
	}
	return o
}

// warmServer replays the warm-up requests as a closed loop, so the timed
// window starts on a warm model pool (every chip, scalar and zoned) and a
// filled evaluation cache rather than on a burst of first-seen optimizes.
func warmServer(client *http.Client, s *server, warm []request) error {
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(warm) && errs[w] == nil; i = int(next.Add(1) - 1) {
				errs[w] = send(client, s.url, -1, warm[i], false).err
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// servePhase is one timed open-loop window against one server.
type servePhase struct {
	reqs    []request
	outs    []outcome
	use     usageDelta
	heapMB  float64
	cache   evalcache.Stats
	refused int64
}

// runServePhase offers the requests at the given rate to a warm server
// and collects the server-side counters of the window.
func runServePhase(reqs []request, rate float64, s *server, client *http.Client) servePhase {
	ph := servePhase{reqs: reqs}
	c0 := s.srv.Cache().Stats()
	hw := watchHeap()
	u0 := readUsage()
	ph.outs = offer(reqs, rate, s.url, client, runtime.NumCPU())
	ph.use = u0.to(readUsage())
	ph.heapMB = hw.stop()
	c1 := s.srv.Cache().Stats()
	ph.cache = evalcache.Stats{Hits: c1.Hits - c0.Hits, Waits: c1.Waits - c0.Waits, Misses: c1.Misses - c0.Misses,
		Rotations: c1.Rotations - c0.Rotations, Collisions: c1.Collisions - c0.Collisions,
		Batches: c1.Batches - c0.Batches, BatchPoints: c1.BatchPoints - c0.BatchPoints}
	for i, o := range ph.outs {
		if o.status == http.StatusTooManyRequests {
			ph.refused++
		}
		if s.handler != nil {
			s.handler.mu.Lock()
			ph.outs[i].handlerMS = s.handler.ms[i]
			s.handler.mu.Unlock()
		}
	}
	return ph
}

// offer is the open-loop generator: request i is due at i/rate seconds
// after the start and is sent by the first of the senders to get to it,
// each sender holding one connection. Latency is timed from the due
// time, so a stalled server also charges the requests queued behind the
// stall; late records how late an idle sender woke for a request, which
// is the generator's own health. An infinite rate makes every request
// due at once: a closed loop of senders clients.
func offer(reqs []request, rate float64, url string, client *http.Client, senders int) []outcome {
	outs := make([]outcome, len(reqs))
	start := time.Now()
	cutoff := start.Add(dueOffset(len(reqs), rate) + serveDrain)
	if math.IsInf(rate, 1) {
		cutoff = start.Add(time.Hour)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				due := start.Add(dueOffset(i, rate))
				slept, late := false, time.Duration(0)
				if now := time.Now(); now.Before(due) {
					time.Sleep(due.Sub(now))
					slept, late = true, time.Since(due)
				} else if now.After(cutoff) {
					outs[i] = outcome{err: fmt.Errorf("request %d not sent within %v of its due time", i, serveDrain), latency: serveTimeout}
					continue
				}
				sent := time.Now()
				o := send(client, url, i, reqs[i], reqs[i].spotChecked)
				end := time.Now()
				o.latency, o.sendLat, o.slept, o.late = end.Sub(due), end.Sub(sent), slept, late
				if o.err != nil && o.latency < serveTimeout {
					o.latency = serveTimeout
				}
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// dueOffset is when request i of a constant-rate open loop is due.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// spotCheck compares the sampled scalar evaluate answers with a direct
// core.System evaluation of the same chip and point.
func spotCheck(ph servePhase, direct map[string]*core.System) (checked int, errs []error) {
	for i, r := range ph.reqs {
		o := ph.outs[i]
		if !r.spotChecked || o.err != nil {
			continue
		}
		checked++
		var got serve.EvaluateResponse
		if err := json.Unmarshal(o.body, &got); err != nil {
			errs = append(errs, fmt.Errorf("request %d: decoding evaluate response: %w", i, err))
			continue
		}
		res, err := direct[r.chip].Evaluate(units.RPMToRadPerSec(r.omegaRPM), r.itec)
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: direct evaluation: %w", i, err))
			continue
		}
		switch {
		case got.Runaway != res.Runaway:
			errs = append(errs, fmt.Errorf("request %d (%s ω=%.1f RPM I=%.3f A): runaway=%v, direct %v", i, r.chip, r.omegaRPM, r.itec, got.Runaway, res.Runaway))
		case !res.Runaway && (!relClose(got.MaxTempC, units.KToC(res.MaxChipTemp), surfRelTol) || !relClose(got.CoolingPowerW, res.CoolingPower(), surfRelTol)):
			errs = append(errs, fmt.Errorf("request %d (%s ω=%.1f RPM I=%.3f A): %.6f °C %.6f W, direct %.6f °C %.6f W", i, r.chip, r.omegaRPM, r.itec,
				got.MaxTempC, got.CoolingPowerW, units.KToC(res.MaxChipTemp), res.CoolingPower()))
		}
	}
	return checked, errs
}

// warmRun is a started and warmed server with its client.
type warmRun struct {
	s         *server
	client    *http.Client
	closeIdle func()
}

// startWarm starts a server and warms it with the warm-up requests.
func startWarm(warm []request, traced bool) (*warmRun, error) {
	s, err := startServer(traced)
	if err != nil {
		return nil, err
	}
	client, closeIdle := newClient(runtime.NumCPU())
	w := &warmRun{s: s, client: client, closeIdle: closeIdle}
	if err := warmServer(client, s, warm); err != nil {
		if serr := w.stop(); serr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", serr)
		}
		return nil, err
	}
	return w, nil
}

// stop closes the client's connections and stops the server.
func (w *warmRun) stop() error {
	w.closeIdle()
	if err := w.s.stop(); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	return nil
}

// timedRun runs the timed requests against a warm server and stops it.
func (w *warmRun) timedRun(reqs []request) (servePhase, error) {
	ph := runServePhase(reqs, serveRate, w.s, w.client)
	return ph, w.stop()
}

// runServeOpen is the serve-open workload.
func runServeOpen(rc runConfig) (*result, error) {
	untracedS := rc.seconds
	if rc.trace {
		untracedS = rc.seconds / 2
	}
	warm, timed := serveStream(rc.seed, int(untracedS*serveRate))
	// Set-up starts a server and warms its pool and cache, repeatedly;
	// the last one serves the untraced window.
	var w *warmRun
	setupS, err := medianSetup(setupRepeatsSlow, func() error {
		if w != nil {
			if err := w.stop(); err != nil {
				return err
			}
		}
		var err error
		w, err = startWarm(warm, false)
		return err
	})
	if err != nil {
		if w != nil {
			if serr := w.stop(); serr != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", serr)
			}
		}
		return nil, err
	}
	plain, err := w.timedRun(timed)
	if err != nil {
		return nil, err
	}
	direct := map[string]*core.System{}
	for _, chip := range serveChips {
		sys, err := experiments.Setup{Config: serveChipConfig(), Benchmarks: workload.All()}.System(chip)
		if err != nil {
			return nil, err
		}
		direct[chip] = sys
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	account := func(ph servePhase) {
		for _, o := range ph.outs {
			res.Attempted++
			if o.err != nil {
				res.Failed++
				if res.Failed <= 5 {
					fmt.Fprintln(os.Stderr, "perfbench: FAIL", o.err)
				}
			}
		}
		checked, errs := spotCheck(ph, direct)
		res.Failed += len(errs)
		for k, err := range errs {
			if k < 5 {
				fmt.Fprintln(os.Stderr, "perfbench: FAIL", err)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: serve-open spot-checked %d evaluate answers against direct evaluation\n", checked)
	}
	account(plain)

	if !rc.trace {
		lat := latencies(plain)
		good := 0
		for _, o := range plain.outs {
			if o.err == nil && o.latency <= serveLimit {
				good++
			}
		}
		n := float64(len(plain.outs))
		res.Metrics["setup_s"] = metric{setupS, "s"}
		// Per second of the measured run, from the first due time to the
		// last response.
		res.Metrics["ops_per_s"] = metric{float64(good) / plain.use.wall.Seconds(), "1/s"}
		res.Metrics["op_ms_p50"] = metric{median(lat), "ms"}
		res.Metrics["op_ms_tail"] = metric{tailReport("serve-open latency", lat, tailPercentile), "ms"}
		tailReport("serve-open latency", lat, 99) // the limit's percentile, for the record
		res.Metrics["cpu_ms_per_op"] = metric{ms(plain.use.cpu) / n, "ms"}
		res.Metrics["heap_peak_mb"] = metric{plain.heapMB, "MB"}
		fmt.Fprintf(os.Stderr, "perfbench: serve-open offered %.0f req/s, p99 limit %v: %d of %d within the limit, evalcache hit ratio %.3f, %d rotations\n",
			serveRate, serveLimit, good, len(plain.outs), ratio(float64(plain.cache.Hits+plain.cache.Waits), float64(plain.cache.Hits+plain.cache.Waits+plain.cache.Misses)), plain.cache.Rotations)
	} else {
		tw, err := startWarm(warm, true)
		if err != nil {
			return nil, err
		}
		traced, err := tw.timedRun(timed)
		if err != nil {
			return nil, err
		}
		account(traced)
		// Equivalence: the same request stream must get the same
		// evaluate answers with the handler wrapped.
		for i := range plain.outs {
			if plain.reqs[i].path != "/v1/evaluate" || plain.outs[i].err != nil || traced.outs[i].err != nil {
				continue
			}
			if plain.outs[i].bodyHash != traced.outs[i].bodyHash {
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL request %d: the traced run answered differently\n", i)
			}
		}
		serveLayers(res.Metrics, plain, traced)
		res.Metrics["check.error_rate"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// latencies returns every request's latency from its due time, in ms.
func latencies(ph servePhase) []float64 {
	lat := make([]float64, len(ph.outs))
	for i, o := range ph.outs {
		lat[i] = ms(o.latency)
	}
	return lat
}

// serveLayers fills the per-layer metrics of serve-open.
func serveLayers(m map[string]metric, plain, traced servePhase) {
	l := layers{}
	var handler, transport, late []float64
	for _, o := range traced.outs {
		if o.err != nil {
			continue
		}
		handler = append(handler, o.handlerMS)
		transport = append(transport, ms(o.sendLat)-o.handlerMS)
		if o.slept {
			late = append(late, ms(o.late))
		}
	}
	n := len(traced.outs)
	l["serve.handler_ms_p50"] = median(handler)
	l["serve.handler_ms_p99"] = percentile(handler, 99)
	l["serve.transport_ms_p50"] = median(transport)
	l["serve.latency_ms_p99"] = percentile(latencies(traced), 99)
	l["serve.refused"] = float64(traced.refused)
	l["loadgen.late_ms_p99"] = percentile(late, 99)
	l.addCache(traced.cache, n)
	l.addRuntime(traced.use, n)
	// Tracing overhead: the median latency of the same stream, traced
	// against untraced.
	l["trace.overhead_frac"] = ratio(median(latencies(traced)), median(latencies(plain))) - 1
	l.into(m)
}

// profileServe replays a seed's warm-up and n timed requests one at a
// time against a fresh server and reports, per request kind, the share
// that missed the evaluation cache (needed a solve), with the cache's hit
// ratio and rotations over the timed requests. With no two requests in
// flight together, each miss belongs to exactly one request; the timed
// runs interleave two senders, so their figures differ slightly.
func profileServe(seed uint64, n int) error {
	warm, timed := serveStream(seed, n)
	s, err := startServer(false)
	if err != nil {
		return err
	}
	client, closeIdle := newClient(1)
	defer closeIdle()
	for _, r := range warm {
		if o := send(client, s.url, -1, r, false); o.err != nil {
			return errors.Join(o.err, s.stop())
		}
	}
	type tally struct {
		n, missed, misses int64
		hitMS, missMS     float64
	}
	kinds := map[string]*tally{}
	c0 := s.srv.Cache().Stats()
	for i, r := range timed {
		before := s.srv.Cache().Stats().Misses
		start := time.Now()
		if o := send(client, s.url, i, r, false); o.err != nil {
			return errors.Join(o.err, s.stop())
		}
		took := ms(time.Since(start))
		d := s.srv.Cache().Stats().Misses - before
		t := kinds[r.kind]
		if t == nil {
			t = &tally{}
			kinds[r.kind] = t
		}
		t.n++
		t.misses += d
		if d > 0 {
			t.missed++
			t.missMS += took
		} else {
			t.hitMS += took
		}
	}
	c1 := s.srv.Cache().Stats()
	if err := s.stop(); err != nil {
		return err
	}
	hits, misses := c1.Hits+c1.Waits-c0.Hits-c0.Waits, c1.Misses-c0.Misses
	fmt.Printf("seed %d, %d timed requests after %d warm-up ones: evalcache hit ratio %.3f (%d lookups), %d rotations\n",
		seed, n, len(warm), ratio(float64(hits), float64(hits+misses)), hits+misses, c1.Rotations-c0.Rotations)
	for _, m := range serveMix {
		if t := kinds[m.kind]; t != nil {
			fmt.Printf("  %-8s %6d requests, %5.1f %% missed the cache (needed a solve), %.2f misses each; mean %.2f ms missed, %.2f ms answered from cache\n",
				m.kind, t.n, 100*float64(t.missed)/float64(t.n), float64(t.misses)/float64(t.n),
				t.missMS/math.Max(1, float64(t.missed)), t.hitMS/math.Max(1, float64(t.n-t.missed)))
		}
	}
	return nil
}

// calibrateServe runs the serve-open stream as a closed loop of nproc
// clients and reports its capacity and latency, the figures serveRate
// and serveLimit were chosen from.
func calibrateServe(seed uint64, n int) error {
	warm, timed := serveStream(seed, n)
	w, err := startWarm(warm, false)
	if err != nil {
		return err
	}
	ph := runServePhase(timed, math.Inf(1), w.s, w.client)
	if err := w.stop(); err != nil {
		return err
	}
	var svc []float64
	failed := 0
	for _, o := range ph.outs {
		if o.err != nil {
			failed++
			continue
		}
		svc = append(svc, ms(o.sendLat))
	}
	fmt.Printf("closed loop, %d clients: %d requests (%d failed) in %.2fs = %.0f req/s; latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; evalcache %+v\n",
		runtime.NumCPU(), len(ph.outs), failed, ph.use.wall.Seconds(), float64(len(ph.outs))/ph.use.wall.Seconds(),
		median(svc), percentile(svc, 90), percentile(svc, 99), ph.cache)
	return nil
}
