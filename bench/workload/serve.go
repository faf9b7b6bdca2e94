package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"nanoxbar/bench/check"
	"nanoxbar/bench/loadgen"
	"nanoxbar/bench/trace"
	"nanoxbar/internal/bism"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/internal/telemetry"
	"nanoxbar/internal/truthtab"
	"nanoxbar/internal/xrand"
	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// serveProfile is one serving traffic mix. Both profiles drive an
// in-process httpapi server (two engine workers, as on a 2-core host;
// xbarbench runs them on one P) over the v2 NDJSON protocol, through
// the SDK's HTTP client, from one process with at most two callers and
// two connections.
type serveProfile struct {
	name  string
	cache int
	// named are suite functions at the top of the popularity ranking,
	// followed by random seeded functions of minVars..maxVars variables
	// up to poolSize; zipf exponent zipfS ranks them.
	named            []string
	poolSize         int
	minVars, maxVars int
	zipfS            float64
	// mix weights synthesize, map and yield requests.
	mix [3]int
	// rate is the fixed offered rate (requests/s) of the open loop, at
	// most a third of the lowest one-P capacity (ops_per_cpu_s) measured
	// on the reference machine, so the open loop keeps up when the host's
	// load slows the process. It is a constant: it is never adapted at
	// run time.
	rate float64
	// warmup is the share of the budget spent on open-loop traffic
	// before timing.
	warmup float64
}

// hotProfile: a 48-function pool under a cache that holds it all, so
// after set-up every synthesis is a hit and the work is transport and
// engine dispatch.
var hotProfile = serveProfile{
	name:  "serve-hot",
	cache: 1024,
	named: []string{"xnor2", "maj3", "fig4", "xor4", "mux2", "cmp2", "add2_s0", "rd5_s1", "maj5", "xor5",
		"th6_2", "mux4", "rd5_s0", "rd5_s2", "add2_s1", "add2_s2", "cmp3", "rnd5_d30_s1", "rnd6_d50_s2", "dred6_c1_s4"},
	poolSize: 48, minVars: 3, maxVars: 4, zipfS: 1.3,
	mix:    [3]int{3, 5, 1},
	rate:   1000,
	warmup: 0.05,
}

// churnProfile: 4096 functions under a 256-entry cache, so inserts,
// evictions, single-flight and cold synthesis all run under load. A
// change that speeds up hits at the expense of misses shows here and
// not in serve-hot.
var churnProfile = serveProfile{
	name:     "serve-churn",
	cache:    256,
	named:    []string{"xnor2", "maj3", "xor4", "mux2", "cmp2", "add2_s0", "add2_s1", "add2_s2", "rd5_s1", "maj5"},
	poolSize: 4096, minVars: 3, maxVars: 5, zipfS: 1.1,
	mix:    [3]int{3, 1, 0},
	rate:   500,
	warmup: 0.1,
}

// Map and yield request parameters.
const (
	serveDensity     = 0.04
	serveMaxAttempts = 50
	serveYieldChips  = 12
	// ledgerSample is how many scheduled requests the traced serve-hot
	// run replays through the engine alone and through HTTP.
	ledgerSample = 2000
)

// Request kinds of the mix, indexed like serveProfile.mix.
var serveKinds = [3]nanoxbar.Kind{nanoxbar.KindSynthesize, nanoxbar.KindMap, nanoxbar.KindYield}

// poolFn is one function of the popularity pool.
type poolFn struct {
	spec nanoxbar.FunctionSpec
	f    truthtab.TT
	ref  *serveRef // lazily built reference
}

// serveRef is the benchmark's own synthesis of a pool function, checked
// by the independent checkers, against which responses are compared.
type serveRef struct {
	syn nanoxbar.Synthesis
	app *bism.App
}

// serveOp is one scheduled request and its outcome.
type serveOp struct {
	kind int
	fn   int
	seed int64

	syn         *nanoxbar.Synthesis
	mr          *nanoxbar.MapOutcome
	ys          *nanoxbar.YieldStats
	dies, dieOK int
	die0        *nanoxbar.MapOutcome
	err         error
}

// server is the in-process system under test and its client.
type server struct {
	eng    *engine.Engine
	srv    *http.Server
	served chan error
	hc     *http.Client
	cl     *client.Client
	url    string
}

func startServer(cache int) (*server, error) {
	eng := engine.New(engine.Config{Workers: 2, CacheSize: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s := &server{eng: eng, srv: &http.Server{Handler: httpapi.New(eng)}, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	s.cl = client.New(s.url, client.WithHTTPClient(s.hc))
	return s, nil
}

// close shuts the server down and waits for it to stop serving.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.served
	s.hc.CloseIdleConnections()
	s.eng.Close()
}

// scrape reads the server's /metrics exposition.
func (s *server) scrape(ctx context.Context) (*telemetry.Exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics scrape: status %d", resp.StatusCode)
	}
	return telemetry.ParseExposition(resp.Body)
}

type serveRun struct {
	cfg  Config
	p    serveProfile
	pool []poolFn
	srv  *server
	rep  *Report
	// first maps a pool index to its first synthesis response; every
	// later response for the function must repeat it.
	first map[int]nanoxbar.Synthesis
}

// runServe: after an open-loop warm-up with seeded Poisson arrivals at
// the profile's fixed rate, closed-loop windows give the end-to-end
// metrics on the CPU clock (rounds). The traced run adds an open-loop
// phase at the fixed rate, timed on the wall clock.
func runServe(ctx context.Context, p serveProfile, cfg Config) (*Report, error) {
	if cfg.Short {
		p.named = p.named[:6]
		p.poolSize = min(p.poolSize, len(p.named)+8)
	}
	s := &serveRun{cfg: cfg, p: p, rep: newReport(cfg.Spans != nil), first: make(map[int]nanoxbar.Synthesis)}
	if err := s.buildPool(); err != nil {
		return nil, err
	}
	// Set-up starts the server and synthesizes the named functions once:
	// their areas are the quality metric, and in serve-hot the set-up
	// fills the cache with the whole pool.
	fill := len(p.named)
	if p.poolSize <= p.cache {
		fill = len(s.pool)
	}
	var filled []nanoxbar.Synthesis
	srv, setupS, err := timedSetup(func() (*server, error) {
		srv, err := startServer(p.cache)
		if err != nil {
			return nil, err
		}
		filled = filled[:0]
		for i := 0; i < fill; i++ {
			syn, err := srv.cl.Synthesize(ctx, s.pool[i].spec)
			if err != nil {
				srv.close()
				return nil, fmt.Errorf("%s: set-up synthesis of %v: %w", p.name, s.pool[i].spec, err)
			}
			filled = append(filled, *syn)
		}
		return srv, nil
	}, func(srv *server) { srv.close() })
	if err != nil {
		return nil, err
	}
	defer srv.close()
	s.srv = srv
	area := 0
	for i, syn := range filled {
		s.rep.Attempted++
		if err := s.checkSynthesis(i, syn); err != nil {
			s.rep.fail("set-up synthesis of %v: %v", s.pool[i].spec, err)
		}
		if i < len(p.named) {
			area += syn.Area
		}
	}

	// Warm-up is the open loop at the fixed rate, every request checked
	// and counted, so a system that cannot sustain the rate fails the run.
	s.phase(ctx, p.rate, cfg.budget(p.warmup), 1, nil)
	if cfg.Spans == nil {
		for k, v := range s.rounds(ctx, 8, cfg.budget(1-p.warmup), 100, nil) {
			s.rep.set(k, v)
		}
		s.rep.set("setup_s", setupS)
		s.rep.set("area_cells", float64(area))
		s.rep.set("max_rss_mb", maxRSSMB())
		return s.rep, nil
	}
	untraced := s.rounds(ctx, 4, cfg.budget(0.3), 100, nil)
	traced := s.rounds(ctx, 4, cfg.budget(0.3), 200, cfg.Spans)
	s.rep.setOverhead(untraced, traced)
	// The open loop at the fixed rate on the wall clock, with the stage
	// metrics from the scrape and counter deltas around it.
	before, err := s.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	g0, start := readGo(), time.Now()
	open := s.phase(ctx, p.rate, cfg.budget(0.3), 300, cfg.Spans)
	secs := time.Since(start).Seconds()
	s.rep.setGo(g0, readGo(), open.Issued)
	after, err := s.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	s.stageMetrics(before, after, open, secs)
	if p.name == hotProfile.name {
		s.ledger(ctx, open)
	}
	return s.rep, nil
}

// rounds alternates n one-caller windows with n two-caller windows,
// closed loops splitting the budget evenly, so both sample the same
// stretches of the run. The one-caller windows time each request on the
// CPU clock: with one request in flight, the process's CPU time across
// it is what the request cost the client, the transport and the engine
// together. cpu_p50_ms, cpu_p99_ms and cpu_geomean_ms pool those
// requests (thousands, so the p99 has well over ten beyond it). The
// two-caller windows keep both engine workers busy: ops_per_cpu_s is
// the median over them of requests per CPU-second, wall.ops_per_s of
// requests per wall-clock second.
func (s *serveRun) rounds(ctx context.Context, n int, budget time.Duration, tag int, spans *trace.Recorder) map[string]float64 {
	d := budget / time.Duration(2*n)
	var perReq, perCPU, perWall []float64
	for k := 0; k < n; k++ {
		one := s.closedLoop(ctx, 1, d, tag+3*k, spans)
		perReq = append(perReq, one.opCPU...)
		two := s.closedLoop(ctx, 2, d, tag+3*k+1, spans)
		perCPU = append(perCPU, float64(two.ops)/two.cpu.Seconds())
		perWall = append(perWall, float64(two.ops)/two.wall.Seconds())
	}
	return map[string]float64{
		"ops_per_cpu_s":  median(perCPU),
		"cpu_p50_ms":     quantile(perReq, 0.50),
		"cpu_p99_ms":     quantile(perReq, 0.99),
		"cpu_geomean_ms": geomean(perReq),
		"wall.ops_per_s": median(perWall),
	}
}

// buildPool makes the popularity-ranked pool and the references of the
// named functions (and, when the cache holds the whole pool, of every
// function).
func (s *serveRun) buildPool() error {
	for _, name := range s.p.named {
		f, err := suiteFunc(name)
		if err != nil {
			return err
		}
		s.pool = append(s.pool, poolFn{spec: nanoxbar.Func(name), f: f})
	}
	rng := rand.New(rand.NewSource(xrand.SubSeed(s.cfg.Seed, 0)))
	for len(s.pool) < s.p.poolSize {
		n := s.p.minVars + rng.Intn(s.p.maxVars-s.p.minVars+1)
		f := truthtab.FromFunc(n, func(uint64) bool { return rng.Intn(2) == 1 })
		s.pool = append(s.pool, poolFn{spec: nanoxbar.TT(f.String()), f: f})
	}
	refs := len(s.p.named)
	if s.p.poolSize <= s.p.cache {
		refs = len(s.pool)
	}
	for i := 0; i < refs; i++ {
		if _, err := s.ref(i); err != nil {
			return err
		}
	}
	return nil
}

// ref returns pool function i's reference, building and checking it on
// first use.
func (s *serveRun) ref(i int) (*serveRef, error) {
	pf := &s.pool[i]
	if pf.ref != nil {
		return pf.ref, nil
	}
	im, err := core.Synthesize(pf.f, core.FourTerminal, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("reference synthesis of %v: %w", pf.spec, err)
	}
	if err := check.Implementation(im, pf.f); err != nil {
		return nil, fmt.Errorf("reference synthesis of %v: %w", pf.spec, err)
	}
	pf.ref = &serveRef{
		syn: nanoxbar.Synthesis{Tech: im.Tech.String(), Rows: im.Rows, Cols: im.Cols, Area: im.Area(), Method: im.Method},
		app: check.LatticeApp(im.Lattice),
	}
	return pf.ref, nil
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	loadgen.Summary
	ops []serveOp
}

// phase offers rate requests/s for d, checks every outcome, and counts
// them into the report. tag seeds the phase's schedule and requests.
func (s *serveRun) phase(ctx context.Context, rate float64, d time.Duration, tag int, spans *trace.Recorder) phaseResult {
	rng := rand.New(rand.NewSource(xrand.SubSeed(s.cfg.Seed, tag)))
	due := loadgen.Poisson(rng, rate, d)
	ops := make([]serveOp, len(due))
	zipf := s.zipf(rng)
	for i := range ops {
		ops[i] = s.drawOp(rng, zipf)
	}
	// A hung request must fail the run, not stall it.
	pctx, cancel := context.WithTimeout(ctx, 2*d+30*time.Second)
	defer cancel()
	// A generator a whole second behind its schedule has a backlog it will
	// not clear; the cutoff ends the phase there.
	samples := loadgen.Run(pctx, loadgen.Plan{Due: due, Workers: 2, Cutoff: d + time.Second}, func(ctx context.Context, i int) error {
		sp := spans.Begin(0, "client."+string(serveKinds[ops[i].kind]))
		defer spans.End(sp)
		ops[i].err = s.do(ctx, &ops[i])
		return ops[i].err
	})
	for i := range ops {
		if !samples[i].Issued {
			// The generator fell so far behind its schedule that the
			// cutoff left the request unsent: it would have been among
			// the slowest, so it fails rather than drop out of the tail.
			ops[i].err = errors.New("not issued: generator backlog")
		}
		s.account(&ops[i])
	}
	return phaseResult{Summary: loadgen.Summarize(samples), ops: ops}
}

// account counts one scheduled request into the report and checks its
// response.
func (s *serveRun) account(op *serveOp) {
	s.rep.Attempted++
	err := op.err
	if err == nil {
		err = s.checkOp(op)
	}
	if err != nil {
		s.rep.fail("%s %v: %v", serveKinds[op.kind], s.pool[op.fn].spec, err)
	}
}

// zipf ranks the pool by popularity: index 0 is the most requested.
func (s *serveRun) zipf(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, s.p.zipfS, 1, uint64(len(s.pool)-1))
}

// drawOp draws one request: kind by the mix weights, function by zipf
// popularity, and a request seed.
func (s *serveRun) drawOp(rng *rand.Rand, zipf *rand.Zipf) serveOp {
	k, w := 0, rng.Intn(s.p.mix[0]+s.p.mix[1]+s.p.mix[2])
	for w >= s.p.mix[k] {
		w -= s.p.mix[k]
		k++
	}
	return serveOp{kind: k, fn: int(zipf.Uint64()), seed: rng.Int63()}
}

// do issues one request through the HTTP client. Yield sweeps stream
// their dies.
func (s *serveRun) do(ctx context.Context, op *serveOp) error {
	spec, opts := s.pool[op.fn].spec, requestOpts(op)
	var err error
	switch op.kind {
	case 0:
		op.syn, err = s.srv.cl.Synthesize(ctx, spec)
	case 1:
		op.mr, err = s.srv.cl.Map(ctx, spec, opts...)
	default:
		op.ys, err = s.srv.cl.YieldSweep(ctx, spec, append(opts, nanoxbar.OnDie(func(d nanoxbar.Die) {
			op.dies++
			if d.Map != nil && d.Map.Success {
				op.dieOK++
			}
			if d.Index == 0 {
				op.die0 = d.Map
			}
		}))...)
	}
	return err
}

// requestOpts are the options of op's request, without a die observer.
func requestOpts(op *serveOp) []nanoxbar.Option {
	if op.kind == 0 {
		return nil
	}
	opts := []nanoxbar.Option{nanoxbar.WithSeed(op.seed), nanoxbar.WithDensity(serveDensity), nanoxbar.WithMaxAttempts(serveMaxAttempts)}
	if op.kind == 2 {
		opts = append(opts, nanoxbar.WithChips(serveYieldChips))
	}
	return opts
}

// checkOp checks one response. Syntheses must equal the function's
// first response, and the reference where one is built; the mappings
// of one map request in verifyEvery (chosen by seed) and die 0 of every
// yield sweep are re-validated on their redrawn chips.
func (s *serveRun) checkOp(op *serveOp) error {
	if s.cfg.Corrupt != nil {
		s.cfg.Corrupt(op)
	}
	p := defect.UniformCrosspoint(serveDensity)
	switch op.kind {
	case 0:
		return s.checkSynthesis(op.fn, *op.syn)
	case 1:
		if !op.mr.Success || op.seed%verifyEvery != 0 {
			return nil
		}
		ref, err := s.ref(op.fn)
		if err != nil {
			return err
		}
		return check.MapChip(ref.app, op.mr.ChipSize, p, op.seed, op.mr.Rows, op.mr.Cols)
	default:
		if op.ys.Chips != serveYieldChips || op.dies != serveYieldChips || op.dieOK != op.ys.Successes {
			return fmt.Errorf("yield: %d dies streamed with %d successes, aggregate %d of %d", op.dies, op.dieOK, op.ys.Successes, op.ys.Chips)
		}
		if op.die0 == nil || !op.die0.Success {
			return nil
		}
		ref, err := s.ref(op.fn)
		if err != nil {
			return err
		}
		return check.Die(ref.app, op.die0.ChipSize, p, op.seed, 0, op.die0.Rows, op.die0.Cols)
	}
}

// checkSynthesis compares a synthesis response with the function's
// first response and, when built, its reference.
func (s *serveRun) checkSynthesis(fn int, got nanoxbar.Synthesis) error {
	got.CacheHit, got.Key = false, ""
	if first, ok := s.first[fn]; ok {
		if got != first {
			return fmt.Errorf("synthesis %+v differs from the first response %+v", got, first)
		}
		return nil
	}
	s.first[fn] = got
	if ref := s.pool[fn].ref; ref != nil && got != ref.syn {
		return fmt.Errorf("synthesis %+v differs from the reference %+v", got, ref.syn)
	}
	return nil
}

// closedResult is one closed-loop window: the requests completed and
// the window's wall and process CPU time. A one-caller window also
// holds each request's CPU time in milliseconds.
type closedResult struct {
	ops       int
	wall, cpu time.Duration
	opCPU     []float64
}

// closedLoop runs callers back to back for d, each drawing its own
// seeded request stream, and checks every response.
func (s *serveRun) closedLoop(ctx context.Context, callers int, d time.Duration, tag int, spans *trace.Recorder) closedResult {
	ctx, cancel := context.WithTimeout(ctx, d+30*time.Second)
	defer cancel()
	done := make([][]serveOp, callers)
	var opCPU []float64
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	end := start.Add(d)
	for w := range done {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(xrand.SubSeed(s.cfg.Seed, tag+w)))
			zipf := s.zipf(rng)
			for time.Now().Before(end) && ctx.Err() == nil {
				op := s.drawOp(rng, zipf)
				sp := spans.Begin(0, "client."+string(serveKinds[op.kind]))
				c0 := cpuTime()
				op.err = s.do(ctx, &op)
				if callers == 1 {
					opCPU = append(opCPU, ms(cpuOp(c0)))
				}
				spans.End(sp)
				done[w] = append(done[w], op)
			}
		}()
	}
	wg.Wait()
	r := closedResult{wall: time.Since(start), cpu: cpuTime() - cpu0, opCPU: opCPU}
	for _, ops := range done {
		for i := range ops {
			s.account(&ops[i])
			r.ops++
		}
	}
	return r
}

// statsSnapshot pairs a /metrics scrape with the engine counters.
type statsSnapshot struct {
	exp   *telemetry.Exposition
	stats nanoxbar.Stats
}

func (s *serveRun) snapshot(ctx context.Context) (statsSnapshot, error) {
	exp, err := s.srv.scrape(ctx)
	return statsSnapshot{exp: exp, stats: s.srv.eng.Stats()}, err
}

// histMean is the mean observation, in seconds, of one histogram
// series between two scrapes; 0 without observations.
func histMean(before, after *telemetry.Exposition, name string, labels map[string]string) float64 {
	a, ok := after.Histogram(name, labels)
	if !ok {
		return 0
	}
	b, _ := before.Histogram(name, labels)
	d, ok := a.Sub(b)
	if !ok || d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// Engine and HTTP metric families read from /metrics.
const (
	familyStage   = "nanoxbar_stage_duration_seconds"
	familyRequest = "nanoxbar_request_duration_seconds"
	familyHTTP    = "nanoxbar_http_request_duration_seconds"
)

// stageMetrics records the per-layer serving metrics of the open-loop
// phase, which took secs of wall time, from the scrape and counter
// deltas around it.
func (s *serveRun) stageMetrics(before, after statsSnapshot, open phaseResult, secs float64) {
	b, a := before.exp, after.exp
	stage := func(st string) float64 { return histMean(b, a, familyStage, map[string]string{"stage": st}) }
	s.rep.set("engine.queue_wait_us", 1e6*stage("queue_wait"))
	s.rep.set("engine.cache_lookup_us", 1e6*stage("cache_lookup"))
	s.rep.set("engine.die_map_us", 1e6*stage("die_map"))
	s.rep.set("engine.synthesize_ms", 1e3*stage("synthesize"))
	for _, k := range serveKinds {
		s.rep.set("engine.request_us."+string(k), 1e6*histMean(b, a, familyRequest, map[string]string{"kind": string(k)}))
	}
	httpMean := histMean(b, a, familyHTTP, map[string]string{"path": "/v2/jobs"})
	s.rep.set("httpapi.request_us", 1e6*httpMean)
	s.rep.set("client.overhead_us", us(open.MeanService)-1e6*httpMean)
	x, y := before.stats, after.stats
	hits, misses := float64(y.CacheHits-x.CacheHits), float64(y.CacheMisses-x.CacheMisses)
	s.rep.set("engine.hit_ratio", ratio(hits, hits+misses))
	s.rep.set("engine.evictions_per_s", float64(y.CacheEvictions-x.CacheEvictions)/secs)
	s.rep.set("engine.flight_ratio", ratio(float64(y.SynthCalls-x.SynthCalls), misses))
	s.rep.set("engine.shed", float64(y.Shed-x.Shed))
	s.rep.set("engine.degraded", float64(y.Degraded-x.Degraded))
	s.rep.set("loadgen.p50_ms", ms(open.P50))
	s.rep.set("loadgen.p99_ms", ms(open.P99))
	s.rep.set("loadgen.lag_p99_ms", ms(open.LagP99))
}

// ledger replays the first ledgerSample requests of the open-loop phase
// one at a time, first through engine.Engine.DoCtx alone and then
// through the HTTP client, on the same warm engine. The open loop's
// p50 splits into the engine's median, what HTTP adds to it, and the
// remainder: queueing and contention under load.
func (s *serveRun) ledger(ctx context.Context, open phaseResult) {
	ops := open.ops[:min(ledgerSample, len(open.ops))]
	var eng, viaHTTP []float64
	for _, op := range ops {
		req, _ := nanoxbar.BuildRequest(serveKinds[op.kind], s.pool[op.fn].spec, requestOpts(&op)...)
		start := time.Now()
		res := s.srv.eng.DoCtx(ctx, req)
		eng = append(eng, us(time.Since(start)))
		s.rep.Attempted++
		if err := res.TypedErr(); err != nil {
			s.rep.fail("ledger engine %s: %v", serveKinds[op.kind], err)
		}
	}
	for _, op := range ops {
		op := serveOp{kind: op.kind, fn: op.fn, seed: op.seed}
		start := time.Now()
		op.err = s.do(ctx, &op)
		viaHTTP = append(viaHTTP, us(time.Since(start)))
		s.account(&op)
	}
	e, h := median(eng), median(viaHTTP)
	s.rep.set("ledger.engine_us", e)
	s.rep.set("ledger.http_us", h-e)
	s.rep.set("ledger.remainder_us", us(open.P50)-h)
}
