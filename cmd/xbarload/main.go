// Command xbarload is the pass/fail soak of the nanoxbar serving
// stack. It replays a fixed scenario mix — cached synthesis lookups,
// per-chip mapping, streaming yield sweeps, and mid-stream
// cancellations — through the public HTTP client (pkg/nanoxbar/client)
// against either a running xbarserverd or in-process servers it starts
// itself, with function popularity drawn from a zipf distribution so
// the cache sees a realistic hot set. It times nothing: the serving
// path is measured by bench/'s serve-hot and serve-churn workloads.
//
// Usage:
//
//	xbarload [-addr http://host:8080] [-duration 30s] [-concurrency 8]
//	         [-seed 1] [-chaos | -cluster N]
//
// With no -addr it boots a private in-process server on a loopback
// port, which is what the CI soak smoke uses:
//
//	go run -race ./cmd/xbarload -duration 5s -seed 1
//
// A run ends with one stderr line: ops, failed ops, typed failures,
// cancel-scenario ops and the server's cache hit rate over the soak.
//
// -chaos sends the client through a transport that injects seeded
// faults (dropped connections, 5xx bursts, latency spikes, truncated
// NDJSON frames) and turns on client retries and a circuit breaker.
// Failures that surface typed — overloaded, unavailable, canceled, or a
// chaos-synthesized 500 — are expected and counted. One more stderr
// line reports the injected faults and the client's retry and breaker
// counters. The 5xx bursts are 1–3 responses long, below the breaker's
// five consecutive failures, so that line normally reads 0 opens; the
// client's TestClientBreakerOpensUnderChaos opens the breaker.
//
// -cluster N (N >= 2) boots N in-process cluster nodes instead of one
// and soaks them through node n0, while the harness kills node n1
// abruptly in the middle of a streaming yield sweep, then restarts it
// on the same port under load and warm-starts its cache from a peer
// snapshot. Inter-node traffic runs through a seeded chaos transport to
// model partitions, so typed failures are expected here too. The
// kill/restart chronology and the routing counters go to stderr:
//
//	go run -race ./cmd/xbarload -cluster 3 -duration 5s -seed 1
//
// Every mode exits 1 when an op fails unexpectedly — a yield sweep that
// succeeds without streaming each of its dies exactly once counts as
// one — and when a watched server (every live in-process node, or the
// -addr server) reports a recovered panic on /metrics or cannot be read
// there. It exits 1 under -chaos when the transport injected no fault,
// and under -cluster when the kill-victim stream fails untyped or the
// restart fails. Cancellations xbarload itself issues and unsuccessful
// but valid mapping outcomes are results, not failures. Usage errors
// exit 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"nanoxbar/internal/resilience"
	"nanoxbar/internal/telemetry"
	"nanoxbar/pkg/nanoxbar"
	nbclient "nanoxbar/pkg/nanoxbar/client"
)

// scenario names.
const (
	scSynthesize = "synthesize"
	scMap        = "map"
	scYield      = "yield"
	scCancel     = "cancel" // yield sweep canceled mid-stream
)

// deck is the scenario mix synthesize=3, map=5, yield=1, cancel=1,
// expanded so that a uniform draw picks each scenario by its weight.
var deck = []string{scSynthesize, scSynthesize, scSynthesize, scMap, scMap, scMap, scMap, scMap, scYield, scCancel}

// The workload every soak replays.
const (
	poolSize    = 48   // distinct functions in the popularity pool
	zipfS       = 1.3  // zipf exponent of function popularity
	chips       = 12   // dies per yield sweep
	density     = 0.04 // crosspoint defect density
	maxAttempts = 50   // self-mapping attempt budget per chip
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, boots the in-process servers when there is no
// -addr, soaks, reports on stderr and returns the exit status.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbarload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "server base URL; empty starts an in-process server")
	duration := fs.Duration("duration", 30*time.Second, "soak duration")
	concurrency := fs.Int("concurrency", 8, "concurrent client streams")
	seed := fs.Int64("seed", 1, "root seed for scenario and function draws")
	chaos := fs.Bool("chaos", false, "inject seeded transport faults and assert every failure is typed")
	nodes := fs.Int("cluster", 0, "boot an N-node in-process cluster (N >= 2) with kill/restart chaos; incompatible with -addr and -chaos")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "xbarload:", msg)
		return 2
	}
	switch {
	case *concurrency < 1:
		return usage("-concurrency must be >= 1")
	case *nodes != 0 && *nodes < 2:
		return usage("-cluster needs at least 2 nodes")
	case *nodes > 0 && (*addr != "" || *chaos):
		return usage("-cluster is incompatible with -addr and -chaos")
	}

	base := *addr
	var h *harness
	if base == "" {
		var err error
		if h, err = startHarness(max(*nodes, 1), *seed); err != nil {
			fmt.Fprintln(stderr, "xbarload:", err)
			return 1
		}
		defer h.close()
		base = h.peers[nodeID(0)]
		if *nodes > 0 {
			fmt.Fprintf(stderr, "xbarload: %d-node in-process cluster, client at %s\n", *nodes, base)
		} else {
			fmt.Fprintf(stderr, "xbarload: in-process server at %s\n", base)
		}
	}

	// Under -chaos the client speaks through a fault-injecting transport
	// and defends itself with the stock retry/breaker configuration —
	// the point of the soak is that this combination never produces an
	// untyped failure.
	var chaosT *resilience.ChaosTransport
	var clOpts []nbclient.Option
	if *chaos {
		// A transport of its own, so that its idle connections close
		// before the servers drain: Shutdown waits 5 s for a connection
		// dialed but never used.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		defer tr.CloseIdleConnections()
		chaosT = resilience.NewChaosTransport(tr, resilience.ChaosConfig{
			Seed:         *seed,
			DropRate:     0.03,
			ErrorRate:    0.05,
			LatencyRate:  0.05,
			TruncateRate: 0.02,
		})
		clOpts = append(clOpts,
			nbclient.WithHTTPClient(&http.Client{Transport: chaosT}),
			// Six attempts outlast the longest 5xx burst (three
			// responses) with room for an adjacent drop.
			nbclient.WithResilience(nbclient.ResilienceConfig{
				Retry: resilience.RetryPolicy{MaxAttempts: 6},
			}))
	}
	cl := nbclient.New(base, clOpts...)
	defer cl.Close()

	cfg := soakConfig{
		base:          base,
		duration:      *duration,
		concurrency:   *concurrency,
		seed:          *seed,
		tolerateTyped: *chaos || *nodes > 0,
		stderr:        stderr,
	}
	// The kill/restart schedule runs beside the soak workers, against
	// the same wall clock, so the kill lands mid-soak and the restart
	// happens under load.
	var chaosWG sync.WaitGroup
	if *nodes > 0 {
		chaosWG.Add(1)
		go func() {
			defer chaosWG.Done()
			h.runChaos(ctx, cfg)
		}()
	}
	res, err := soak(ctx, cl, cfg)
	chaosWG.Wait()
	if err != nil {
		fmt.Fprintln(stderr, "xbarload:", err)
		return 1
	}

	fmt.Fprintf(stderr, "xbarload: %d ops (%d failed, %d typed-chaos, %d cancel-scenario), cache hit rate %.3f\n",
		res.totalOps(), res.failures(), res.typedTotal(), res.ops[scCancel], res.hitRate())
	if chaosT != nil {
		cs := chaosT.Stats()
		res.chaos = &cs
		printChaos(stderr, cs, cl)
	}
	if *nodes > 0 {
		h.printChronology(stderr)
	}
	watch := map[string]string{"server": *addr}
	if h != nil {
		watch = h.live()
	}
	vctx, vcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer vcancel()
	return verdict(vctx, stderr, res, watch, h)
}

// verdict decides the exit status of every mode: 1 when an op failed
// unexpectedly; when a watched server's recovered-panic counters are
// non-zero or unreadable, or a -chaos transport injected no fault,
// since a claim without the evidence would be vacuous; or when a
// cluster's kill-victim stream failed untyped or its restart failed.
// watch maps a label to the base URL of every server the run watches;
// h is nil against an -addr server.
func verdict(ctx context.Context, stderr io.Writer, res *soakResult, watch map[string]string, h *harness) int {
	failed := res.failures() > 0
	if cs := res.chaos; cs != nil && cs.Drops+cs.Errors5xx+cs.Latencies+cs.Truncations == 0 {
		fmt.Fprintf(stderr, "xbarload: chaos: no fault injected over %d requests\n", cs.Requests)
		failed = true
	}
	if h != nil {
		h.mu.Lock()
		for _, e := range h.killErrs {
			fmt.Fprintf(stderr, "xbarload: cluster: UNTYPED kill-stream error: %s\n", e)
			failed = true
		}
		if h.restartErr != "" {
			fmt.Fprintf(stderr, "xbarload: cluster: restart failed: %s\n", h.restartErr)
			failed = true
		}
		h.mu.Unlock()
	}
	for _, id := range slices.Sorted(maps.Keys(watch)) {
		exp := scrapeMetrics(ctx, stderr, watch[id])
		for _, counter := range []string{"nanoxbar_http_panics_total", "nanoxbar_engine_panics_total"} {
			panics, ok := 0.0, false
			if exp != nil {
				panics, ok = exp.Value(counter, nil)
			}
			switch {
			case !ok:
				fmt.Fprintf(stderr, "xbarload: %s: could not read %s from /metrics\n", id, counter)
				failed = true
			case panics > 0:
				fmt.Fprintf(stderr, "xbarload: %s: %s recorded %d panic(s) during the soak\n", id, counter, int(panics))
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// expectedChaosFailure reports whether an op error is an acceptable
// outcome under fault injection: a typed shed/unavailability/
// cancellation, or the internal error decoded from a chaos-synthesized
// 500 (recognizable by its message). Anything else is a real bug — an
// untyped error leaking through the taxonomy.
func expectedChaosFailure(err error) bool {
	if errors.Is(err, nanoxbar.ErrOverloaded) ||
		errors.Is(err, nanoxbar.ErrUnavailable) ||
		errors.Is(err, nanoxbar.ErrCanceled) {
		return true
	}
	return errors.Is(err, nanoxbar.ErrInternal) && strings.Contains(err.Error(), "chaos: injected")
}

// printChaos reports on one line the faults the -chaos transport
// injected and the client's retry and breaker counters.
func printChaos(w io.Writer, cs resilience.ChaosStats, cl *nbclient.Client) {
	st, _ := cl.ResilienceStats()
	fmt.Fprintf(w, "xbarload: chaos: %d requests: %d drops, %d 5xx, %d latency spikes, %d truncations; %d retries (%d exhausted), breaker %d opens / %d rejections\n",
		cs.Requests, cs.Drops, cs.Errors5xx, cs.Latencies, cs.Truncations,
		st.Retry.Retries, st.Retry.Exhausted, st.Breaker.Opens, st.Breaker.Rejections)
}

// functionPool builds the popularity-ranked function set: a core of
// named benchmark functions, padded with seeded random 3- and 4-input
// truth tables. Index 0 is the most popular under zipf.
func functionPool(rng *rand.Rand) []nanoxbar.FunctionSpec {
	pool := make([]nanoxbar.FunctionSpec, 0, poolSize)
	for _, name := range []string{"xnor2", "maj3", "fig4", "xor4", "mux2", "cmp2", "add2_s0", "rd5_s1"} {
		pool = append(pool, nanoxbar.Func(name))
	}
	for len(pool) < poolSize {
		if len(pool)%2 == 0 {
			pool = append(pool, nanoxbar.TT(fmt.Sprintf("3:0x%02x", rng.Intn(0x100))))
		} else {
			pool = append(pool, nanoxbar.TT(fmt.Sprintf("4:0x%04x", rng.Intn(0x10000))))
		}
	}
	return pool
}

type soakConfig struct {
	base        string
	duration    time.Duration
	concurrency int
	seed        int64
	// tolerateTyped marks the -chaos and -cluster soaks: a typed failure
	// is an expected casualty of fault injection or of the kill/restart
	// schedule, counted but not failed.
	tolerateTyped bool
	stderr        io.Writer
}

// soakResult counts ops and outcomes per scenario.
type soakResult struct {
	mu     sync.Mutex
	ops    map[string]int // completed ops per scenario
	failed map[string]int // unexpected errors per scenario
	typed  int            // tolerated typed failures

	// before and after are the server's /metrics around the soak.
	before, after *telemetry.Exposition

	// chaos is the -chaos transport's count of requests and injected
	// faults after the soak; nil in the other modes.
	chaos *resilience.ChaosStats
}

func newSoakResult() *soakResult {
	return &soakResult{ops: make(map[string]int), failed: make(map[string]int)}
}

// observe records one finished op and reports whether it failed: an
// error fails it unless tolerateTyped holds and the error is an
// expected chaos casualty.
func (r *soakResult) observe(scenario string, err error, tolerateTyped bool) bool {
	typed := err != nil && tolerateTyped && expectedChaosFailure(err)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[scenario]++
	if typed {
		r.typed++
	} else if err != nil {
		r.failed[scenario]++
	}
	return err != nil && !typed
}

func (r *soakResult) typedTotal() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.typed
}

func (r *soakResult) totalOps() int {
	n := 0
	for _, c := range r.ops {
		n += c
	}
	return n
}

func (r *soakResult) failures() int {
	n := 0
	for _, c := range r.failed {
		n += c
	}
	return n
}

// hitRate is the server's cache hit rate over the soak.
func (r *soakResult) hitRate() float64 {
	delta := func(name string) float64 {
		a, _ := r.after.Value(name, nil)
		b, _ := r.before.Value(name, nil)
		return a - b
	}
	dh, dm := delta("nanoxbar_cache_hits_total"), delta("nanoxbar_cache_misses_total")
	if dh+dm == 0 {
		return 0
	}
	return dh / (dh + dm)
}

// soak runs the workload until the duration elapses or ctx is canceled.
func soak(ctx context.Context, cl *nbclient.Client, cfg soakConfig) (*soakResult, error) {
	res := newSoakResult()
	// The scrapes bracketing the soak measure its cache hit rate and
	// bypass the chaos transport, as the verdict's does: an injected 500
	// is not retried, and it would fail the run untyped.
	if res.before = scrapeMetrics(ctx, cfg.stderr, cfg.base); res.before == nil {
		return nil, errors.New("server not reachable: no /metrics")
	}
	pool := functionPool(rand.New(rand.NewSource(cfg.seed)))

	deadline, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// splitmix64-style increment keeps worker streams decorrelated.
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*-0x61c8864680b583eb))
			zipf := rand.NewZipf(rng, zipfS, 1, poolSize-1)
			for op := 0; deadline.Err() == nil; op++ {
				f := pool[zipf.Uint64()]
				scenario := deck[rng.Intn(len(deck))]
				opErr := runOp(deadline, cl, scenario, f, rng.Int63())
				if deadline.Err() != nil && errors.Is(opErr, nanoxbar.ErrCanceled) {
					// The soak window closed mid-call; not an outcome.
					return
				}
				if res.observe(scenario, opErr, cfg.tolerateTyped) {
					fmt.Fprintf(cfg.stderr, "xbarload: worker %d op %d (%s): %v\n", w, op, scenario, opErr)
				}
			}
		}(w)
	}
	wg.Wait()

	// The soak context is spent; scrape on a fresh one.
	sctx, cancelScrape := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelScrape()
	if res.after = scrapeMetrics(sctx, cfg.stderr, cfg.base); res.after == nil {
		return nil, errors.New("closing /metrics scrape failed")
	}
	return res, nil
}

// scrapeMetrics fetches and parses the server's /metrics exposition.
// Any failure (endpoint missing, parse error) is reported on stderr and
// returns nil.
func scrapeMetrics(ctx context.Context, stderr io.Writer, base string) *telemetry.Exposition {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(stderr, "xbarload: metrics scrape:", err)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "xbarload: metrics scrape: status %d\n", resp.StatusCode)
		return nil
	}
	exp, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		fmt.Fprintln(stderr, "xbarload: metrics scrape:", err)
		return nil
	}
	return exp
}

// runOp executes one scenario call. The returned error is nil for
// expected outcomes, including the cancel scenario's own cancellation.
func runOp(ctx context.Context, cl *nbclient.Client, scenario string, f nanoxbar.FunctionSpec, seed int64) error {
	switch scenario {
	case scSynthesize:
		_, err := cl.Synthesize(ctx, f)
		return err
	case scMap:
		// An unrecoverable die is a result, not a failure.
		_, err := cl.Map(ctx, f,
			nanoxbar.WithSeed(seed),
			nanoxbar.WithDensity(density),
			nanoxbar.WithMaxAttempts(maxAttempts))
		return err
	case scYield:
		// Dies stream in completion order. The client retries a sweep
		// only before its first event, so a successful sweep has
		// streamed each die exactly once.
		var dies dieTally
		_, err := cl.YieldSweep(ctx, f,
			nanoxbar.WithSeed(seed),
			nanoxbar.WithDensity(density),
			nanoxbar.WithChips(chips),
			nanoxbar.WithMaxAttempts(maxAttempts),
			nanoxbar.OnDie(func(d nanoxbar.Die) { dies.add(d.Index) }))
		if err == nil {
			err = dies.check()
		}
		return err
	case scCancel:
		// Stream a sweep and hang up partway through: the concurrent-
		// streams-with-cancel path the v2 protocol must survive.
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		seen := 0
		_, err := cl.YieldSweep(cctx, f,
			nanoxbar.WithSeed(seed),
			nanoxbar.WithDensity(density),
			nanoxbar.WithChips(2*chips),
			nanoxbar.WithMaxAttempts(maxAttempts),
			nanoxbar.OnDie(func(nanoxbar.Die) {
				if seen++; seen >= chips/2 {
					cancel()
				}
			}))
		if err == nil || errors.Is(err, nanoxbar.ErrCanceled) {
			return nil // finished fast or canceled as intended
		}
		return err
	}
	return fmt.Errorf("unknown scenario %q", scenario)
}

// dieTally counts the die events of one yield sweep by index.
type dieTally struct {
	events int
	seen   uint64 // bit i set: die i streamed
}

func (t *dieTally) add(i int) {
	t.events++
	if i >= 0 && i < chips {
		t.seen |= 1 << i
	}
}

// check fails a sweep that did not stream exactly chips die events
// with distinct indices in [0, chips). The error is untyped, so every
// mode fails the op.
func (t dieTally) check() error {
	if t.events != chips || t.seen != 1<<chips-1 {
		return fmt.Errorf("yield sweep succeeded after %d die events (index set %#x), want each of dies 0..%d once", t.events, t.seen, chips-1)
	}
	return nil
}
