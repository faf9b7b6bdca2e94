// The node harness boots the in-process servers of every mode without
// -addr. One node is the plain server: an engine behind the HTTP API.
// Two or more form a cluster (-cluster N): each node adds cluster
// membership, with node-to-node traffic (probes, fills, forwards,
// snapshots) running through a seeded resilience.ChaosTransport to
// model partitions, and a schedule kills node n1 abruptly in the middle
// of a streaming yield sweep, then restarts it on the same port under
// load and warm-starts its cache from a peer snapshot.

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
	nbclient "nanoxbar/pkg/nanoxbar/client"
)

// victim is the index of the node the chaos schedule kills and
// restarts. The soak client only ever dials n0, so n0 is never a victim.
const victim = 1

func nodeID(i int) string { return fmt.Sprintf("n%d", i) }

// member is one live in-process node.
type member struct {
	eng    *engine.Engine
	node   *cluster.Node // nil for the plain server
	srv    *http.Server
	cancel context.CancelFunc // stops node.Run's heartbeat loop
}

// harness owns the in-process nodes and, in a cluster, the kill/restart
// chronology observed during the soak.
type harness struct {
	n     int
	seed  int64
	peers map[string]string // id → base URL (stable across restarts)

	mu          sync.Mutex
	members     map[string]*member // live nodes only
	kills       int
	restarts    int
	killTyped   int      // victim-stream failures that surfaced typed
	killErrs    []string // victim-stream failures that did not (bugs)
	restartErr  string   // non-empty when the restart itself failed
	warmEntries int
	warmFrom    string
	warmErr     string
}

// startHarness listens for all n nodes first — so every node's Peers
// map holds real URLs — then starts them. On failure it closes every
// listener it opened.
func startHarness(n int, seed int64) (*harness, error) {
	h := &harness{n: n, seed: seed, peers: make(map[string]string), members: make(map[string]*member)}
	lns := make([]net.Listener, 0, n)
	closeFrom := func(i int) {
		for _, ln := range lns[i:] {
			ln.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeFrom(0)
			return nil, err
		}
		lns = append(lns, ln)
		h.peers[nodeID(i)] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		if err := h.startMember(i, ln); err != nil {
			h.close() // started members' servers close their own listeners
			closeFrom(i)
			return nil, err
		}
	}
	return h, nil
}

// startMember boots node i on ln: an engine and its HTTP API, plus in a
// cluster the membership with a seeded chaos transport on the peer
// links, the peer-fill hook, the cluster routes and the heartbeat loop.
// The caller closes ln when it fails.
func (h *harness) startMember(i int, ln net.Listener) error {
	id := nodeID(i)
	m := &member{eng: engine.New(engine.Config{})}
	var handler http.Handler
	if h.n == 1 {
		handler = httpapi.New(m.eng)
	} else {
		// Partition model: every node-to-node request can be dropped or
		// delayed. Rates stay low so warm-start snapshots usually land on
		// the first or second donor; the failure detector and per-endpoint
		// breakers absorb the rest.
		chaosT := resilience.NewChaosTransport(nil, resilience.ChaosConfig{
			Seed:        h.seed + int64(i+1)*0x9e3779b9,
			DropRate:    0.02,
			LatencyRate: 0.05,
		})
		node, err := cluster.New(m.eng, cluster.Config{
			NodeID:    id,
			Advertise: h.peers[id],
			Peers:     h.peers,
			// Fast enough that a 5s CI soak sees alive→suspect→dead→alive.
			ProbeInterval: 100 * time.Millisecond,
			HTTPClient:    &http.Client{Transport: chaosT},
		})
		if err != nil {
			m.eng.Close()
			return err
		}
		handler = httpapi.New(m.eng, httpapi.WithCluster(node))
		var runCtx context.Context
		runCtx, m.cancel = context.WithCancel(context.Background())
		m.node = node
		go node.Run(runCtx)
	}
	m.srv = &http.Server{Handler: handler}
	go m.srv.Serve(ln)
	h.mu.Lock()
	h.members[id] = m
	h.mu.Unlock()
	return nil
}

// live maps every live node's id to its base URL.
func (h *harness) live() map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	urls := make(map[string]string, len(h.members))
	for id := range h.members {
		urls[id] = h.peers[id]
	}
	return urls
}

// kill tears a node down abruptly — http.Server.Close drops in-flight
// connections mid-stream, the crash model (vs close's graceful drain).
func (h *harness) kill(id string) {
	h.mu.Lock()
	m := h.members[id]
	delete(h.members, id)
	if m != nil {
		h.kills++
	}
	h.mu.Unlock()
	if m == nil {
		return
	}
	m.cancel()
	m.srv.Close()
	// Close does not wait for the handlers it interrupted: what they
	// submit after the engine closes resolves unavailable.
	m.eng.Close()
}

// restart rebinds node i's original port (so peers' static URLs keep
// working), boots a fresh node with an empty cache, and warm-starts it
// from a peer snapshot — no local snapshot file exists.
func (h *harness) restart(ctx context.Context, i int) error {
	addr := strings.TrimPrefix(h.peers[nodeID(i)], "http://")
	var ln net.Listener
	var err error
	deadline := time.Now().Add(3 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("rebind %s: %w", addr, err)
	}
	if err := h.startMember(i, ln); err != nil {
		ln.Close()
		return err
	}
	h.mu.Lock()
	m := h.members[nodeID(i)]
	h.restarts++
	h.mu.Unlock()

	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var entries int
	var from string
	for attempt := 0; attempt < 3; attempt++ {
		if entries, from, err = m.node.WarmStart(wctx); err == nil {
			break
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.warmErr = err.Error() // chaos can drop every donor; warn, don't fail
	} else {
		h.warmEntries, h.warmFrom = entries, from
	}
	return nil
}

// killMidSweep opens a dedicated yield-sweep stream straight at node i
// and kills it after the third die event, so the kill lands
// mid-NDJSON-stream deterministically. The stream's error must be
// typed — that is the contract under test.
func (h *harness) killMidSweep(ctx context.Context, i int, seed int64) {
	id := nodeID(i)
	cl := nbclient.New(h.peers[id])
	defer cl.Close()
	// The sweep must still be producing when the kill lands: a small
	// sweep finishes (and buffers every frame in the socket) before the
	// client has even processed die 3, and the "mid-stream" kill
	// degrades to a clean completion. 20k dies is hundreds of
	// milliseconds of production against microseconds to the kill.
	seen := 0
	_, err := cl.YieldSweep(ctx, nanoxbar.TT("4:0x1be4"),
		nanoxbar.WithSeed(seed),
		nanoxbar.WithDensity(density),
		nanoxbar.WithChips(20000),
		nanoxbar.WithMaxAttempts(maxAttempts),
		nanoxbar.OnDie(func(nanoxbar.Die) {
			if seen++; seen == 3 {
				h.kill(id)
			}
		}))
	h.observeKillStream(err)
}

// observeKillStream classifies the kill-victim stream's outcome. A
// clean completion means the sweep outran the kill; the node still
// died under load.
func (h *harness) observeKillStream(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case err == nil:
	case errors.Is(err, nanoxbar.ErrUnavailable), errors.Is(err, nanoxbar.ErrCanceled):
		h.killTyped++
	default:
		h.killErrs = append(h.killErrs, err.Error())
	}
}

// runChaos is the kill/restart schedule: kill the victim mid-stream at
// ~40% of the soak, restart it under load at ~70%.
func (h *harness) runChaos(ctx context.Context, cfg soakConfig) {
	select {
	case <-ctx.Done():
		return
	case <-time.After(cfg.duration * 2 / 5):
	}
	h.killMidSweep(ctx, victim, cfg.seed)
	select {
	case <-ctx.Done():
		return
	case <-time.After(cfg.duration * 3 / 10):
	}
	if err := h.restart(ctx, victim); err != nil {
		h.mu.Lock()
		h.restartErr = err.Error()
		h.mu.Unlock()
	}
}

// statusSum adds the routing/fill counters across the live nodes.
func (h *harness) statusSum() cluster.Status {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum cluster.Status
	for _, m := range h.members {
		st := m.node.Status()
		sum.PeerFillHits += st.PeerFillHits
		sum.PeerFillMisses += st.PeerFillMisses
		sum.Forwards += st.Forwards
		sum.Failovers += st.Failovers
		sum.LocalDegrades += st.LocalDegrades
	}
	return sum
}

// printChronology reports the kill/restart schedule and the routing
// counters summed across the live nodes. A failed restart is the
// verdict's to report.
func (h *harness) printChronology(w io.Writer) {
	st := h.statusSum()
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(w,
		"xbarload: cluster: %d kill(s) %d restart(s), victim stream %d typed / %d untyped; forwards %d (failovers %d), fills %d hit / %d miss, local degrades %d\n",
		h.kills, h.restarts, h.killTyped, len(h.killErrs),
		st.Forwards, st.Failovers, st.PeerFillHits, st.PeerFillMisses, st.LocalDegrades)
	switch {
	case h.restartErr != "":
	case h.warmErr != "":
		fmt.Fprintf(w, "xbarload: cluster: warm start degraded (cold restart): %s\n", h.warmErr)
	case h.restarts > 0:
		fmt.Fprintf(w, "xbarload: cluster: %s warm-started with %d entries from %s\n", nodeID(victim), h.warmEntries, h.warmFrom)
	}
}

// close drains every live node gracefully; a cluster node leaves first
// so peers probing the drain see an intentional departure.
func (h *harness) close() {
	h.mu.Lock()
	members := h.members
	h.members = make(map[string]*member)
	h.mu.Unlock()
	for _, m := range members {
		if m.node != nil {
			m.node.Leave()
			m.cancel()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		m.srv.Shutdown(ctx)
		cancel()
		m.eng.Close()
	}
}
