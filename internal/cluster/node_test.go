// Integration tests for the cluster tier, wired over real loopback
// HTTP through internal/httpapi. External test package: cluster must
// not import httpapi (the dependency runs the other way), but the
// tests need both.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// swapHandler lets the httptest server start (fixing its URL) before
// the node that serves on it exists — membership URLs are needed to
// construct the nodes.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) { s.mu.Lock(); s.h = h; s.mu.Unlock() }

type testNode struct {
	id   string
	eng  *engine.Engine
	node *cluster.Node
	srv  *httptest.Server
}

// startCluster boots one in-process node per id, each a full
// engine + cluster.Node + httpapi server on a loopback listener, all
// sharing one membership map. stubs maps ids to raw handlers standing
// in for a member (no engine behind them).
func startCluster(t *testing.T, ids []string, stubs map[string]http.Handler) map[string]*testNode {
	t.Helper()
	urls := map[string]string{}
	swaps := map[string]*swapHandler{}
	srvs := map[string]*httptest.Server{}
	for _, id := range ids {
		sh := &swapHandler{}
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		swaps[id], srvs[id], urls[id] = sh, srv, srv.URL
	}
	nodes := map[string]*testNode{}
	for _, id := range ids {
		if h, ok := stubs[id]; ok {
			swaps[id].set(h)
			continue
		}
		eng := engine.New(engine.Config{Workers: 2, CacheSize: 256})
		t.Cleanup(eng.Close)
		node, err := cluster.New(eng, cluster.Config{
			NodeID: id, Advertise: urls[id], Peers: urls,
		})
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", id, err)
		}
		eng.SetPeerFill(node.PeerFill)
		swaps[id].set(httpapi.New(eng, httpapi.WithCluster(node)))
		nodes[id] = &testNode{id: id, eng: eng, node: node, srv: srvs[id]}
	}
	return nodes
}

// requestOwnedBy scans small truth-table functions for one whose cache
// key the ring assigns to owner, so tests can aim requests at a
// specific member deterministically.
func requestOwnedBy(t *testing.T, eng *engine.Engine, members []string, owner string) (engine.Request, string) {
	t.Helper()
	ring := cluster.NewRing(members, 0)
	for v := 1; v < 255; v++ {
		req := engine.Request{Kind: engine.KindSynthesize,
			Function: engine.FunctionSpec{TT: fmt.Sprintf("3:0x%02x", v)}}
		key, err := eng.KeyFor(req)
		if err != nil {
			t.Fatalf("KeyFor: %v", err)
		}
		if o, _ := ring.Owner(key); o == owner {
			return req, key
		}
	}
	t.Fatalf("no 3-var function key owned by %s", owner)
	return engine.Request{}, ""
}

// postJob submits reqs to url's /v2/jobs and returns the stream's
// result and error frames by request index plus its done summary. Each
// index must resolve exactly once, before the done frame.
func postJob(t *testing.T, url string, reqs ...engine.Request) ([]nanoxbar.Event, nanoxbar.JobsSummary) {
	t.Helper()
	body, err := json.Marshal(nanoxbar.JobsRequest{Requests: reqs})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v2/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v2/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v2/jobs: HTTP %d", resp.StatusCode)
	}
	out := make([]nanoxbar.Event, len(reqs))
	for dec := json.NewDecoder(resp.Body); ; {
		var ev nanoxbar.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended before done: %v", err)
		}
		switch ev.Type {
		case nanoxbar.EventResult, nanoxbar.EventError:
			if out[ev.Index].Type != "" {
				t.Fatalf("request %d resolved twice", ev.Index)
			}
			out[ev.Index] = ev
		case nanoxbar.EventDone:
			for i, ev := range out {
				if ev.Type == "" {
					t.Fatalf("request %d never resolved", i)
				}
			}
			return out, *ev.Done
		}
	}
}

// postSynthesize submits one synthesis request as a /v2/jobs job and
// returns its result or error frame.
func postSynthesize(t *testing.T, url string, req engine.Request) nanoxbar.Event {
	t.Helper()
	evs, _ := postJob(t, url, req)
	return evs[0]
}

// TestPeerFillHit: a cold node whose key is owned by a warm sibling
// fills from that sibling's cache instead of synthesizing.
func TestPeerFillHit(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	if res := nodes["b"].eng.DoCtx(context.Background(), req); !res.Ok() {
		t.Fatalf("warm b: %v", res.Err)
	}
	synthB := nodes["b"].eng.Stats().SynthCalls

	if res := nodes["a"].eng.DoCtx(context.Background(), req); !res.Ok() {
		t.Fatalf("a.DoCtx: %v", res.Err)
	}
	st := nodes["a"].node.Status()
	if st.PeerFillHits != 1 || st.PeerFillMisses != 0 {
		t.Fatalf("a fill hits/misses = %d/%d, want 1/0", st.PeerFillHits, st.PeerFillMisses)
	}
	if got := nodes["a"].eng.Stats().SynthCalls; got != 0 {
		t.Fatalf("a synthesized %d times despite peer fill", got)
	}
	if got := nodes["b"].eng.Stats().SynthCalls; got != synthB {
		t.Fatalf("fill triggered synthesis on b: %d -> %d", synthB, got)
	}
	// The filled entry is cached: a second local call is a plain hit,
	// no second fill round-trip.
	nodes["a"].eng.DoCtx(context.Background(), req)
	if st := nodes["a"].node.Status(); st.PeerFillHits != 1 {
		t.Fatalf("second call re-filled: hits = %d", st.PeerFillHits)
	}
}

// TestPeerFillMiss: a cold owner answers 204, and the asker falls
// through to local synthesis — a miss can only make the cold path
// slower, never fail it.
func TestPeerFillMiss(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	if res := nodes["a"].eng.DoCtx(context.Background(), req); !res.Ok() {
		t.Fatalf("a.DoCtx: %v", res.Err)
	}
	st := nodes["a"].node.Status()
	if st.PeerFillMisses != 1 || st.PeerFillHits != 0 {
		t.Fatalf("a fill hits/misses = %d/%d, want 0/1", st.PeerFillHits, st.PeerFillMisses)
	}
	if got := nodes["a"].eng.Stats().SynthCalls; got != 1 {
		t.Fatalf("a SynthCalls = %d, want 1 (local fallback)", got)
	}

	// A fill without a key is a structured 400.
	resp, err := http.Get(nodes["b"].srv.URL + cluster.FillPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er nanoxbar.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil ||
		resp.StatusCode != http.StatusBadRequest || er.Error.Code != nanoxbar.CodeBadSpec {
		t.Fatalf("keyless fill: HTTP %d, body %+v (err %v)", resp.StatusCode, er, err)
	}
}

// TestForwardToOwner: a synthesis POSTed to a non-owner is proxied to
// the owner, which computes it; the receiving node does no local work.
func TestForwardToOwner(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	if ev := postSynthesize(t, nodes["a"].srv.URL, req); ev.Result == nil || ev.Result.Synthesis == nil {
		t.Fatalf("forwarded request: %+v", ev)
	}
	if st := nodes["a"].node.Status(); st.Forwards != 1 || st.Failovers != 0 {
		t.Fatalf("a forwards/failovers = %d/%d, want 1/0", st.Forwards, st.Failovers)
	}
	if got := nodes["a"].eng.Stats().SynthCalls; got != 0 {
		t.Fatalf("a synthesized a forwarded request: SynthCalls = %d", got)
	}
	if got := nodes["b"].eng.Stats().SynthCalls; got != 1 {
		t.Fatalf("b SynthCalls = %d, want 1", got)
	}
}

// TestForwardFailover: with the owner down (and not yet detected), the
// ladder falls over to the fallback replica, which serves the request
// locally under the forwarded marker.
func TestForwardFailover(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b", "c"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b", "c"}, "b")

	nodes["b"].srv.Close() // abrupt kill; a's detector still believes b alive

	if ev := postSynthesize(t, nodes["a"].srv.URL, req); ev.Result == nil || ev.Result.Synthesis == nil {
		t.Fatalf("failover request: %+v", ev)
	}
	st := nodes["a"].node.Status()
	if st.Failovers != 1 {
		t.Fatalf("a failovers = %d, want 1", st.Failovers)
	}
	// Exactly one of {a local, c} computed it — never b, never both.
	synthA := nodes["a"].eng.Stats().SynthCalls
	synthC := nodes["c"].eng.Stats().SynthCalls
	if synthA+synthC != 1 {
		t.Fatalf("synth calls a=%d c=%d, want exactly one total", synthA, synthC)
	}
}

// TestLocalDegrade: every remote target dead means the node serves the
// request itself — a typed, successful, counted degrade; the client
// never sees a transport error.
func TestLocalDegrade(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	nodes["b"].srv.Close()

	if ev := postSynthesize(t, nodes["a"].srv.URL, req); ev.Result == nil || ev.Result.Synthesis == nil {
		t.Fatalf("degraded request: %+v", ev)
	}
	st := nodes["a"].node.Status()
	if st.LocalDegrades != 1 || st.Forwards != 0 {
		t.Fatalf("a degrades/forwards = %d/%d, want 1/0", st.LocalDegrades, st.Forwards)
	}
	// PeerFill also fails against the dead owner, so local synthesis ran.
	if got := nodes["a"].eng.Stats().SynthCalls; got != 1 {
		t.Fatalf("a SynthCalls = %d, want 1", got)
	}
}

// jobsStub stands in for a member whose /v2/jobs answers every job
// with the given frame followed by done, recording the marker header
// of the last job it saw.
func jobsStub(frame string, marker *atomic.Value) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/jobs" {
			http.NotFound(w, r)
			return
		}
		marker.Store(r.Header.Get(cluster.ForwardedHeader))
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, frame)
		fmt.Fprintln(w, `{"type":"done","done":{"results":1,"errors":1}}`)
	})
}

// TestForwardDomainErrorPassesThrough: a domain error frame from the
// owner is the answer, not a failure — it must come back typed with the
// owner's code, without tripping the failover ladder.
func TestForwardDomainErrorPassesThrough(t *testing.T) {
	var marker atomic.Value
	stub := jobsStub(`{"type":"error","error":{"code":"infeasible","message":"core: no feasible implementation"}}`, &marker)
	nodes := startCluster(t, []string{"a", "z"}, map[string]http.Handler{"z": stub})
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "z"}, "z")

	ev := postSynthesize(t, nodes["a"].srv.URL, req)
	if ev.Type != nanoxbar.EventError || ev.Error.Code != "infeasible" ||
		ev.Error.Message != "core: no feasible implementation" {
		t.Fatalf("frame = %+v, want the owner's infeasible error", ev)
	}
	if got := marker.Load(); got != "a" {
		t.Fatalf("forward carried %s = %q, want the sender's id", cluster.ForwardedHeader, got)
	}
	st := nodes["a"].node.Status()
	if st.Forwards != 1 || st.Failovers != 0 || st.LocalDegrades != 0 {
		t.Fatalf("forwards/failovers/degrades = %d/%d/%d, want 1/0/0",
			st.Forwards, st.Failovers, st.LocalDegrades)
	}
	if got := nodes["a"].eng.Stats().SynthCalls; got != 0 {
		t.Fatalf("domain error retried locally: SynthCalls = %d", got)
	}
}

// TestForwardOverloadedOwnerEndsLadder: an owner that sheds the
// forwarded job with an overloaded error frame has answered. The frame
// reaches the client with the owner's retry hint, and neither the
// replica nor the local node admits the request again.
func TestForwardOverloadedOwnerEndsLadder(t *testing.T) {
	var marker atomic.Value
	stub := jobsStub(`{"type":"error","error":{"code":"overloaded","message":"engine: queue saturated","retry_after_ms":1000}}`, &marker)
	members := []string{"a", "c", "z"}
	nodes := startCluster(t, members, map[string]http.Handler{"z": stub})
	req, _ := requestOwnedBy(t, nodes["a"].eng, members, "z")

	cl := client.New(nodes["a"].srv.URL)
	t.Cleanup(func() { cl.Close() })
	_, err := cl.Synthesize(context.Background(), req.Function)
	if !errors.Is(err, nanoxbar.ErrOverloaded) {
		t.Fatalf("request behind an overloaded owner: %v, want ErrOverloaded", err)
	}
	if got := resilience.RetryAfter(err); got != time.Second {
		t.Fatalf("retry hint = %v, want the owner's 1s", got)
	}
	if marker.Load() == nil {
		t.Fatal("the overloaded owner never saw the forward")
	}
	st := nodes["a"].node.Status()
	if st.Forwards != 1 || st.Failovers != 0 || st.LocalDegrades != 0 {
		t.Fatalf("forwards/failovers/degrades = %d/%d/%d, want 1/0/0",
			st.Forwards, st.Failovers, st.LocalDegrades)
	}
	if a, c := nodes["a"].eng.Stats().SynthCalls, nodes["c"].eng.Stats().SynthCalls; a != 0 || c != 0 {
		t.Fatalf("synth calls a=%d c=%d, want none: the owner's shed is the answer", a, c)
	}
}

// TestForwardUnavailableOwnerFailsOver: an owner that answers the
// forwarded job with an unavailable error frame cannot serve it. The
// ladder falls over to the replica, and the client never sees the
// failure.
func TestForwardUnavailableOwnerFailsOver(t *testing.T) {
	var marker atomic.Value
	stub := jobsStub(`{"type":"error","error":{"code":"unavailable","message":"engine: closed"}}`, &marker)
	members := []string{"a", "c", "z"}
	nodes := startCluster(t, members, map[string]http.Handler{"z": stub})
	req, _ := requestOwnedBy(t, nodes["a"].eng, members, "z")

	if ev := postSynthesize(t, nodes["a"].srv.URL, req); ev.Result == nil || ev.Result.Synthesis == nil {
		t.Fatalf("request behind an unavailable owner: %+v", ev)
	}
	if marker.Load() == nil {
		t.Fatal("the unavailable owner never saw the forward")
	}
	st := nodes["a"].node.Status()
	if st.Forwards != 1 || st.Failovers != 1 || st.LocalDegrades != 0 {
		t.Fatalf("forwards/failovers/degrades = %d/%d/%d, want 1/1/0",
			st.Forwards, st.Failovers, st.LocalDegrades)
	}
	if a, c := nodes["a"].eng.Stats().SynthCalls, nodes["c"].eng.Stats().SynthCalls; a != 0 || c != 1 {
		t.Fatalf("synth calls a=%d c=%d, want the replica c alone", a, c)
	}
}

// TestForwardInJobsBatch: inside one /v2/jobs batch, the peer-owned
// synthesis is forwarded while the map requests run locally; every
// index resolves once under its original position.
func TestForwardInJobsBatch(t *testing.T) {
	members := []string{"a", "b"}
	nodes := startCluster(t, members, nil)
	synth, key := requestOwnedBy(t, nodes["a"].eng, members, "b")
	local, _ := requestOwnedBy(t, nodes["a"].eng, members, "a")
	mapReq := func(seed int64) engine.Request {
		return engine.Request{Kind: engine.KindMap, Function: local.Function, Density: 0.05, Seed: seed}
	}
	synthB := nodes["b"].eng.Stats().SynthCalls

	evs, done := postJob(t, nodes["a"].srv.URL, mapReq(1), synth, mapReq(2))
	if done.Results != 3 || done.Errors != 0 {
		t.Fatalf("done = %+v, want 3 results and no errors", done)
	}
	if r := evs[1].Result; r == nil || r.Synthesis == nil {
		t.Fatalf("index 1 is not the synthesis: %+v", evs[1])
	}
	for _, i := range []int{0, 2} {
		if r := evs[i].Result; r == nil || r.Map == nil {
			t.Fatalf("index %d is not a map: %+v", i, evs[i])
		}
	}
	if st := nodes["a"].node.Status(); st.Forwards != 1 || st.Failovers != 0 || st.LocalDegrades != 0 {
		t.Fatalf("forwards/failovers/degrades = %d/%d/%d, want 1/0/0",
			st.Forwards, st.Failovers, st.LocalDegrades)
	}
	if got := nodes["b"].eng.Stats().SynthCalls; got != synthB+1 {
		t.Fatalf("owner SynthCalls %d -> %d, want one more", synthB, got)
	}
	if _, ok := nodes["b"].eng.PeekCached(key); !ok {
		t.Fatal("the owner's one synthesis is not the forwarded key")
	}
}

// TestLeavingStopsRouting: a draining node serves everything locally —
// no forwards, no fills — so the drain window never depends on peers.
func TestLeavingStopsRouting(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	req, _ := requestOwnedBy(t, nodes["a"].eng, []string{"a", "b"}, "b")

	nodes["a"].node.Leave()
	if res, handled := nodes["a"].node.RouteSynthesize(context.Background(), req); handled {
		t.Fatalf("leaving node still forwarded: %+v", res)
	}
	if imp := nodes["a"].node.PeerFill(context.Background(), "any-key"); imp != nil {
		t.Fatal("leaving node still peer-filled")
	}
	st := nodes["a"].node.Status()
	if !st.Leaving || st.Forwards != 0 || st.PeerFillHits != 0 || st.PeerFillMisses != 0 {
		t.Fatalf("leaving status = %+v", st)
	}
}

// TestWarmStartFromPeer is the restart acceptance path: a node with no
// local snapshot file streams a sibling's cache and then answers the
// sibling's whole workload from cache — zero synthesis calls, 100%
// hit-rate (the criterion asks ≥90%).
func TestWarmStartFromPeer(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)

	const batch = 20
	reqs := make([]engine.Request, batch)
	for i := range reqs {
		reqs[i] = engine.Request{Kind: engine.KindSynthesize,
			Function: engine.FunctionSpec{TT: fmt.Sprintf("3:0x%02x", i+1)}}
	}
	for i, res := range submitBatch(nodes["a"].eng, reqs) {
		if !res.Ok() {
			t.Fatalf("warm a req %d: %v", i, res.Err)
		}
	}
	wantEntries := nodes["a"].eng.Stats().CacheEntries
	if wantEntries == 0 {
		t.Fatal("test vacuous: a cached nothing")
	}

	n, from, err := nodes["b"].node.WarmStart(context.Background())
	if err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	if from != "a" || n != wantEntries {
		t.Fatalf("WarmStart = %d entries from %q, want %d from a", n, from, wantEntries)
	}

	for i, res := range submitBatch(nodes["b"].eng, reqs) {
		if !res.Ok() {
			t.Fatalf("replay req %d on b: %v", i, res.Err)
		}
	}
	st := nodes["b"].eng.Stats()
	if st.SynthCalls != 0 {
		t.Fatalf("warm-started b synthesized %d times, want 0", st.SynthCalls)
	}
	if st.CacheHits < batch {
		t.Fatalf("warm-started b cache hits = %d, want ≥ %d (≥90%% criterion)", st.CacheHits, batch)
	}
}

// TestHealthzCarriesClusterBlock: the heartbeat payload peers probe is
// /healthz; its cluster block must carry the node id and the leaving
// flag the drain path flips.
func TestHealthzCarriesClusterBlock(t *testing.T) {
	nodes := startCluster(t, []string{"a", "b"}, nil)
	var health struct {
		Cluster *cluster.Status `json:"cluster"`
	}
	get := func() {
		t.Helper()
		resp, err := http.Get(nodes["a"].srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
	}
	get()
	if health.Cluster == nil || health.Cluster.NodeID != "a" || health.Cluster.Leaving {
		t.Fatalf("healthz cluster block = %+v", health.Cluster)
	}
	if health.Cluster.RingMembers != 2 {
		t.Fatalf("ring members = %d, want 2", health.Cluster.RingMembers)
	}
	nodes["a"].node.Leave()
	get()
	if !health.Cluster.Leaving {
		t.Fatal("leaving=true not surfaced on /healthz after Leave")
	}
}
