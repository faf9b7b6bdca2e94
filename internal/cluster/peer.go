package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/cachestore"
	"nanoxbar/internal/core"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
)

// errFillMiss marks a clean 204 from a peer: the peer is healthy, it
// just doesn't have the key. Distinguished from transport failure so
// the breaker records a success and the retrier stops immediately.
var errFillMiss = errors.New("cluster: peer fill miss")

// maxFillBody bounds one shipped cache entry. Implementations are a
// few KB of lattice cells; 16MB matches the HTTP layer's body cap.
const maxFillBody = 16 << 20

// WriteFill encodes the locally cached implementation for key as a
// one-entry cachestore snapshot, the same structural wire format the
// disk persistence uses. ok=false means the key is not in the local
// cache (the HTTP layer answers 204).
func WriteFill(eng *engine.Engine, w io.Writer, key string) (ok bool, err error) {
	imp, ok := eng.PeekCached(key)
	if !ok {
		return false, nil
	}
	return true, cachestore.Write(w, core.Fingerprint(), []cachestore.Entry{{Key: key, Imp: imp}})
}

// readFill decodes a one-entry fill response body.
func readFill(r io.Reader, key string) (*core.Implementation, error) {
	_, entries, err := cachestore.Read(io.LimitReader(r, maxFillBody), core.Fingerprint())
	if err != nil {
		return nil, err
	}
	if len(entries) != 1 || entries[0].Key != key || entries[0].Imp == nil {
		return nil, fmt.Errorf("cluster: fill response does not carry key %.16s…", key)
	}
	return entries[0].Imp, nil
}

// fillFrom asks one peer for key's cached implementation, guarded by
// that peer's fill breaker and the node retry policy. nil on any miss
// or failure.
func (n *Node) fillFrom(ctx context.Context, p *peerState, key string) *core.Implementation {
	fctx, cancel := context.WithTimeout(ctx, fillTimeout)
	defer cancel()
	var imp *core.Implementation
	err := n.retrier.Do(fctx, func(ctx context.Context, _ int) error {
		if err := p.fill.Allow(); err != nil {
			return resilience.Abort(err)
		}
		got, err := n.fillOnce(ctx, p, key)
		if errors.Is(err, errFillMiss) {
			p.fill.Report(true)
			return resilience.Abort(err)
		}
		p.fill.Report(err == nil)
		if err != nil {
			return err
		}
		imp = got
		return nil
	})
	if err != nil {
		return nil
	}
	return imp
}

func (n *Node) fillOnce(ctx context.Context, p *peerState, key string) (*core.Implementation, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		p.url+FillPath+"?key="+url.QueryEscape(key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxFillBody))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		return readFill(resp.Body, key)
	case http.StatusNoContent:
		return nil, errFillMiss
	default:
		return nil, fmt.Errorf("cluster: peer %s fill: HTTP %d", p.id, resp.StatusCode)
	}
}

// forwardTargets resolves the forwarding ladder for key: owner then
// one fallback replica, remote and ring-live only. nil means serve
// locally (self-owned key, singleton ring, or leaving).
func (n *Node) forwardTargets(key string) []*peerState {
	if n.leaving.Load() {
		return nil
	}
	return n.fillTargets(key)
}

// RouteSynthesize routes one synthesis request by cache-key ownership.
// handled=false means the caller must serve the request locally: the
// key is self-owned, the ring is a singleton, the spec doesn't resolve
// (the local path will produce the same typed error), or every remote
// target failed — the local-degrade terminal of the ladder, counted in
// nanoxbar_cluster_local_degrades_total and never an untyped error.
func (n *Node) RouteSynthesize(ctx context.Context, req engine.Request) (res engine.Result, handled bool) {
	if req.Kind != engine.KindSynthesize {
		return engine.Result{}, false
	}
	key, err := n.eng.KeyFor(req)
	if err != nil {
		return engine.Result{}, false
	}
	targets := n.forwardTargets(key)
	if len(targets) == 0 {
		return engine.Result{}, false
	}
	for i, p := range targets {
		r, err := n.forwardTo(ctx, p, req)
		if err != nil {
			continue
		}
		n.forwards.Add(1)
		if i > 0 {
			n.failovers.Add(1)
		}
		return r, true
	}
	n.localDegrades.Add(1)
	n.logger.Warn("cluster forward degraded to local synthesis", "key", key[:min(16, len(key))])
	return engine.Result{}, false
}

// forwardTo proxies req to one peer, guarded by its forward breaker.
// A result or a typed failure other than unavailable is a successful
// forward. A domain failure (bad_spec, infeasible, canceled, internal)
// is the answer local serving would give. An overloaded frame is the
// owner shedding the request: it ends the ladder and reaches the client
// with the owner's retry_after_ms, so one shed request is not admitted
// again by the replica and then locally. Unavailability and transport
// errors are forward failures: the ladder moves on, and local
// synthesis is the backstop.
func (n *Node) forwardTo(ctx context.Context, p *peerState, req engine.Request) (engine.Result, error) {
	if err := p.forward.Allow(); err != nil {
		return engine.Result{}, err
	}
	res, err := n.forwardOnce(ctx, p, req)
	p.forward.Report(err == nil)
	return res, err
}

// forwardOnce posts req to the peer's /v2/jobs as a one-request job and
// reads the stream up to its done frame. The request's result or error
// frame is the answer, an overloaded frame with its retry hint
// included; an unavailable frame, a non-200 status, a transport
// failure, or a stream that ends without that frame or without done is
// a failure.
func (n *Node) forwardOnce(ctx context.Context, p *peerState, req engine.Request) (engine.Result, error) {
	var res engine.Result
	answered := false
	err := p.jobs.Jobs(ctx, nanoxbar.JobsRequest{Requests: []nanoxbar.Request{req}}, func(ev nanoxbar.Event) {
		switch ev.Type {
		case nanoxbar.EventResult:
			if ev.Result != nil {
				res, answered = *ev.Result, true
			}
		case nanoxbar.EventError:
			if ferr := ev.Error.Err(); ferr != nil {
				res = engine.Result{Kind: req.Kind, Error: ferr.Error(), Code: apierr.CodeOf(ferr), Err: ferr}
				answered = true
			}
		}
	})
	switch rerr := res.TypedErr(); {
	case err != nil:
		return engine.Result{}, fmt.Errorf("cluster: peer %s forward: %w", p.id, err)
	case !answered:
		return engine.Result{}, fmt.Errorf("cluster: peer %s forward: stream carried no result", p.id)
	case errors.Is(rerr, apierr.ErrUnavailable):
		return engine.Result{}, fmt.Errorf("cluster: peer %s forward: %w", p.id, rerr)
	}
	return res, nil
}

// markForwarded stamps ForwardedHeader on every request of the
// forwarding client, so the receiving node serves the job locally.
type markForwarded struct {
	id   string
	next http.RoundTripper
}

func (m markForwarded) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(ForwardedHeader, m.id)
	next := m.next
	if next == nil {
		next = http.DefaultTransport
	}
	return next.RoundTrip(r)
}

// WarmStart bootstraps the local cache from the first peer that can
// ship a snapshot, instead of from disk. It returns the entry count
// and donor id. Transfer failures are all-or-nothing: a snapshot that
// dies mid-stream fails header-count validation inside
// cachestore.Read and seeds zero entries, so the node cold-starts
// typed rather than half-loaded.
func (n *Node) WarmStart(ctx context.Context) (entries int, from string, err error) {
	var lastErr error
	for _, m := range n.det.Members() {
		p, ok := n.peers[m.ID]
		if !ok {
			continue
		}
		count, err := n.snapshotFrom(ctx, p)
		if err != nil {
			lastErr = err
			n.logger.Warn("cluster warm-start donor failed", "peer", p.id, "err", err)
			continue
		}
		return count, p.id, nil
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no peers to warm-start from")
	}
	return 0, "", lastErr
}

// snapshotFrom streams one peer's cache snapshot into the local cache.
func (n *Node) snapshotFrom(ctx context.Context, p *peerState) (int, error) {
	sctx, cancel := context.WithTimeout(ctx, snapshotTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, p.url+SnapshotPath, nil)
	if err != nil {
		return 0, err
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("cluster: peer %s snapshot: HTTP %d", p.id, resp.StatusCode)
	}
	return n.eng.ReadCacheSnapshot(resp.Body)
}
