// Package client is the HTTP implementation of the nanoxbar.API
// interface: a typed Go client for the v2 streaming protocol served by
// cmd/xbarserverd. It is interchangeable with the in-process
// nanoxbar.Client — same methods, same typed results, same error
// taxonomy (errors.Is(err, nanoxbar.ErrInfeasible) holds even though
// the error crossed an HTTP boundary), and the same per-die streaming:
// OnDie observers fire as NDJSON events arrive.
//
//	cl := client.New("http://localhost:8080")
//	defer cl.Close()
//	stats, err := cl.YieldSweep(ctx, nanoxbar.Func("maj5"),
//	    nanoxbar.WithChips(1000), nanoxbar.WithDensity(0.05),
//	    nanoxbar.OnDie(func(d nanoxbar.Die) { ... }))
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"nanoxbar/pkg/nanoxbar"
)

// maxEventBytes bounds one NDJSON line from the server; result events
// carrying explicit mappings stay far below this. The reader starts
// from bufio's default 4 KiB buffer and grows only for longer lines,
// so a round trip pays for the lines it actually reads.
const maxEventBytes = 16 << 20

// maxErrorBodyBytes bounds the read of a non-200 body. The server's
// error bodies are a few hundred bytes; a body that runs past the bound
// without ending its JSON value answers as one that is not that shape.
const maxErrorBodyBytes = 64 << 10

// Client speaks the v2 streaming HTTP API. It is safe for concurrent
// use; requests share the underlying http.Client's connection pool.
type Client struct {
	base string
	hc   *http.Client
	// ownsTransport marks the default transport built by New: Close
	// may tear down its pool. A caller-supplied http.Client is never
	// closed — the caller owns its connection pool.
	ownsTransport bool
	// res holds the opt-in retry/breaker machinery (resilience.go);
	// nil means every call maps to exactly one HTTP exchange.
	res *resilienceState
}

var _ nanoxbar.API = (*Client)(nil)

// Option configures the client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, TLS, test
// doubles). The caller keeps ownership: Close will not drop the
// supplied client's idle connections.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		c.hc = hc
		c.ownsTransport = false
	}
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080"). By default it gets its own clone of the
// standard transport, so Close cannot disturb connections pooled by
// unrelated users of http.DefaultClient.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/")}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		c.hc = &http.Client{Transport: t.Clone()}
		c.ownsTransport = true
	} else {
		c.hc = http.DefaultClient
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Close releases the client's own idle connections (a no-op for a
// caller-supplied http.Client). The client is unusable afterwards only
// by convention — it exists to satisfy nanoxbar.API.
func (c *Client) Close() error {
	if c.ownsTransport {
		c.hc.CloseIdleConnections()
	}
	return nil
}

// Synthesize implements f on the requested technology via the remote
// engine's shared synthesis cache.
func (c *Client) Synthesize(ctx context.Context, f nanoxbar.FunctionSpec, opts ...nanoxbar.Option) (*nanoxbar.Synthesis, error) {
	res, err := c.do(ctx, nanoxbar.KindSynthesize, f, opts)
	if err != nil {
		return nil, err
	}
	return res.Synthesis, nil
}

// Compare synthesizes f on all three technologies.
func (c *Client) Compare(ctx context.Context, f nanoxbar.FunctionSpec, opts ...nanoxbar.Option) (*nanoxbar.Comparison, error) {
	res, err := c.do(ctx, nanoxbar.KindCompare, f, opts)
	if err != nil {
		return nil, err
	}
	return res.Compare, nil
}

// Map places the synthesized implementation on one defective chip.
func (c *Client) Map(ctx context.Context, f nanoxbar.FunctionSpec, opts ...nanoxbar.Option) (*nanoxbar.MapOutcome, error) {
	res, err := c.do(ctx, nanoxbar.KindMap, f, opts)
	if err != nil {
		return nil, err
	}
	return res.Map, nil
}

// YieldSweep maps f onto many random dies, streaming per-die outcomes
// to the OnDie observer as NDJSON events arrive.
func (c *Client) YieldSweep(ctx context.Context, f nanoxbar.FunctionSpec, opts ...nanoxbar.Option) (*nanoxbar.YieldStats, error) {
	res, err := c.do(ctx, nanoxbar.KindYield, f, opts)
	if err != nil {
		return nil, err
	}
	return res.Yield, nil
}

// do runs one request through POST /v2/jobs and resolves its single
// result from the event stream.
func (c *Client) do(ctx context.Context, kind nanoxbar.Kind, f nanoxbar.FunctionSpec, opts []nanoxbar.Option) (nanoxbar.Result, error) {
	req, onDie := nanoxbar.BuildRequest(kind, f, opts...)
	var res nanoxbar.Result
	var resErr error
	resolved := false
	err := c.Jobs(ctx, nanoxbar.JobsRequest{
		Requests:   []nanoxbar.Request{req},
		StreamDies: onDie != nil,
	}, func(ev nanoxbar.Event) {
		switch ev.Type {
		case nanoxbar.EventDie:
			if onDie != nil {
				onDie(nanoxbar.Die{Index: ev.Die, Map: ev.DieMap, Err: ev.DieError.Err()})
			}
		case nanoxbar.EventResult:
			if ev.Result != nil {
				res = *ev.Result
				resolved = true
			}
		case nanoxbar.EventError:
			resErr = ev.Error.Err()
			resolved = true
		}
	})
	if err != nil {
		return res, err
	}
	if resErr != nil {
		return res, resErr
	}
	if !resolved {
		// A protocol violation (done with no result/error event for the
		// request) must not surface as a nil-payload success.
		return res, nanoxbar.ErrorFromCode(nanoxbar.CodeInternal, "client: stream completed without a result for the request")
	}
	return res, res.TypedErr()
}

// Jobs submits a batch to POST /v2/jobs, invoking handle for every
// stream event in arrival order (completion order server-side). It
// returns when the terminating "done" event has been consumed, the
// context is canceled, or the stream fails. Request-level failures are
// delivered as EventError events, not as a Jobs error.
//
// With WithResilience, a submission that fails before any event was
// delivered to handle is retried (the server observed at most a request
// it never answered); once events have flowed, failures surface
// directly — the client cannot replay half-consumed streams.
func (c *Client) Jobs(ctx context.Context, jobs nanoxbar.JobsRequest, handle func(nanoxbar.Event)) error {
	payload, err := json.Marshal(jobs)
	if err != nil {
		return nanoxbar.ErrorFromCode(nanoxbar.CodeBadSpec, err.Error())
	}
	return c.withResilience(ctx, func(ctx context.Context) (bool, error) {
		delivered := false
		err := c.jobsOnce(ctx, payload, func(ev nanoxbar.Event) {
			delivered = true
			handle(ev)
		})
		return delivered, err
	})
}

// jobsOnce is one POST /v2/jobs exchange: submit, then pump the NDJSON
// stream into handle until the done event.
func (c *Client) jobsOnce(ctx context.Context, payload []byte, handle func(nanoxbar.Event)) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/jobs", bytes.NewReader(payload))
	if err != nil {
		return nanoxbar.ErrorFromCode(nanoxbar.CodeInternal, err.Error())
	}
	httpReq.Header.Set("Content-Type", "application/json")
	setRequestID(httpReq)
	setDeadlineHeader(httpReq)
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return c.transportErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c.decodeErrorBody(resp)
	}

	var dec eventDecoder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, maxEventBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := dec.decodeEvent(line)
		if err != nil {
			// A canceled read surfaces as a truncated final line —
			// the scanner hands back the partial data at stream end.
			// Any other partial line means the connection died
			// mid-frame: the unavailable class.
			if cerr := ctx.Err(); cerr != nil {
				return nanoxbar.ErrorFromCode(nanoxbar.CodeCanceled, fmt.Sprintf("client: %v", cerr))
			}
			return nanoxbar.ErrorFromCode(nanoxbar.CodeUnavailable, fmt.Sprintf("client: bad stream line: %v", err))
		}
		if ev.Type == nanoxbar.EventDone {
			return nil
		}
		handle(ev)
	}
	// The stream ended without a done event: canceled mid-flight or
	// the server died.
	if err := ctx.Err(); err != nil {
		return nanoxbar.ErrorFromCode(nanoxbar.CodeCanceled, fmt.Sprintf("client: %v", err))
	}
	if err := sc.Err(); err != nil {
		return c.transportErr(ctx, err)
	}
	return nanoxbar.ErrorFromCode(nanoxbar.CodeUnavailable, "client: stream ended without done event")
}

// setRequestID forwards the request ID carried by the request context
// (nanoxbar.ContextWithRequestID) as the X-Request-ID header. The
// server echoes it on the response and its log lines; absent an ID, the
// server mints one.
func setRequestID(req *http.Request) {
	if id := nanoxbar.RequestIDFromContext(req.Context()); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
}

// transportErr classifies a transport failure: cancellation keeps its
// taxonomy identity; anything else — refused connections, resets,
// truncated streams — is the unavailable class, the signal the retry
// and circuit-breaker machinery keys on.
func (c *Client) transportErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return nanoxbar.ErrorFromCode(nanoxbar.CodeCanceled, fmt.Sprintf("client: %v", err))
	}
	return nanoxbar.ErrorFromCode(nanoxbar.CodeUnavailable, fmt.Sprintf("client: %v", err))
}

// decodeErrorBody turns a non-200 response into its typed error: the
// {"error":{code,message}} body the server writes, or ErrInternal
// naming the status when the body is not that shape within its first
// maxErrorBodyBytes. A Retry-After header (when present) rides along as
// a backoff hint for the resilience layer.
func (c *Client) decodeErrorBody(resp *http.Response) error {
	err := nanoxbar.ErrorFromCode(nanoxbar.CodeInternal,
		fmt.Sprintf("client: server status %d", resp.StatusCode))
	var er nanoxbar.ErrorResponse
	body := io.LimitReader(resp.Body, maxErrorBodyBytes)
	if json.NewDecoder(body).Decode(&er) == nil && er.Error.Code != "" {
		err = er.Error.Err()
	}
	return c.withRetryAfterHint(resp, err)
}
