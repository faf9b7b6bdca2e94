// Client-side resilience: opt-in retries with exponential backoff and a
// per-endpoint circuit breaker. Off by default — the base client fails
// fast exactly as before — and deterministic under test: the clock is
// injectable.
package client

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
)

// ResilienceConfig tunes WithResilience. The zero value gets the
// resilience package defaults: 3 attempts, 50ms base backoff doubling
// to 2s. Every endpoint has a circuit breaker that opens after 5
// consecutive unavailable-class failures (server unreachable, 503) and
// probes again after a 1s cooldown; an overloaded server shedding load
// is alive and does not trip it.
type ResilienceConfig struct {
	// Retry shapes the backoff schedule for retryable failures
	// (overloaded and unavailable-class errors on idempotent calls).
	Retry resilience.RetryPolicy
	// Clock substitutes the time source; nil uses the wall clock.
	Clock resilience.Clock
}

// WithResilience enables retries and circuit breaking on the client.
func WithResilience(cfg ResilienceConfig) Option {
	return func(c *Client) {
		clock := cfg.Clock
		if clock == nil {
			clock = resilience.Wall()
		}
		c.res = &resilienceState{
			clock:    clock,
			retrier:  resilience.NewRetrier(cfg.Retry, clock),
			breakers: make(map[string]*resilience.Breaker),
		}
	}
}

// ResilienceStats snapshots the client's retry and breaker counters —
// the numbers `xbarload -chaos` prints after its soak.
type ResilienceStats struct {
	Retry    resilience.RetryStats
	Breakers map[string]resilience.BreakerStats // by endpoint path
}

// ResilienceStats reports the client's resilience counters; ok is false
// when WithResilience was not configured.
func (c *Client) ResilienceStats() (ResilienceStats, bool) {
	if c.res == nil {
		return ResilienceStats{}, false
	}
	st := ResilienceStats{Retry: c.res.retrier.Stats(), Breakers: map[string]resilience.BreakerStats{}}
	c.res.mu.Lock()
	for path, b := range c.res.breakers {
		st.Breakers[path] = b.Stats()
	}
	c.res.mu.Unlock()
	return st, true
}

// resilienceState is the per-client retry/breaker machinery.
type resilienceState struct {
	clock   resilience.Clock
	retrier *resilience.Retrier

	mu       sync.Mutex
	breakers map[string]*resilience.Breaker
}

// breaker returns the endpoint's circuit, creating it closed on first
// use.
func (rs *resilienceState) breaker(path string) *resilience.Breaker {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	b := rs.breakers[path]
	if b == nil {
		b = resilience.NewBreaker(rs.clock)
		rs.breakers[path] = b
	}
	return b
}

// retryable reports whether a failure class is worth retrying: the
// server shedding load (it told us when to come back) or being
// unreachable (the next attempt may hit a recovered process). Bad
// requests, infeasible functions, cancellations, and internal errors
// are not — the retry would fail identically or mask a bug.
func retryable(err error) bool {
	return errors.Is(err, nanoxbar.ErrOverloaded) || errors.Is(err, nanoxbar.ErrUnavailable)
}

// breakerFailure reports whether a failure should count toward opening
// the circuit: only unavailable-class errors, where the server (or the
// path to it) is actually down.
func breakerFailure(err error) bool {
	return errors.Is(err, nanoxbar.ErrUnavailable)
}

// withResilience runs op under the client's retry/breaker machinery.
// Disabled (res == nil), it calls op once, unchanged. op receives the
// attempt number and reports via its return; committed reports whether
// the attempt observably delivered data to the caller (events handed to
// a stream handler), which makes the call non-replayable — a failure
// after commitment aborts instead of retrying.
func (c *Client) withResilience(ctx context.Context, path string, op func(ctx context.Context) (committed bool, err error)) error {
	if c.res == nil {
		_, err := op(ctx)
		return err
	}
	br := c.res.breaker(path)
	return c.res.retrier.Do(ctx, func(ctx context.Context, _ int) error {
		if err := br.Allow(); err != nil {
			// Open circuit: fail fast and typed; retrying inside this
			// Do would just burn the backoff against a fenced endpoint.
			return resilience.Abort(nanoxbar.ErrorFromCode(nanoxbar.CodeUnavailable,
				"client: circuit open for "+path))
		}
		committed, err := op(ctx)
		br.Report(err == nil || !breakerFailure(err))
		if err == nil {
			return nil
		}
		if committed || !retryable(err) {
			return resilience.Abort(err)
		}
		return err
	})
}

// setDeadlineHeader forwards the context's remaining budget as
// X-Deadline-Ms so the server can shed or degrade work the client will
// not wait for anyway. The budget rounds up, so the server's deadline
// never falls before the client's: a request the server cancels in its
// queue is one the client has already given up on.
func setDeadlineHeader(req *http.Request) {
	if d, ok := req.Context().Deadline(); ok {
		ms := (time.Until(d) + time.Millisecond - 1).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
	}
}

// retryAfterHint parses a Retry-After header value per RFC 9110
// §10.2.3, which allows two shapes: delta-seconds ("3") and an
// HTTP-date ("Fri, 08 Aug 2026 01:02:03 GMT" — also the obsolete
// RFC 850 and asctime forms, via http.ParseTime). now anchors the date
// form; a date at or before now, like a non-positive delta, yields no
// hint, and a delta too long for a Duration yields the longest one. The
// hint feeds the retrier's hint-as-floor logic: it can only lengthen a
// backoff sleep, never shorten one.
func retryAfterHint(value string, now time.Time) time.Duration {
	// ParseInt saturates an out-of-range delta at MaxInt64 (or MinInt64)
	// and says so with ErrRange.
	if n, err := strconv.ParseInt(value, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case n <= 0:
			return 0
		case n > int64(math.MaxInt64/time.Second):
			return math.MaxInt64
		}
		return time.Duration(n) * time.Second
	}
	t, err := http.ParseTime(value)
	if err != nil {
		return 0
	}
	if d := t.Sub(now); d > 0 {
		return d
	}
	return 0
}

// now reads the client's time source: the injected resilience clock
// when resilience is configured (tests pin it with resilience.Fake),
// the wall clock otherwise.
func (c *Client) now() time.Time {
	if c.res != nil {
		return c.res.clock.Now()
	}
	return resilience.Wall().Now()
}

// withRetryAfterHint attaches the response's Retry-After header to err
// so the retrier sleeps at least as long as the server asked.
func (c *Client) withRetryAfterHint(resp *http.Response, err error) error {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if d := retryAfterHint(s, c.now()); d > 0 {
			return resilience.WithRetryAfter(err, d)
		}
	}
	return err
}
