package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrChaosDrop is the connection-level failure ChaosTransport injects:
// the request never reaches the server, as if the TCP connection was
// refused or reset. http.Client wraps it in *url.Error like any real
// transport failure.
var ErrChaosDrop = errors.New("chaos: connection dropped")

// ChaosConfig tunes a ChaosTransport. All rates are probabilities in
// [0,1] drawn independently per request from the seeded stream, so a
// given (seed, request sequence) replays the same fault schedule.
type ChaosConfig struct {
	// Seed drives every fault decision.
	Seed int64
	// DropRate is the probability of failing the request with
	// ErrChaosDrop before it is sent.
	DropRate float64
	// ErrorRate is the probability of starting a 5xx burst: the
	// request (and the next 0–2, bursts are 1–3 long) gets a
	// synthesized 503 (or occasionally 500) without reaching the
	// server.
	ErrorRate float64
	// LatencyRate is the probability of a latency spike: a sleep of
	// 1–5ms before forwarding.
	LatencyRate float64
	// TruncateRate is the probability of cutting the response body
	// short: reads stop partway with io.ErrUnexpectedEOF, as if the
	// connection died mid-stream (for NDJSON, a truncated frame).
	TruncateRate float64
	// Clock times latency spikes (nil = Wall). Tests inject a Fake so
	// a spike schedule is asserted without real sleeping.
	Clock Clock
}

// A latency spike sleeps between these bounds: long enough to reorder
// concurrent requests, short enough that a soak's clients keep their
// deadlines.
const (
	chaosLatencyMin = time.Millisecond
	chaosLatencyMax = 5 * time.Millisecond
)

// ChaosStats counts injected faults, for the soak report and telemetry
// export.
type ChaosStats struct {
	Requests    uint64 // requests seen
	Drops       uint64 // connections dropped
	Errors5xx   uint64 // synthesized 5xx responses
	Latencies   uint64 // latency spikes injected
	Truncations uint64 // response bodies truncated
}

// ChaosTransport is a fault-injecting http.RoundTripper: it wraps a
// real transport and, per seeded draws, drops connections, synthesizes
// 5xx bursts, injects latency spikes, and truncates response bodies.
// It exists so the soak driver can prove the serving stack's end-to-end
// resilience claim — every request either succeeds or fails with a
// typed error — under faults that unit tests cannot produce. Safe for
// concurrent use; concurrency does reorder which request draws which
// fault, but the fault mix is seed-stable.
type ChaosTransport struct {
	next  http.RoundTripper
	cfg   ChaosConfig
	clock Clock

	mu    sync.Mutex
	rng   *rand.Rand
	burst int // remaining synthesized-5xx responses in the current burst

	requests    atomic.Uint64
	drops       atomic.Uint64
	errors5xx   atomic.Uint64
	latencies   atomic.Uint64
	truncations atomic.Uint64
}

// NewChaosTransport wraps next (nil = http.DefaultTransport).
func NewChaosTransport(next http.RoundTripper, cfg ChaosConfig) *ChaosTransport {
	if next == nil {
		next = http.DefaultTransport
	}
	clock := cfg.Clock
	if clock == nil {
		clock = Wall()
	}
	return &ChaosTransport{next: next, cfg: cfg, clock: clock, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the injected-fault counters.
func (t *ChaosTransport) Stats() ChaosStats {
	return ChaosStats{
		Requests:    t.requests.Load(),
		Drops:       t.drops.Load(),
		Errors5xx:   t.errors5xx.Load(),
		Latencies:   t.latencies.Load(),
		Truncations: t.truncations.Load(),
	}
}

// plan draws this request's faults from the seeded stream in one
// critical section: drop, burst-5xx status (0 = none), latency, and
// truncation fraction (negative = none).
func (t *ChaosTransport) plan() (drop bool, status int, latency time.Duration, truncFrac float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.burst > 0 {
		t.burst--
		status = 503
	} else if t.cfg.ErrorRate > 0 && t.rng.Float64() < t.cfg.ErrorRate {
		t.burst = t.rng.Intn(3) // 0–2 further responses in this burst
		status = 503
		if t.rng.Float64() < 0.25 {
			status = 500
		}
	}
	if status == 0 && t.cfg.DropRate > 0 && t.rng.Float64() < t.cfg.DropRate {
		drop = true
	}
	if t.cfg.LatencyRate > 0 && t.rng.Float64() < t.cfg.LatencyRate {
		span := chaosLatencyMax - chaosLatencyMin
		latency = chaosLatencyMin + time.Duration(t.rng.Int63n(int64(span)+1))
	}
	truncFrac = -1
	if t.cfg.TruncateRate > 0 && t.rng.Float64() < t.cfg.TruncateRate {
		truncFrac = t.rng.Float64()
	}
	return drop, status, latency, truncFrac
}

// RoundTrip applies the planned faults around the wrapped transport.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	drop, status, latency, truncFrac := t.plan()

	if latency > 0 {
		t.latencies.Add(1)
		if err := t.clock.Sleep(req.Context(), latency); err != nil {
			return nil, err
		}
	}
	if status != 0 {
		t.errors5xx.Add(1)
		// Drain and close the request body as a real transport would.
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			_ = req.Body.Close()
		}
		return synth5xx(req, status), nil
	}
	if drop {
		t.drops.Add(1)
		if req.Body != nil {
			_ = req.Body.Close()
		}
		return nil, ErrChaosDrop
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil || truncFrac < 0 || resp.Body == nil {
		return resp, err
	}
	t.truncations.Add(1)
	resp.Body = &truncatingBody{rc: resp.Body, frac: truncFrac}
	return resp, nil
}

// synth5xx fabricates a server-error response with a typed wire body,
// so clients that decode error bodies still get a taxonomy code.
func synth5xx(req *http.Request, status int) *http.Response {
	code := "unavailable"
	if status == 500 {
		code = "internal"
	}
	body := fmt.Sprintf(`{"error":{"code":%q,"message":"chaos: injected %d"}}`, code, status)
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncatingBody lets a random fraction of each read window through,
// then fails with io.ErrUnexpectedEOF — the shape of a connection lost
// mid-body. The cut point is lazy (a fraction of the first 64KiB
// window) so streams of unknown length still truncate somewhere
// plausible.
type truncatingBody struct {
	rc        io.ReadCloser
	frac      float64
	allowed   int64
	resolved  bool
	delivered int64
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	if !b.resolved {
		b.allowed = int64(b.frac * float64(64<<10))
		b.resolved = true
	}
	if b.delivered >= b.allowed {
		return 0, io.ErrUnexpectedEOF
	}
	if max := b.allowed - b.delivered; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := b.rc.Read(p)
	b.delivered += int64(n)
	if err == io.EOF {
		// The body legitimately ended before the cut point; let the
		// EOF through so short responses sometimes survive truncation
		// draws — chaos, not a guaranteed kill.
		return n, err
	}
	return n, err
}

func (b *truncatingBody) Close() error { return b.rc.Close() }
