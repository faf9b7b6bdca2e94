package nanoxbar

import (
	"math"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/resilience"
)

// The v2 HTTP wire protocol. One endpoint carries every request kind:
//
//	POST /v2/jobs
//	{"requests": [...], "stream_dies": true}
//
// The response is NDJSON (application/x-ndjson): one Event per line,
// in completion order, not submission order; Index ties an event back
// to its request. Every frame is flushed as it is written, except the
// batch's last result or error frame and the "done" event that always
// ends the stream, which leave together when the handler returns. A
// short response may therefore carry Content-Length instead of chunked
// encoding. Request-body failures (bad JSON, empty batch, oversized
// body) are plain JSON ErrorResponse bodies with a 4xx status instead
// of a stream.
//
// pkg/nanoxbar/client speaks this protocol; the types are exported so
// other consumers can too.

// JobsRequest is the POST /v2/jobs body.
type JobsRequest struct {
	Requests []Request `json:"requests"`
	// StreamDies additionally emits one "die" event per die of every
	// yield request, as dies complete.
	StreamDies bool `json:"stream_dies,omitempty"`
}

// Event types of the v2 NDJSON stream.
const (
	// EventResult carries the completed Result of request Index.
	EventResult = "result"
	// EventError reports the typed failure of request Index.
	EventError = "error"
	// EventDie streams one die of a yield request (StreamDies only).
	EventDie = "die"
	// EventDone terminates the stream with aggregate counts.
	EventDone = "done"
)

// Event is one NDJSON line of a /v2/jobs response.
type Event struct {
	Type  string `json:"type"`
	Index int    `json:"index,omitempty"` // request index, for result/error/die
	// RequestID is the server-assigned (or client-supplied, via the
	// X-Request-ID header) ID of the HTTP request carrying this stream;
	// identical on every frame, and the same value the server logs.
	RequestID string `json:"request_id,omitempty"`
	// Die fields (Type == EventDie). DieMap is nil when the die itself
	// failed; DieError carries that failure.
	Die      int         `json:"die,omitempty"`
	DieMap   *MapOutcome `json:"die_map,omitempty"`
	DieError *WireError  `json:"die_error,omitempty"`
	// Result (Type == EventResult).
	Result *Result `json:"result,omitempty"`
	// Error (Type == EventError).
	Error *WireError `json:"error,omitempty"`
	// Done (Type == EventDone).
	Done *JobsSummary `json:"done,omitempty"`
}

// WireError is the structured error of the v2 API: a machine-readable
// code from the taxonomy plus human-readable detail.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs carries the server's back-off hint on sheddable
	// failures (overloaded, unavailable) — the mid-stream analog of the
	// Retry-After header, which cannot be attached to an individual
	// NDJSON error frame after the 200 status has been sent.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Err reconstructs the typed error: errors.Is against the taxonomy
// sentinels holds on the result, and a retry-after hint round-trips
// into resilience.RetryAfter.
func (e *WireError) Err() error {
	if e == nil {
		return nil
	}
	err := apierr.FromCode(e.Code, e.Message)
	if e.RetryAfterMs > 0 {
		d := time.Duration(math.MaxInt64) // a hint too long for a Duration saturates
		if e.RetryAfterMs <= int64(math.MaxInt64/time.Millisecond) {
			d = time.Duration(e.RetryAfterMs) * time.Millisecond
		}
		err = resilience.WithRetryAfter(err, d)
	}
	return err
}

// WireErrorFrom projects a typed error into wire form (nil for nil),
// carrying any resilience.RetryAfter hint along.
func WireErrorFrom(err error) *WireError {
	if err == nil {
		return nil
	}
	we := &WireError{Code: apierr.CodeOf(err), Message: err.Error()}
	if d := resilience.RetryAfter(err); d > 0 {
		we.RetryAfterMs = d.Milliseconds()
	}
	return we
}

// ErrorResponse is the non-streaming v2 error body:
// {"error":{"code":"bad_spec","message":"..."}}.
type ErrorResponse struct {
	Error WireError `json:"error"`
}

// JobsSummary is the payload of the final "done" event.
type JobsSummary struct {
	Results int `json:"results"` // total requests resolved
	Errors  int `json:"errors"`  // how many failed
}
