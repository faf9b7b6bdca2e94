package client_test

import (
	"context"
	"errors"
	"testing"

	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// TestConformanceShedCarriesRetryAfter: a shed request must tell the
// caller when to come back — through BOTH implementations. The
// in-process client carries the hint on the typed error itself; the
// HTTP client reconstructs it (header on non-200 bodies, RetryAfterMs
// on stream frames).
func TestConformanceShedCarriesRetryAfter(t *testing.T) {
	for name, s := range saturableImpls(t) {
		t.Run(name, func(t *testing.T) {
			stop := saturate(t, s)

			_, err := s.api.Synthesize(context.Background(), nanoxbar.TT("2:0x6"))
			if !errors.Is(err, nanoxbar.ErrOverloaded) {
				t.Fatalf("saturated synthesize: %v, want ErrOverloaded", err)
			}
			if code := nanoxbar.ErrorCode(err); code != nanoxbar.CodeOverloaded {
				t.Fatalf("wire code = %q, want %q", code, nanoxbar.CodeOverloaded)
			}
			if resilience.RetryAfter(err) <= 0 {
				t.Fatalf("shed error carried no Retry-After hint: %v", err)
			}

			stop()
		})
	}
}

// TestConformanceMidStreamShedFrame: a /v2/jobs stream is already 200
// by the time admission sheds one of its requests, so the Retry-After
// header is not available — the hint must ride the NDJSON error frame
// (WireError.RetryAfterMs) and reconstruct into a typed error with
// the hint attached.
func TestConformanceMidStreamShedFrame(t *testing.T) {
	s := saturableImpls(t)["http"]
	cl, ok := s.api.(*client.Client)
	if !ok {
		t.Fatal("http impl is not *client.Client")
	}

	stop := saturate(t, s)

	var frames []nanoxbar.Event
	err := cl.Jobs(context.Background(), nanoxbar.JobsRequest{
		Requests: []nanoxbar.Request{{Kind: nanoxbar.KindSynthesize,
			Function: nanoxbar.FunctionSpec{TT: "2:0x6"}}},
	}, func(ev nanoxbar.Event) { frames = append(frames, ev) })
	if err != nil {
		// Request-level failures are frames, not a Jobs error.
		t.Fatalf("Jobs: %v", err)
	}

	var shed *nanoxbar.WireError
	for _, ev := range frames {
		if ev.Type == nanoxbar.EventError && ev.Error != nil {
			shed = ev.Error
			break
		}
	}
	if shed == nil {
		t.Fatalf("no error frame in stream (%d frames)", len(frames))
	}
	if shed.Code != nanoxbar.CodeOverloaded {
		t.Fatalf("error frame code = %q, want %q", shed.Code, nanoxbar.CodeOverloaded)
	}
	if shed.RetryAfterMs <= 0 {
		t.Fatalf("error frame carried no retry_after_ms: %+v", shed)
	}

	// The frame reconstructs into the full typed error: taxonomy
	// identity AND the backoff hint.
	rerr := shed.Err()
	if !errors.Is(rerr, nanoxbar.ErrOverloaded) {
		t.Fatalf("reconstructed error = %v, want ErrOverloaded", rerr)
	}
	if resilience.RetryAfter(rerr) <= 0 {
		t.Fatalf("reconstructed error lost the Retry-After hint: %v", rerr)
	}

	stop()
}
