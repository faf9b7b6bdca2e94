package nanoxbar

import (
	"context"

	"nanoxbar/internal/telemetry"
)

// Request-ID propagation, public surface. A request ID placed in a
// context travels with the call: the HTTP client forwards it as the
// X-Request-ID header, the server echoes it on the response and stamps
// it on every v2 stream frame, and both the server's access log and the
// engine's per-request debug log carry it — one string correlates a
// client retry with the server-side evidence.

// ContextWithRequestID returns a context carrying id. An empty id
// returns ctx unchanged.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return telemetry.WithRequestID(ctx, id)
}

// RequestIDFromContext returns the request ID carried by ctx, or "".
func RequestIDFromContext(ctx context.Context) string {
	return telemetry.RequestID(ctx)
}
