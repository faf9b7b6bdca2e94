// Server protection: the drain/deadline middleware on the work routes
// and the panic-recovery wrapper on every route. A draining server
// answers 503 while in-flight streams complete, a client's deadline
// header bounds its own request, and a handler panic costs one 500
// (traceable by request ID) instead of the process. Admission under
// load is the engine's queue-wait budget (engine.Config.MaxQueueWait),
// answered with an overloaded frame inside the 200 stream.
package httpapi

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/telemetry"
)

// deadlineHeader carries the client's remaining per-request budget in
// milliseconds. The server turns it into a context deadline so queue
// wait, synthesis, and streaming all observe the same budget the client
// is actually willing to wait.
const deadlineHeader = "X-Deadline-Ms"

// maxDeadline caps client-supplied budgets so a forged header cannot
// pin server resources for hours.
const maxDeadline = 10 * time.Minute

// Drain puts the server into drain mode: work routes answer 503
// (code "unavailable") while requests already in flight — including
// open NDJSON streams — run to completion. Ops routes keep serving so
// orchestrators can watch the drain. Safe to call more than once.
func (s *Server) Drain() { s.draining.Store(true) }

// setRetryAfter stamps the Retry-After hint (whole seconds, minimum 1 —
// the header has no sub-second form).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// protect wraps a work-route handler with drain rejection and deadline
// extraction, in that order: a draining server answers before the
// request's budget starts.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.drainRejects.Add(1)
			setRetryAfter(w, engine.ShedRetryAfter)
			writeError(w, http.StatusServiceUnavailable, apierr.CodeUnavailable,
				"server is draining for shutdown")
			return
		}
		if ms := r.Header.Get(deadlineHeader); ms != "" {
			if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n > 0 {
				// Compare before converting: n·1ms overflows a Duration
				// from n ≈ 9.2e12 on.
				d := maxDeadline
				if n < int64(maxDeadline/time.Millisecond) {
					d = time.Duration(n) * time.Millisecond
				}
				ctx, cancel := context.WithTimeout(r.Context(), d)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		h(w, r)
	}
}

// recoverPanic converts a handler panic into a 500 (when the response
// has not started) plus a counted, request-ID-tagged error log — one
// bad request must not take down the daemon or go unnoticed.
func (s *Server) recoverPanic(w *statusWriter, r *http.Request) {
	rec := recover()
	if rec == nil {
		return
	}
	s.panics.Add(1)
	id := telemetry.RequestID(r.Context())
	s.logger.LogAttrs(r.Context(), slog.LevelError, "http handler panic",
		slog.String("path", r.URL.Path),
		slog.String("request_id", id),
		slog.Any("panic", rec),
		slog.String("stack", string(debug.Stack())))
	if w.code == 0 {
		writeError(w, http.StatusInternalServerError, apierr.CodeInternal,
			"internal error (request %s)", id)
	}
	// Headers already sent (e.g. mid-stream): nothing more to write;
	// the connection closes and the client sees a truncated stream.
}
