// Ingress observability: the per-route middleware (request-ID
// honor/mint/echo, latency and status metrics, access log), the
// GET /metrics exposition endpoint, and the build-info plumbing shared
// by /metrics and /healthz.
package httpapi

import (
	"bytes"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/telemetry"
)

// Metric family names registered by the HTTP layer. Named constants so
// the metricnames analyzer (cmd/xbarvet) can verify shape and repo-wide
// uniqueness at the declaration.
const (
	metricHTTPRequestDuration = "nanoxbar_http_request_duration_seconds"
	metricHTTPRequestsTotal   = "nanoxbar_http_requests_total"
	metricUptimeSeconds       = "nanoxbar_uptime_seconds"
	metricHTTPPanics          = "nanoxbar_http_panics_total"
	metricHTTPDrainRejects    = "nanoxbar_http_drain_rejects_total"
	metricHTTPDraining        = "nanoxbar_http_draining"
	metricBuildInfo           = "nanoxbar_build_info"
)

// statusWriter captures the response status for metrics and access logs
// while passing Flush through — the v2 NDJSON stream type-asserts its
// writer to http.Flusher, so swallowing it would buffer the stream.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps a route handler with the ingress middleware. Every
// request gets a request ID — the client's X-Request-ID when it passes
// telemetry.SanitizeRequestID, a freshly minted one otherwise — carried
// in the context (so engine logs and v2 stream frames can echo it) and
// on the response header. The path label is the mux pattern, not the
// raw URL, so metric cardinality stays bounded by the route table.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	dur := s.reg.Histogram(metricHTTPRequestDuration,
		"HTTP request latency by route, including streaming time.", "path", path)
	requests := func(status int) *telemetry.Counter {
		return s.reg.Counter(metricHTTPRequestsTotal,
			"HTTP requests by route and status.",
			"path", path, "status", strconv.Itoa(status))
	}
	// A registry lookup renders and sorts labels under the registry's
	// global lock, so the route's status="200" series is looked up once,
	// on its first success, and reused. It still appears in /metrics
	// only once a 200 has been served; rarer statuses keep the lookup.
	ok200 := sync.OnceValue(func() *telemetry.Counter { return requests(http.StatusOK) })
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := telemetry.SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = telemetry.NewRequestID()
		}
		r = r.WithContext(telemetry.WithRequestID(r.Context(), id))
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		func() {
			// Panic recovery sits inside the middleware so the 500 is
			// still counted, logged, and tagged with the request ID by
			// the code below.
			defer s.recoverPanic(sw, r)
			h(sw, r)
		}()
		status := sw.code
		if status == 0 {
			status = http.StatusOK
		}
		elapsed := time.Since(start)
		dur.Observe(elapsed)
		if status == http.StatusOK {
			ok200().Inc()
		} else {
			requests(status).Inc()
		}
		if s.logger.Enabled(r.Context(), slog.LevelInfo) {
			s.logger.LogAttrs(r.Context(), slog.LevelInfo, "http request",
				slog.String("method", r.Method),
				slog.String("path", path),
				slog.Int("status", status),
				slog.Duration("duration", elapsed),
				slog.String("request_id", id))
		}
	}
}

// requireGET rejects non-GET methods with a structured 405 in the v2
// error shape, shared by the three read-only endpoints.
func requireGET(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			v2Error(w, http.StatusMethodNotAllowed, apierr.CodeBadSpec, "use GET")
			return
		}
		h(w, r)
	}
}

// metricsContentType is the Prometheus text exposition content type.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleMetrics renders the engine registry (which the server's own
// HTTP families are registered on) as Prometheus text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := s.reg.WriteText(&buf); err != nil {
		v2Error(w, http.StatusInternalServerError, apierr.CodeInternal, "rendering metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", metricsContentType)
	_, _ = w.Write(buf.Bytes())
}

// buildDetails is the build identity reported by /healthz and the
// nanoxbar_build_info metric.
type buildDetails struct {
	Version   string `json:"version,omitempty"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
}

// buildInfo reads the module version, VCS revision, and Go version from
// the binary once.
var buildInfo = sync.OnceValue(func() buildDetails {
	b := buildDetails{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.GoVersion = bi.GoVersion
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		b.Version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			b.Revision = kv.Value
		}
	}
	return b
})

// registerServerMetrics adds the server-level families to the engine
// registry: process uptime and the constant build-info gauge (value 1,
// identity in the labels — the Prometheus idiom for build metadata).
func (s *Server) registerServerMetrics() {
	s.reg.GaugeFunc(metricUptimeSeconds, "Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.CounterFunc(metricHTTPPanics,
		"Handler panics converted into 500s by the recovery middleware.",
		func() float64 { return float64(s.panics.Load()) })
	s.reg.CounterFunc(metricHTTPDrainRejects,
		"Work requests rejected 503 while the server drained for shutdown.",
		func() float64 { return float64(s.drainRejects.Load()) })
	s.reg.GaugeFunc(metricHTTPDraining,
		"1 while the server is draining for shutdown.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	bi := buildInfo()
	s.reg.GaugeFunc(metricBuildInfo, "Build identity; value is always 1.",
		func() float64 { return 1 },
		"version", bi.Version, "go_version", bi.GoVersion, "revision", bi.Revision)
}
