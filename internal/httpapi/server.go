// Package httpapi routes the nanoxbar serving engine over HTTP. One
// work route, POST /v2/jobs, carries every request kind and responds
// with an NDJSON event stream in completion order; every frame but the
// batch's last result and the done frame is flushed as written
// (v2.go). Every non-200 body the package writes is the structured
// {"error":{"code","message"}} shape of writeError.
//
// The package is importable (unlike cmd/xbarserverd's main) so tests
// and benchmarks can mount the exact production handler on httptest
// servers.
package httpapi

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/telemetry"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload is
// a batch of map requests with explicit defect maps, well under this.
const maxBodyBytes = 16 << 20

// maxBatchSize bounds one jobs submission. Larger workloads should be
// split client-side so a single request cannot monopolize the pool.
const maxBatchSize = 10000

// Server routes the HTTP API onto an engine.
type Server struct {
	eng    *engine.Engine
	mux    *http.ServeMux
	reg    *telemetry.Registry
	logger *slog.Logger
	start  time.Time

	// Protection state (protect.go): the drain flag and the
	// panic/drain counters.
	draining     atomic.Bool
	panics       atomic.Uint64
	drainRejects atomic.Uint64

	// cluster, when joined via WithCluster, adds peer routes,
	// ownership-based forwarding, and the cluster health/stats blocks.
	cluster *cluster.Node
}

// New builds the production handler over eng. Every route is wrapped in
// the ingress middleware (request-ID propagation, per-route metrics,
// access log — see telemetry.go); the server's HTTP metric families
// join the engine's registry so GET /metrics is one scrape.
func New(eng *engine.Engine, opts ...Option) *Server {
	s := &Server{
		eng:    eng,
		mux:    http.NewServeMux(),
		reg:    eng.Registry(),
		logger: slog.New(slog.DiscardHandler),
		start:  time.Now(),
	}
	handle := func(path string, h http.HandlerFunc) {
		s.mux.HandleFunc(path, s.instrument(path, h))
	}
	// Work routes additionally pass the protection middleware
	// (protect.go): drain rejection, deadline-header extraction, and
	// the optional concurrency limit. Ops routes stay unprotected so
	// health checks and metric scrapes survive overload and drain.
	handleWork := func(path string, h http.HandlerFunc) {
		handle(path, s.protect(h))
	}
	handleWork("/v2/jobs", s.handleJobs)
	handle("/healthz", requireGET(s.handleHealthz))
	handle("/stats", requireGET(s.handleStats))
	handle("/metrics", requireGET(s.handleMetrics))
	s.registerServerMetrics()
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Option configures the server.
type Option func(*Server)

// WithLogger routes the server's structured access logs (and anything
// the middleware logs) to l. Default: discard.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.logger = l
		}
	}
}

// WithPprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default: the profiler exposes internals and
// costs CPU while sampling, so it is opt-in via the -pprof flag.
func WithPprof() Option {
	return func(s *Server) {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// decodeBody parses a JSON body into dst with a size bound. On failure
// it writes the error response, 413 for an oversized body and 400 for
// anything else, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		return true
	}
	// tooBig escapes into errors.As, so it is declared only on the
	// failure path to keep the success path allocation-free.
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, apierr.CodeBadSpec,
			"request body exceeds %d bytes", tooBig.Limit)
	} else {
		writeError(w, http.StatusBadRequest, apierr.CodeBadSpec, "bad request body: %v", err)
	}
	return false
}

// healthCache is the cache summary embedded in /healthz: enough for an
// operator (or orchestrator probe) to tell a warm restart from a cold
// one without pulling the full /stats counter dump.
type healthCache struct {
	Entries            int    `json:"entries"`
	LoadedFromSnapshot uint64 `json:"loaded_from_snapshot"`
}

// healthFault summarizes the fault-tolerance path: how many dies the
// self-mapper has placed, how many defect maps were drawn, and the mean
// self-mapping attempts per die — the number that moves first when a
// density or chip-size change makes repair expensive.
type healthFault struct {
	DiesMapped          uint64  `json:"dies_mapped"`
	DefectMapsGenerated uint64  `json:"defect_maps_generated"`
	MeanMapAttempts     float64 `json:"mean_map_attempts"`
	// Lane-path split of yield-sweep dies: resolved by the word-parallel
	// candidate schedule vs demoted to the scalar mapper.
	DiesCheckedFast   uint64 `json:"dies_checked_fast"`
	DiesDemotedScalar uint64 `json:"dies_demoted_scalar"`
}

type healthResponse struct {
	Status string `json:"status"`
	// UptimeSeconds and Build identify the process: an orchestrator
	// probe can tell a restart (uptime reset) or a version skew from the
	// health check alone.
	UptimeSeconds float64      `json:"uptime_seconds"`
	Build         buildDetails `json:"build"`
	Cache         healthCache  `json:"cache"`
	Fault         healthFault  `json:"fault"`
	// Cluster is present when the node serves in cluster mode. It is
	// also the heartbeat payload: peers probe /healthz and read the
	// membership view and the leaving flag from here.
	Cluster *cluster.Status `json:"cluster,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	resp := healthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Build:         buildInfo(),
		Cache: healthCache{
			Entries:            st.CacheEntries,
			LoadedFromSnapshot: st.CacheLoaded,
		},
		Fault: healthFault{
			DiesMapped:          st.DiesMapped,
			DefectMapsGenerated: st.DefectMapsGenerated,
			MeanMapAttempts:     st.MeanMapAttempts,
			DiesCheckedFast:     st.DiesCheckedFast,
			DiesDemotedScalar:   st.DiesDemotedScalar,
		},
	}
	if s.cluster != nil {
		cs := s.cluster.Status()
		resp.Cluster = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

// clusterStats is /stats in cluster mode: the engine counters plus the
// node's ring/membership/forwarding block.
type clusterStats struct {
	engine.Stats
	Cluster cluster.Status `json:"cluster"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusOK, clusterStats{Stats: st, Cluster: s.cluster.Status()})
}
