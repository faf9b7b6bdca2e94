package engine

import (
	"time"

	"nanoxbar/internal/lattice"
	"nanoxbar/internal/telemetry"
)

// Stage names of the request pipeline, the label values of
// nanoxbar_stage_duration_seconds. Together they decompose a request's
// wall time: how long it sat in the pool queue, how long the cache
// lookup took (including waiting on another request's in-flight
// synthesis), how long a cold synthesis ran, and how long each die's
// defect draw + self-mapping took.
const (
	stageQueueWait   = "queue_wait"
	stageCacheLookup = "cache_lookup"
	stageSynthesize  = "synthesize"
	stageDieMap      = "die_map"
)

// Metric family names registered by the engine. One named constant per
// family — the metricnames analyzer (cmd/xbarvet) enforces the
// nanoxbar_ snake_case shape and repo-wide uniqueness at these consts.
const (
	metricRequestDuration     = "nanoxbar_request_duration_seconds"
	metricRequestsTotal       = "nanoxbar_requests_total"
	metricStageDuration       = "nanoxbar_stage_duration_seconds"
	metricRequestsInflight    = "nanoxbar_requests_inflight"
	metricRequestFailures     = "nanoxbar_request_failures_total"
	metricEngineShed          = "nanoxbar_engine_shed_total"
	metricEngineDegraded      = "nanoxbar_engine_degraded_total"
	metricEngineQueueDepth    = "nanoxbar_engine_queue_depth"
	metricEngineQueuedJobs    = "nanoxbar_engine_queued_jobs"
	metricSynthCalls          = "nanoxbar_synth_calls_total"
	metricDiesMapped          = "nanoxbar_dies_mapped_total"
	metricDefectMapsGenerated = "nanoxbar_defect_maps_generated_total"
	metricMapAttempts         = "nanoxbar_map_attempts_total"
	metricDiesCheckedFast     = "nanoxbar_dies_checked_fast_total"
	metricDiesDemotedScalar   = "nanoxbar_dies_demoted_scalar_total"
	metricWorkers             = "nanoxbar_workers"
	metricCacheHits           = "nanoxbar_cache_hits_total"
	metricCacheMisses         = "nanoxbar_cache_misses_total"
	metricCacheEvictions      = "nanoxbar_cache_evictions_total"
	metricCacheLoaded         = "nanoxbar_cache_loaded_total"
	metricCacheEntries        = "nanoxbar_cache_entries"
	metricLatticeFastImpl     = "nanoxbar_lattice_fast_implements_total"
	metricLatticeWordBlocks   = "nanoxbar_lattice_word_blocks_total"
)

// engineMetrics holds the engine's telemetry handles. The histograms
// are observed on the hot path (lock-free, allocation-free); everything
// read from existing atomics or cache counters registers as a
// scrape-time closure so the counters are not maintained twice.
type engineMetrics struct {
	reg *telemetry.Registry

	// reqDur indexes per-kind request latency by the same kind index
	// the byKind counters use.
	reqDur [4]*telemetry.Histogram

	queueWait   *telemetry.Histogram
	cacheLookup *telemetry.Histogram
	synthesize  *telemetry.Histogram
	dieMap      *telemetry.Histogram

	inflight *telemetry.Gauge
}

// kindIndex maps a request kind onto the byKind/reqDur slot, -1 for
// unknown kinds.
func kindIndex(k Kind) int {
	switch k {
	case KindSynthesize:
		return 0
	case KindCompare:
		return 1
	case KindMap:
		return 2
	case KindYield:
		return 3
	}
	return -1
}

// newEngineMetrics builds the engine's registry: request and stage
// histograms (observed by the engine), counters mirrored from the
// engine's atomics, cache families read at scrape time, the
// process-wide lattice evaluation counters, and the Go runtime set.
func newEngineMetrics(e *Engine) *engineMetrics {
	reg := telemetry.NewRegistry()
	m := &engineMetrics{reg: reg}

	for i, k := range []Kind{KindSynthesize, KindCompare, KindMap, KindYield} {
		kind := string(k)
		m.reqDur[i] = reg.Histogram(metricRequestDuration,
			"End-to-end request latency by kind, from run slot to result.",
			"kind", kind)
		idx := i
		reg.CounterFunc(metricRequestsTotal, "Requests executed by kind.",
			func() float64 { return float64(e.byKind[idx].Load()) }, "kind", kind)
	}
	m.queueWait = reg.Histogram(metricStageDuration,
		"Pipeline stage latency.", "stage", stageQueueWait)
	m.cacheLookup = reg.Histogram(metricStageDuration,
		"Pipeline stage latency.", "stage", stageCacheLookup)
	m.synthesize = reg.Histogram(metricStageDuration,
		"Pipeline stage latency.", "stage", stageSynthesize)
	m.dieMap = reg.Histogram(metricStageDuration,
		"Pipeline stage latency.", "stage", stageDieMap)
	m.inflight = reg.Gauge(metricRequestsInflight,
		"Requests currently executing on the worker pool.")

	counter := func(name, help string, v func() uint64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v()) })
	}
	counter(metricRequestFailures, "Requests that returned an error result.", e.failures.Load)
	counter(metricEngineShed, "Requests shed at admission: the job queue stayed saturated past the wait budget.", e.shed.Load)
	counter(metricEngineDegraded, "Requests served with the degraded fast-path synthesis options after excessive queue wait.", e.degradedReqs.Load)
	reg.GaugeFunc(metricEngineQueueDepth, "Job queue buffer size.",
		func() float64 { return float64(e.pool.depth()) })
	reg.GaugeFunc(metricEngineQueuedJobs, "Jobs waiting for a worker.",
		func() float64 { return float64(e.pool.queued()) })
	counter(metricSynthCalls, "Underlying core.Synthesize invocations (cache misses that ran).", e.synthCalls.Load)
	counter(metricDiesMapped, "Dies placed through the self-mapper.", e.diesMapped.Load)
	counter(metricDefectMapsGenerated, "Random defect maps drawn.", e.defectMaps.Load)
	counter(metricMapAttempts, "Self-mapping configurations spent across all dies.", e.mapAttempts.Load)
	counter(metricDiesCheckedFast, "Yield-sweep dies resolved by the lane path's word-parallel candidate schedule.", e.diesFast.Load)
	counter(metricDiesDemotedScalar, "Yield-sweep dies demoted to the scalar mapper after failing every candidate.", e.diesDemoted.Load)
	reg.GaugeFunc(metricWorkers, "Worker pool size.",
		func() float64 { return float64(e.workers) })

	// Cache families: each reads the cache's counters under its mutex
	// at scrape time, so the hot-path cache code keeps plain counters.
	counter(metricCacheHits, "Cache hits.", func() uint64 { return e.cache.stats().hits })
	counter(metricCacheMisses, "Cache misses.", func() uint64 { return e.cache.stats().misses })
	counter(metricCacheEvictions, "Cache evictions.", func() uint64 { return e.cache.stats().evictions })
	counter(metricCacheLoaded, "Cache entries seeded from a snapshot.", func() uint64 { return e.cache.stats().loads })
	reg.GaugeFunc(metricCacheEntries, "Live cache entries.",
		func() float64 { return float64(e.cache.stats().entries) })

	// Process-wide lattice evaluation counters — the synthesis hot
	// path's work units, already tracked by internal/lattice.
	reg.CounterFunc(metricLatticeFastImpl,
		"Bit-parallel Implements/feasibility checks.",
		func() float64 { return float64(lattice.CounterSnapshot().FastImplements) })
	reg.CounterFunc(metricLatticeWordBlocks,
		"64-assignment word blocks percolated.",
		func() float64 { return float64(lattice.CounterSnapshot().WordBlocks) })

	telemetry.RegisterGoMetrics(reg)
	return m
}

// observeRequest records one completed request of kind k.
func (m *engineMetrics) observeRequest(k Kind, d time.Duration) {
	if i := kindIndex(k); i >= 0 {
		m.reqDur[i].Observe(d)
	}
}
