package workload

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// MetricSpec declares a metric the benchmark prints: its name and unit.
// The tables below must equal the end_to_end and per_layer lists of
// BENCHMARK.json; the smoke test holds them to it.
type MetricSpec struct{ Name, Unit string }

// EndToEnd are the metrics every untraced run prints, for every
// workload. Times are read from the process CPU clock (cpuTime), which
// leaves out the time the hypervisor runs other guests. An "op" is a
// function (synth-cold), a die (yield-sweep) or a request (serve-*);
// per-op times are per function, per sweep or per request. See
// README.md for each workload's reading.
var EndToEnd = []MetricSpec{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"cpu_p50_ms", "ms"},
	{"cpu_p99_ms", "ms"},
	{"cpu_geomean_ms", "ms"},
	{"area_cells", "cells"},
	{"max_rss_mb", "MB"},
}

// timingMetrics are the end-to-end metrics a traced run compares with
// an untraced one.
var timingMetrics = []string{"ops_per_cpu_s", "cpu_p50_ms", "cpu_p99_ms", "cpu_geomean_ms"}

// PerLayer are the metrics every traced run prints. A layer the
// workload does not exercise reads 0.
var PerLayer = []MetricSpec{
	// synth-cold: the phases of core.SynthesizeCtx, replayed per function
	// and summed over one pass of the function set.
	{"latsynth.covers_ms", "ms"},
	{"latsynth.dual_grid_ms", "ms"},
	{"lattice.verify_ms", "ms"},
	{"latsynth.post_reduce_ms", "ms"},
	{"xbar2t.build_ms", "ms"},
	{"pcircuit.best_ms", "ms"},
	{"dreduce.synth_ms", "ms"},
	{"core.unexplained_ms", "ms"},
	{"core.allocs_per_fn", "count"},
	{"core.alloc_mb_per_fn", "MB"},
	{"lattice.word_blocks_per_fn", "count"},
	{"pcircuit.win_ratio", "ratio"},
	{"dreduce.win_ratio", "ratio"},
	// yield-sweep: the fault path under the SDK sweep.
	{"yield.fast_ratio", "ratio"},
	{"yield.success_rate", "ratio"},
	{"bism.attempts_per_die", "count"},
	{"yield.runner_ms", "ms"},
	{"engine.yield_overhead_ms", "ms"},
	{"defect.draw_us_per_die", "us"},
	{"bism.demoted_map_us_per_die", "us"},
	// serve-*: engine and transport stage means from /metrics deltas.
	{"engine.queue_wait_us", "us"},
	{"engine.cache_lookup_us", "us"},
	{"engine.request_us.synthesize", "us"},
	{"engine.request_us.map", "us"},
	{"engine.request_us.yield", "us"},
	{"engine.die_map_us", "us"},
	{"engine.synthesize_ms", "ms"},
	{"httpapi.request_us", "us"},
	{"client.overhead_us", "us"},
	{"engine.hit_ratio", "ratio"},
	{"engine.evictions_per_s", "1/s"},
	{"engine.flight_ratio", "ratio"},
	{"engine.shed", "count"},
	{"engine.degraded", "count"},
	// serve-*: the open loop at the fixed rate, on the wall clock, each
	// request timed from when it was due.
	{"loadgen.p50_ms", "ms"},
	{"loadgen.p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	// serve-hot: the same sampled requests through the engine alone and
	// through HTTP, against the client-observed p50.
	{"ledger.engine_us", "us"},
	{"ledger.http_us", "us"},
	{"ledger.remainder_us", "us"},
	// Every workload.
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_share", "ratio"},
	{"wall.ops_per_s", "1/s"},
	{"trace.overhead.ops_per_cpu_s", "1/s"},
	{"trace.overhead.cpu_p50_ms", "ms"},
	{"trace.overhead.cpu_p99_ms", "ms"},
	{"trace.overhead.cpu_geomean_ms", "ms"},
}

// Report is the outcome of one workload run.
type Report struct {
	Attempted int
	Failed    int
	// Errors keeps the first few failure descriptions.
	Errors []string
	// Values holds the measured metrics by name; Specs fixes which ones
	// are printed, in order.
	Values map[string]float64
	Specs  []MetricSpec
}

func newReport(trace bool) *Report {
	r := &Report{Values: make(map[string]float64), Specs: EndToEnd}
	if trace {
		r.Specs = PerLayer
	}
	return r
}

// maxErrors bounds Report.Errors.
const maxErrors = 8

// fail counts one failed operation.
func (r *Report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Correct reports that every operation succeeded and every output was
// checked correct.
func (r *Report) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// set records a metric value.
func (r *Report) set(name string, v float64) { r.Values[name] = v }

// setOverhead records traced minus untraced for the timing metrics of
// two measurements of the same workload, and the untraced wall-clock
// rate.
func (r *Report) setOverhead(untraced, traced map[string]float64) {
	for _, m := range timingMetrics {
		r.set("trace.overhead."+m, traced[m]-untraced[m])
	}
	r.set("wall.ops_per_s", untraced["wall.ops_per_s"])
}

// quantile is the nearest-rank q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the middle value of xs, the mean of the middle two for an
// even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rusage reads the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Only a bad pointer makes RUSAGE_SELF fail.
		panic(err)
	}
	return ru
}

// cpuTime is the CPU time the process has used, user plus system, over
// all its threads, to the microsecond. On Linux this is the scheduler's
// run time, which a kernel with paravirtual steal accounting (as on the
// reference VM) keeps free of the time the hypervisor gives to other
// guests: the reason the end-to-end timings use it and not the wall
// clock, on which serving latencies at a fixed rate spread over ten
// runs by 40% of their median.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuOp is the CPU time since start, at least the clock's microsecond
// resolution so that a geometric mean stays finite.
func cpuOp(start time.Duration) time.Duration { return max(cpuTime()-start, time.Microsecond) }

// setupReps is how many times a workload builds its state; setup_s is
// the median, so one slow build does not move it.
const setupReps = 5

// timedSetup runs setup setupReps times, releasing every state but the
// last with teardown, and returns the last state and the median CPU
// time of a setup in seconds.
func timedSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		state T
		secs  []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(state)
		}
		start := cpuTime()
		var err error
		if state, err = setup(); err != nil {
			return state, 0, err
		}
		secs = append(secs, (cpuTime() - start).Seconds())
	}
	return state, median(secs), nil
}

// maxRSSMB is the process's peak resident set size, getrusage's
// ru_maxrss (kilobytes on Linux).
func maxRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// goCounters samples the Go runtime's allocation and CPU accounting.
type goCounters struct{ allocBytes, gcCPU, totalCPU float64 }

func readGo() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return goCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// setGo records the allocation and GC share of the work between two
// samples, per operation.
func (r *Report) setGo(before, after goCounters, ops int) {
	r.set("go.alloc_bytes_per_op", ratio(after.allocBytes-before.allocBytes, float64(ops)))
	r.set("go.gc_cpu_share", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}
