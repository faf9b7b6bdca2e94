package telemetry

import (
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed log2-spaced upper bounds from
// 2^histMinShift ns (128ns) to 2^histMaxShift ns (~68.7s), one bucket
// per power of two, plus an overflow (+Inf) bucket. Thirty buckets span
// nine decades — wide enough for everything from a cache-hit lookup
// (hundreds of ns) to a hundred-thousand-die yield sweep (tens of
// seconds) — and the power-of-two spacing makes bucket selection a
// bits.Len64, not a search over bounds.
const (
	histMinShift = 7  // smallest finite bound: 2^7 ns = 128ns
	histMaxShift = 36 // largest finite bound: 2^36 ns ≈ 68.7s
	numBuckets   = histMaxShift - histMinShift + 1
)

// bucketLE holds the pre-formatted `le="..."` label (bounds in seconds,
// the Prometheus convention) for every finite bucket, rendered once at
// package init so scrapes don't re-format floats per series.
var bucketLE = func() [numBuckets]string {
	var les [numBuckets]string
	for i := range les {
		bound := float64(uint64(1)<<(histMinShift+i)) / 1e9
		var b strings.Builder
		appendLabel(&b, "le", formatValue(bound))
		les[i] = b.String()
	}
	return les
}()

// Histogram is a lock-free fixed-bucket latency histogram. Observe is
// two atomic adds plus a bits.Len64 — no locks, no allocation — so it
// can sit on the per-die mapping path. Obtain instances from
// Registry.Histogram.
type Histogram struct {
	// counts are per-bucket (not cumulative; cumulation happens at
	// render time). Index numBuckets is the overflow (+Inf) bucket.
	counts [numBuckets + 1]atomic.Uint64
	// sumNs accumulates observed nanoseconds; rendered as seconds.
	sumNs atomic.Uint64
}

func newHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a nanosecond value onto its bucket: the first bucket
// whose upper bound 2^k satisfies v ≤ 2^k (le is inclusive, matching
// Prometheus semantics).
func bucketIndex(ns uint64) int {
	if ns <= 1<<histMinShift {
		return 0
	}
	// ceil(log2(ns)) for ns > 2^histMinShift: bits.Len64(ns-1) is the
	// exponent of the smallest power of two ≥ ns.
	i := bits.Len64(ns-1) - histMinShift
	if i > numBuckets {
		return numBuckets // overflow bucket
	}
	return i
}

// Observe records one duration. Negative durations (clock steps) count
// into the smallest bucket rather than corrupting the sum.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.sumNs.Add(ns)
}

// snapshot loads the per-bucket counts and the sum. The counts are a
// best-effort consistent view: concurrent Observes may land between
// bucket loads, which only skews a scrape by in-flight observations.
func (h *Histogram) snapshot() (counts [numBuckets + 1]uint64, sumNs uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sumNs.Load()
}

// writeText renders the series in Prometheus histogram form: cumulative
// _bucket lines per le bound, then _sum and _count.
func (h *Histogram) writeText(b *strings.Builder, name, labels string) {
	counts, sumNs := h.snapshot()
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += counts[i]
		writeBucket(b, name, labels, bucketLE[i], cum)
	}
	cum += counts[numBuckets]
	writeBucket(b, name, labels, `le="+Inf"`, cum)
	writeSample(b, name, "_sum", labels, float64(sumNs)/1e9)
	writeSample(b, name, "_count", labels, float64(cum))
}

// writeBucket renders one cumulative bucket line, merging the le label
// into the series labels.
func writeBucket(b *strings.Builder, name, labels, le string, cum uint64) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	if labels != "" {
		b.WriteString(labels)
		b.WriteByte(',')
	}
	b.WriteString(le)
	b.WriteString("} ")
	b.WriteString(formatValue(float64(cum)))
	b.WriteByte('\n')
}
