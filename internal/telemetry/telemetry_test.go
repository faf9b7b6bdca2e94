package telemetry

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total", "Ops.", "kind", "map")
	c.Add(3)
	g := reg.Gauge("test_inflight", "In flight.")
	g.Set(2)
	g.Dec()
	reg.GaugeFunc("test_sampled", "Sampled.", func() float64 { return 7.5 })

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_ops_total Ops.\n# TYPE test_ops_total counter\n",
		`test_ops_total{kind="map"} 3` + "\n",
		"# TYPE test_inflight gauge\ntest_inflight 1\n",
		"test_sampled 7.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup_total", "x", "k", "v")
	b := reg.Counter("dup_total", "x", "k", "v")
	if a != b {
		t.Fatal("re-registering the same counter returned a new handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles diverged")
	}
	// Same name, different labels: distinct series, same family.
	c := reg.Counter("dup_total", "x", "k", "w")
	if c == a {
		t.Fatal("different labels returned the same series")
	}
	// Label order must not matter.
	h1 := reg.Histogram("dup_hist", "x", "a", "1", "b", "2")
	h2 := reg.Histogram("dup_hist", "x", "b", "2", "a", "1")
	if h1 != h2 {
		t.Fatal("label order produced distinct series")
	}
}

// TestWriteTextDuringRegistration: a scrape may run while handlers
// register series lazily (a route's first response of a status); run
// it under -race.
func TestWriteTextDuringRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_requests_total", "Requests.", "status", "200")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			reg.Counter("test_requests_total", "Requests.", "status", strconv.Itoa(300+i)).Inc()
			reg.Histogram("test_seconds", "Latency.", "status", strconv.Itoa(300+i))
		}
	}()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), `test_requests_total{status="200"} 0`) {
			t.Fatalf("scrape lost a registered series:\n%s", b.String())
		}
	}
	wg.Wait()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `test_requests_total{status="499"} 1`) {
		t.Fatalf("final scrape misses the last series:\n%s", b.String())
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0},
		{1, 0},
		{128, 0}, // le = 2^7 inclusive
		{129, 1}, // first value above 2^7
		{256, 1}, // le = 2^8 inclusive
		{257, 2},
		{1 << 36, numBuckets - 1},
		{1<<36 + 1, numBuckets}, // overflow
		{^uint64(0), numBuckets},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.ns); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.ns, got, tc.want)
		}
	}
}

func TestHistogramObserveAndRender(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "Latency.", "stage", "map")
	h.Observe(100 * time.Nanosecond) // bucket 0
	h.Observe(200 * time.Nanosecond) // bucket 1
	h.Observe(time.Hour)             // overflow
	h.Observe(-time.Second)          // clamped to 0, bucket 0

	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	wantSum := (100*time.Nanosecond + 200*time.Nanosecond + time.Hour).Seconds()
	if math.Abs(h.Sum()-wantSum) > 1e-12 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own output does not parse: %v\n%s", err, b.String())
	}
	hs, ok := exp.Histogram("test_latency_seconds", map[string]string{"stage": "map"})
	if !ok {
		t.Fatalf("histogram not found in:\n%s", b.String())
	}
	if hs.Count != 4 || hs.Inf != 4 {
		t.Fatalf("parsed count = %d / inf %d, want 4", hs.Count, hs.Inf)
	}
	if len(hs.Bounds) != numBuckets {
		t.Fatalf("parsed %d finite buckets, want %d", len(hs.Bounds), numBuckets)
	}
	// Cumulative counts must be monotone and match the observations:
	// two ≤ 128ns, three ≤ 256ns.
	if hs.Cum[0] != 2 || hs.Cum[1] != 3 {
		t.Fatalf("cumulative buckets %v, want [2 3 ...]", hs.Cum[:3])
	}
	for i := 1; i < len(hs.Cum); i++ {
		if hs.Cum[i] < hs.Cum[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %v", i, hs.Cum[i-1:i+1])
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_conc_seconds", "x")
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*1000+i) * time.Nanosecond)
				if i%500 == 0 {
					var b strings.Builder
					_ = reg.WriteText(&b) // scrape under fire
				}
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*perG)
	}
}

func TestHistogramObserveAllocationFree(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_alloc_seconds", "x")
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Microsecond) }); allocs != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", allocs)
	}
}

func TestHistogramSnapshotSub(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_delta_seconds", "x")
	scrape := func() *HistogramSnapshot {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		exp, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		hs, ok := exp.Histogram("test_delta_seconds", nil)
		if !ok {
			t.Fatal("histogram missing")
		}
		return hs
	}
	h.Observe(time.Microsecond)
	before := scrape()
	h.Observe(time.Millisecond)
	h.Observe(2 * time.Millisecond)
	d, ok := scrape().Sub(before)
	if !ok {
		t.Fatal("bounds mismatch across scrapes")
	}
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	wantSum := (time.Millisecond + 2*time.Millisecond).Seconds()
	if math.Abs(d.Sum-wantSum) > 1e-12 {
		t.Fatalf("delta sum = %v, want %v", d.Sum, wantSum)
	}
}

func TestCollectFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.Collect("test_shard_hits_total", "Per shard.", "counter", func(emit func(string, float64)) {
		emit(Label("shard", "0"), 5)
		emit(Label("shard", "1"), 7)
	})
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("test_shard_hits_total", map[string]string{"shard": "1"}); !ok || v != 7 {
		t.Fatalf("shard 1 = %v (found %v), want 7", v, ok)
	}
}

func TestGoMetricsRegistered(t *testing.T) {
	reg := NewRegistry()
	RegisterGoMetrics(reg)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("runtime metrics do not parse: %v\n%s", err, b.String())
	}
	if v, ok := exp.Value("go_goroutines", nil); !ok || v < 1 {
		t.Fatalf("go_goroutines = %v (found %v), want >= 1", v, ok)
	}
	if v, ok := exp.Value("go_heap_objects_bytes", nil); !ok || v <= 0 {
		t.Fatalf("go_heap_objects_bytes = %v (found %v), want > 0", v, ok)
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty context carries an ID")
	}
	ctx = WithRequestID(ctx, "abc-123")
	if RequestID(ctx) != "abc-123" {
		t.Fatal("ID not carried")
	}
	if WithRequestID(ctx, "") != ctx {
		t.Fatal("empty ID should be a no-op")
	}
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("NewRequestID: %q, %q", a, b)
	}
}

func TestSanitizeRequestID(t *testing.T) {
	cases := map[string]string{
		"abc-123":                              "abc-123",
		"550e8400-e29b-41d4-a716-446655440000": "550e8400-e29b-41d4-a716-446655440000",
		"":                                     "",
		"has space":                            "",
		"quote\"in":                            "",
		"back\\slash":                          "",
		"new\nline":                            "",
		strings.Repeat("x", 65):                "",
		strings.Repeat("x", 64):                strings.Repeat("x", 64),
	}
	for in, want := range cases {
		if got := SanitizeRequestID(in); got != want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}
