package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// malformedExpositions each break one rule ParseExposition enforces.
var malformedExpositions = []string{
	"# TYPE x_total\n",                      // TYPE without a type
	"# TYPE x_total widget\n",               // unknown type
	"# TYPE x gauge\nx 1\n# TYPE x gauge\n", // family split across groups
	"x_total\n",                             // no value
	"{a=\"1\"} 1\n",                         // empty metric name
	"x_total{a=\"1\" 1\n",                   // unterminated label set
	"x_total{a=\"1\\\"} 1\n",                // escaped closing quote
	"x_total{a=1} 1\n",                      // unquoted label value
	"x_total{=\"1\"} 1\n",                   // empty label name
	"x_total{a=\"1\",b} 1\n",                // label without a value
	"x_total{a=\"1\"} one\n",                // unparsable value
}

// FuzzParseExposition checks the parser that reads a server's /metrics
// for xbarload's panic verdict and bench/'s histogram deltas. Arbitrary
// bytes must parse or fail without panicking, and a gauge series that
// Registry.WriteText renders from the fuzzed label value and sample
// value must parse back to both unchanged (NaN reads back as NaN).
func FuzzParseExposition(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("seed_requests_total", "Requests.", "kind", "map").Add(3)
	reg.Gauge("seed_inflight", "In flight.").Set(-2)
	reg.GaugeFunc("seed_ratio", "A \"quoted\" help\nline.", func() float64 { return math.Inf(1) })
	reg.Collect("seed_members", "Per state.", "gauge", func(emit func(string, float64)) {
		emit(Label("state", "a\\b\"c\nd"), 1)
	})
	reg.Histogram("seed_latency_seconds", "Latency.", "stage", "die_map").Observe(3 * time.Millisecond)
	var valid strings.Builder
	if err := reg.WriteText(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(valid.String()), "die_map", 0.25)
	for _, m := range malformedExpositions {
		if _, err := ParseExposition(strings.NewReader(m)); err == nil {
			f.Fatalf("malformed seed %.40q parses", m)
		}
		f.Add([]byte(m), "", math.NaN())
	}

	f.Fuzz(func(t *testing.T, data []byte, label string, v float64) {
		ParseExposition(bytes.NewReader(data))

		reg := NewRegistry()
		reg.GaugeFunc("fuzz_value", "Fuzzed.", func() float64 { return v }, "label", label)
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		exp, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("WriteText output does not parse: %v\n%s", err, b.String())
		}
		got, ok := exp.Value("fuzz_value", map[string]string{"label": label})
		if !ok {
			t.Fatalf("series with label %q lost in\n%s", label, b.String())
		}
		if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Fatalf("value %v read back as %v from\n%s", v, got, b.String())
		}
	})
}
