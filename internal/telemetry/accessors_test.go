package telemetry

// Accessors only the tests use: production code records through
// Inc/Dec/Observe and reads through the text exposition, while the
// tests also seed metrics directly and read histogram totals.

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed durations in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }
