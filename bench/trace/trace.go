// Package trace records the benchmark's spans in memory — one per call
// into a layer, linked to the span that caused it — and reduces them to
// a self-time ledger. Spans are written out only when the run ends.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call. Parent is the ID of the enclosing span, 0 for
// a root. Start and End are offsets from the recorder's creation.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder collects spans. A nil *Recorder records nothing, so an
// untraced run pays one nil check per span.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span under parent and returns its ID.
func (r *Recorder) Begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

// End closes the span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// Spans returns a copy of the spans recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSON writes every span as one JSON array.
func (r *Recorder) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.Spans())
}

// SelfTimes sums, by name, each span's self time: its duration minus
// the part of its interval covered by its children. Children may
// overlap one another (concurrent calls) or outlive the parent; the
// covered part is the union of their intervals clipped to the parent.
func SelfTimes(spans []Span) map[string]time.Duration {
	type interval struct{ lo, hi time.Duration }
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered := time.Duration(0)
		reach := s.Start // end of the union so far
		for _, k := range kids {
			lo, hi := max(k.lo, reach), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}
