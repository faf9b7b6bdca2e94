package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal Prometheus text-exposition parser. Its consumers:
// cmd/xbarload, whose verdict reads each watched server's recovered-
// panic counter; bench/'s serving workloads, which difference histogram
// scrapes around a run; and tests that assert /metrics output is
// well-formed. It parses the subset WriteText emits — HELP/TYPE
// comments and `name{labels} value` samples — which is also the subset
// any conforming exposition uses.

// Sample is one parsed exposition line.
type Sample struct {
	Name   string // metric name as written, including _bucket/_sum/_count suffixes
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed scrape.
type Exposition struct {
	Samples []Sample
	Types   map[string]string // family name → counter|gauge|histogram
	Help    map[string]string
}

// ParseExposition reads Prometheus text format 0.0.4. It returns an
// error on structurally invalid lines (bad label syntax, unparsable
// values), making it usable as a format validator.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: make(map[string]string), Help: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := exp.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		typ := fields[3]
		if typ != typeCounter && typ != typeGauge && typ != typeHistogram &&
			typ != "summary" && typ != "untyped" {
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if _, dup := e.Types[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s (family split across groups)", fields[2])
		}
		e.Types[fields[2]] = typ
	case "HELP":
		help := ""
		if len(fields) == 4 {
			help = fields[3]
		}
		e.Help[fields[2]] = help
	}
	return nil
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value on sample line %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++ // skip escaped char
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		var err error
		if s.Labels, err = parseLabels(rest[1:end]); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// A timestamp may follow the value; WriteText never emits one, but
	// accept it for generality.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseFloat(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq <= 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return nil, fmt.Errorf("bad label pair near %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = val.String()
		body = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
		body = strings.TrimSpace(body)
	}
	return labels, nil
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Value returns the sample value for name with exactly the given
// labels (nil matches the unlabeled series), and whether it was found.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// HistogramSnapshot is a reconstructed histogram series: sorted finite
// upper bounds (seconds) with cumulative counts, plus sum and count.
type HistogramSnapshot struct {
	Bounds []float64 // finite le bounds, ascending
	Cum    []uint64  // cumulative counts per bound
	Inf    uint64    // cumulative count at +Inf (== Count)
	Sum    float64
	Count  uint64
}

// Histogram reconstructs the histogram series of name whose non-le
// labels equal labels.
func (e *Exposition) Histogram(name string, labels map[string]string) (*HistogramSnapshot, bool) {
	match := func(s Sample, withLE bool) bool {
		want := len(labels)
		if withLE {
			want++
		}
		if len(s.Labels) != want {
			return false
		}
		for k, v := range labels {
			if s.Labels[k] != v {
				return false
			}
		}
		return true
	}
	h := &HistogramSnapshot{}
	type bkt struct {
		bound float64
		cum   uint64
	}
	var bkts []bkt
	found := false
	for _, s := range e.Samples {
		switch s.Name {
		case name + "_bucket":
			if !match(s, true) {
				continue
			}
			le, err := parseFloat(s.Labels["le"])
			if err != nil {
				continue
			}
			found = true
			if math.IsInf(le, 0) {
				h.Inf = uint64(s.Value)
			} else {
				bkts = append(bkts, bkt{le, uint64(s.Value)})
			}
		case name + "_sum":
			if match(s, false) {
				h.Sum = s.Value
			}
		case name + "_count":
			if match(s, false) {
				h.Count = uint64(s.Value)
			}
		}
	}
	if !found {
		return nil, false
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].bound < bkts[j].bound })
	for _, b := range bkts {
		h.Bounds = append(h.Bounds, b.bound)
		h.Cum = append(h.Cum, b.cum)
	}
	return h, true
}

// Sub returns a snapshot of the observations between earlier and h
// (h minus earlier, bucket-wise). Bounds must match; mismatches return
// false.
func (h *HistogramSnapshot) Sub(earlier *HistogramSnapshot) (*HistogramSnapshot, bool) {
	if earlier == nil {
		return h, true
	}
	if len(h.Bounds) != len(earlier.Bounds) {
		return nil, false
	}
	d := &HistogramSnapshot{
		Bounds: h.Bounds,
		Cum:    make([]uint64, len(h.Cum)),
		Inf:    h.Inf - earlier.Inf,
		Sum:    h.Sum - earlier.Sum,
		Count:  h.Count - earlier.Count,
	}
	for i := range h.Cum {
		if h.Bounds[i] != earlier.Bounds[i] {
			return nil, false
		}
		d.Cum[i] = h.Cum[i] - earlier.Cum[i]
	}
	return d, true
}
