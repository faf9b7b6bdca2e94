package client

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"nanoxbar/pkg/nanoxbar"
)

// The v2 frame decoder. decodeEvent reads one NDJSON line of a
// /v2/jobs stream into a nanoxbar.Event and returns what json.Unmarshal
// returns for it, Event and error, on every line. The frames the
// server writes take a fast path without reflection: no white space,
// known keys each at most once, strings with no escape and valid
// UTF-8, and numbers, booleans and integer arrays, with no null. Any
// other line, malformed or not, goes to json.Unmarshal. The fast path
// copies every string and slice out of the line, which the stream's
// scanner reuses.

// The JSON keys of each frame object, in declaration order; a decoder's
// member callback switches on the index into these.
var (
	eventKeys     = []string{"type", "index", "request_id", "die", "die_map", "die_error", "result", "error", "done"}
	resultKeys    = []string{"kind", "synthesis", "compare", "map", "yield", "degraded"}
	synthesisKeys = []string{"tech", "rows", "cols", "area", "method", "cache_hit", "key"}
	compareKeys   = []string{"diode", "fet", "lattice"}
	mapKeys       = []string{"success", "configs", "bist_calls", "bisd_calls", "chip_size", "rows", "cols"}
	yieldKeys     = []string{"chips", "successes", "success_rate", "avg_configs", "avg_bist", "avg_bisd"}
	wireErrorKeys = []string{"code", "message", "retry_after_ms"}
	summaryKeys   = []string{"results", "errors"}
)

// vocabulary holds the strings the server sends over and over (event
// types, kinds, technologies, synthesis methods, error codes): a
// decoded string equal to one of them reuses it instead of allocating.
var vocabulary = func() map[string]string {
	m := map[string]string{}
	for _, s := range []string{
		nanoxbar.EventResult, nanoxbar.EventError, nanoxbar.EventDie, nanoxbar.EventDone,
		string(nanoxbar.KindSynthesize), string(nanoxbar.KindCompare), string(nanoxbar.KindMap), string(nanoxbar.KindYield),
		"diode", "fet", "4T-lattice", "dual", "pcircuit", "dreduce", "formula",
		nanoxbar.CodeBadSpec, nanoxbar.CodeInfeasible, nanoxbar.CodeCanceled,
		nanoxbar.CodeOverloaded, nanoxbar.CodeUnavailable, nanoxbar.CodeInternal,
	} {
		m[s] = s
	}
	return m
}()

// eventDecoder decodes the frames of one stream, one line at a time.
type eventDecoder struct {
	data []byte
	pos  int
	slow bool // the line left the fast path
	// reqID is the last request ID decoded. Every frame of a stream
	// carries the same one, so it is allocated once per stream.
	reqID string
	// intBuf holds an integer array's elements while they are counted.
	intBuf []int
}

// decodeEvent decodes one frame as json.Unmarshal does. It keeps no
// reference to line.
func (d *eventDecoder) decodeEvent(line []byte) (nanoxbar.Event, error) {
	if ev, ok := d.fast(line); ok {
		return ev, nil
	}
	return unmarshalEvent(line)
}

// unmarshalEvent decodes a line the fast path does not take. It fills
// an Event of its own: unmarshalling into fast's would move that one to
// the heap on every frame.
func unmarshalEvent(line []byte) (nanoxbar.Event, error) {
	var ev nanoxbar.Event
	err := json.Unmarshal(line, &ev)
	return ev, err
}

// fast decodes a frame of the shape the server writes, and reports
// false for any other line.
func (d *eventDecoder) fast(line []byte) (nanoxbar.Event, bool) {
	var ev nanoxbar.Event
	d.data, d.pos, d.slow = line, 0, false
	d.object(eventKeys, func(k int) {
		switch k {
		case 0:
			ev.Type = d.str()
		case 1:
			ev.Index = d.int()
		case 2:
			if id := d.text(); string(id) != d.reqID {
				d.reqID = string(id)
			}
			ev.RequestID = d.reqID
		case 3:
			ev.Die = d.int()
		case 4:
			ev.DieMap = d.mapOutcome()
		case 5:
			ev.DieError = d.wireError()
		case 6:
			ev.Result = d.result()
		case 7:
			ev.Error = d.wireError()
		case 8:
			ev.Done = new(nanoxbar.JobsSummary)
			d.object(summaryKeys, func(k int) {
				switch k {
				case 0:
					ev.Done.Results = d.int()
				case 1:
					ev.Done.Errors = d.int()
				}
			})
		}
	})
	ok := !d.slow && d.pos == len(d.data)
	d.data = nil
	return ev, ok
}

func (d *eventDecoder) result() *nanoxbar.Result {
	r := new(nanoxbar.Result)
	d.object(resultKeys, func(k int) {
		switch k {
		case 0:
			r.Kind = nanoxbar.Kind(d.str())
		case 1:
			r.Synthesis = new(nanoxbar.Synthesis)
			d.synthesis(r.Synthesis)
		case 2:
			c := new(nanoxbar.Comparison)
			r.Compare = c
			d.object(compareKeys, func(k int) {
				switch k {
				case 0:
					d.synthesis(&c.Diode)
				case 1:
					d.synthesis(&c.FET)
				case 2:
					d.synthesis(&c.Lattice)
				}
			})
		case 3:
			r.Map = d.mapOutcome()
		case 4:
			y := new(nanoxbar.YieldStats)
			r.Yield = y
			d.object(yieldKeys, func(k int) {
				switch k {
				case 0:
					y.Chips = d.int()
				case 1:
					y.Successes = d.int()
				case 2:
					y.SuccessRate = d.float()
				case 3:
					y.AvgConfigs = d.float()
				case 4:
					y.AvgBIST = d.float()
				case 5:
					y.AvgBISD = d.float()
				}
			})
		case 5:
			r.Degraded = d.boolean()
		}
	})
	return r
}

func (d *eventDecoder) synthesis(s *nanoxbar.Synthesis) {
	d.object(synthesisKeys, func(k int) {
		switch k {
		case 0:
			s.Tech = d.str()
		case 1:
			s.Rows = d.int()
		case 2:
			s.Cols = d.int()
		case 3:
			s.Area = d.int()
		case 4:
			s.Method = d.str()
		case 5:
			s.CacheHit = d.boolean()
		case 6:
			s.Key = d.str()
		}
	})
}

func (d *eventDecoder) mapOutcome() *nanoxbar.MapOutcome {
	m := new(nanoxbar.MapOutcome)
	d.object(mapKeys, func(k int) {
		switch k {
		case 0:
			m.Success = d.boolean()
		case 1:
			m.Configs = d.int()
		case 2:
			m.BISTCalls = d.int()
		case 3:
			m.BISDCalls = d.int()
		case 4:
			m.ChipSize = d.int()
		case 5:
			m.Rows = d.ints()
		case 6:
			m.Cols = d.ints()
		}
	})
	return m
}

func (d *eventDecoder) wireError() *nanoxbar.WireError {
	e := new(nanoxbar.WireError)
	d.object(wireErrorKeys, func(k int) {
		switch k {
		case 0:
			e.Code = d.str()
		case 1:
			e.Message = d.str()
		case 2:
			e.RetryAfterMs = d.int64()
		}
	})
	return e
}

// object decodes one JSON object whose keys are all in keys, calling
// member with a key's index and d at its value. An unknown or repeated
// key ends the fast path, and so does a null value, which no member
// decodes.
func (d *eventDecoder) object(keys []string, member func(k int)) {
	if !d.next('{') {
		d.fail()
		return
	}
	var seen uint32
	// The server writes keys in declaration order, so the search for
	// each key starts after the one before.
	from := 0
	d.list('}', func() {
		key := d.text()
		k := len(keys)
		for i := range keys {
			if j := (from + i) % len(keys); string(key) == keys[j] {
				k, from = j, j+1
				break
			}
		}
		if k == len(keys) || seen&(1<<k) != 0 || !d.next(':') {
			d.fail()
			return
		}
		seen |= 1 << k
		member(k)
	})
}

// list steps over the elements of an object or array whose opening
// bracket d has passed, calling elem with d at each element and
// expecting end after the last.
func (d *eventDecoder) list(end byte, elem func()) {
	if d.next(end) {
		return
	}
	for {
		elem()
		if !d.next(',') {
			break
		}
	}
	if !d.next(end) {
		d.fail()
	}
}

// str decodes a JSON string into a Go string of its own.
func (d *eventDecoder) str() string {
	b := d.text()
	if s, ok := vocabulary[string(b)]; ok {
		return s
	}
	return string(b)
}

// text steps over a JSON string and returns the bytes between its
// quotes, which alias the line. An escape, a control byte or invalid
// UTF-8 ends the fast path.
func (d *eventDecoder) text() []byte {
	if !d.next('"') {
		d.fail()
		return nil
	}
	start, ascii := d.pos, true
	for i := start; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			raw := d.data[start:i]
			if !ascii && !utf8.Valid(raw) {
				break
			}
			d.pos = i + 1
			return raw
		}
		if c < ' ' || c == '\\' {
			break
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	d.fail()
	return nil
}

// number steps over the JSON number at d.pos and returns its literal,
// or nil if none starts there.
func (d *eventDecoder) number() []byte {
	start := d.pos
	d.next('-')
	if n := d.digits(); n == 0 || n > 1 && d.data[d.pos-n] == '0' {
		return nil
	}
	if d.next('.') && d.digits() == 0 {
		return nil
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if d.digits() == 0 {
			return nil
		}
	}
	return d.data[start:d.pos]
}

// digits steps over a run of decimal digits and returns its length.
func (d *eventDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos]-'0' <= 9 {
		d.pos++
	}
	return d.pos - start
}

func (d *eventDecoder) int() int { return int(d.integer(strconv.IntSize)) }

func (d *eventDecoder) int64() int64 { return d.integer(64) }

// integer decodes a JSON integer that fits in bits bits. A fraction or
// an exponent, which json.Unmarshal refuses for an integer field even
// when the value is whole, fails the parse and so ends the fast path.
func (d *eventDecoder) integer(bits int) int64 {
	n, err := strconv.ParseInt(string(d.number()), 10, bits)
	if err != nil {
		d.fail()
	}
	return n
}

func (d *eventDecoder) float() float64 {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	if err != nil {
		d.fail()
	}
	return f
}

func (d *eventDecoder) boolean() bool {
	switch {
	case d.literal("true"):
		return true
	case !d.literal("false"):
		d.fail()
	}
	return false
}

// ints decodes a JSON array of integers into a slice of its own, sized
// exactly, and empty but not nil for [].
func (d *eventDecoder) ints() []int {
	if !d.next('[') {
		d.fail()
		return nil
	}
	xs := d.intBuf[:0]
	d.list(']', func() { xs = append(xs, d.int()) })
	d.intBuf = xs
	return append(make([]int, 0, len(xs)), xs...)
}

// literal steps over word if it starts at d.pos.
func (d *eventDecoder) literal(word string) bool {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

// next steps over c if it starts at d.pos.
func (d *eventDecoder) next(c byte) bool {
	if d.pos >= len(d.data) || d.data[d.pos] != c {
		return false
	}
	d.pos++
	return true
}

// fail ends the scan: the line leaves the fast path.
func (d *eventDecoder) fail() {
	d.slow = true
	d.pos = len(d.data)
}
