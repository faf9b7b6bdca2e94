package client

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"nanoxbar/pkg/nanoxbar"
)

// The v2 frame decoder. decodeEvent reads one NDJSON line of a
// /v2/jobs stream into a nanoxbar.Event without reflection. It accepts
// a strict subset of what json.Unmarshal accepts, and on every line it
// accepts it yields the Event json.Unmarshal would. Keys match exactly;
// an unknown key's value is checked and skipped. A key that matches a
// field only case-insensitively, which json.Unmarshal would fill the
// field from, and a repeated key, which json.Unmarshal would merge,
// fail the line instead. A null value leaves its field at zero, as
// json.Unmarshal leaves a field it has not yet filled. Every string and
// slice is copied out of the line, which the stream's scanner reuses.

var (
	errFrameSyntax = errors.New("malformed JSON")
	errFrameType   = errors.New("a value of the wrong type")
	errFrameRange  = errors.New("a number out of range")
	errFrameKey    = errors.New("a repeated or case-variant key")
)

// maxDepth bounds a frame's nesting, unknown values included, well
// inside encoding/json's own bound of 10000.
const maxDepth = 512

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
	data  []byte
	pos   int
	depth int // objects and arrays open at pos
	err   error
	// reqID is the last request ID decoded. Every frame of a stream
	// carries the same one, so it is allocated once per stream.
	reqID string
	// unescaped holds a string's text while its escapes are resolved,
	// and intBuf an integer array's elements while they are counted.
	unescaped []byte
	intBuf    []int
}

// decodeEvent decodes one frame. It keeps no reference to line.
func (d *eventDecoder) decodeEvent(line []byte) (nanoxbar.Event, error) {
	var ev nanoxbar.Event
	d.data, d.pos, d.depth, d.err = line, 0, 0, nil
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
	if d.space(); d.pos < len(d.data) {
		d.fail(errFrameSyntax)
	}
	d.data = nil
	return ev, d.err
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

// object decodes one JSON object (or a null, which leaves everything
// at zero) whose known keys are keys, calling member with a key's
// index and d at its value for every known key whose value is not
// null.
func (d *eventDecoder) object(keys []string, member func(k int)) {
	if d.space(); d.literal("null") {
		return
	}
	if !d.next('{') {
		d.fail(errFrameType)
		return
	}
	var seen uint32
	// The server writes keys in declaration order, so the search for
	// each key starts after the one before.
	from := 0
	d.list('}', func() {
		if d.pos >= len(d.data) || d.data[d.pos] != '"' {
			d.fail(errFrameSyntax)
			return
		}
		key := d.text()
		k := len(keys)
		for i := range keys {
			if j := (from + i) % len(keys); string(key) == keys[j] {
				k, from = j, j+1
				break
			}
		}
		if k == len(keys) {
			for _, known := range keys {
				if strings.EqualFold(string(key), known) {
					d.fail(errFrameKey)
					return
				}
			}
		} else if seen&(1<<k) != 0 {
			d.fail(errFrameKey)
			return
		}
		if !d.next(':') {
			d.fail(errFrameSyntax)
			return
		}
		if d.space(); k == len(keys) {
			d.skip()
		} else {
			seen |= 1 << k
			if !d.literal("null") {
				member(k)
			}
		}
	})
}

// list steps over the elements of an object or array whose opening
// bracket d has passed, calling elem with d at each element and
// expecting end after the last.
func (d *eventDecoder) list(end byte, elem func()) {
	if d.depth++; d.depth > maxDepth {
		d.fail(errFrameSyntax)
		return
	}
	if !d.next(end) {
		for {
			d.space()
			elem()
			if !d.next(',') {
				break
			}
		}
		if !d.next(end) {
			d.fail(errFrameSyntax)
		}
	}
	d.depth--
}

// skip checks and steps over one JSON value of any type.
func (d *eventDecoder) skip() {
	if d.pos >= len(d.data) {
		d.fail(errFrameSyntax)
		return
	}
	switch d.data[d.pos] {
	case '{':
		d.object(nil, nil)
	case '[':
		d.pos++
		d.list(']', d.skip)
	case '"':
		d.scanString()
	case 't', 'f', 'n':
		if !d.literal("true") && !d.literal("false") && !d.literal("null") {
			d.fail(errFrameSyntax)
		}
	default:
		d.number()
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

// text decodes a JSON string and returns its text, which aliases the
// line or d.unescaped and is valid until the next call.
func (d *eventDecoder) text() []byte {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		d.fail(errFrameType)
		return nil
	}
	raw, plain := d.scanString()
	if plain || d.err != nil {
		return raw
	}
	d.unescaped = unescape(d.unescaped[:0], raw)
	return d.unescaped
}

// scanString checks the JSON string at d.pos and steps over it. It
// returns the bytes between the quotes, and whether they are already
// the string's text: no escape and valid UTF-8.
func (d *eventDecoder) scanString() (raw []byte, plain bool) {
	start := d.pos + 1
	plain, ascii := true, true
	for i := start; i < len(d.data); i++ {
		c := d.data[i]
		if !stringStop[c] {
			continue
		}
		switch {
		case c == '"':
			d.pos = i + 1
			raw = d.data[start:i]
			return raw, plain && (ascii || utf8.Valid(raw))
		case c < ' ':
			d.fail(errFrameSyntax)
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		case c == '\\':
			plain = false
			if i++; i == len(d.data) {
				d.fail(errFrameSyntax)
				return nil, false
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(d.data) || hex4(d.data[i+1:i+5]) < 0 {
					d.fail(errFrameSyntax)
					return nil, false
				}
				i += 4
			default:
				d.fail(errFrameSyntax)
				return nil, false
			}
		}
	}
	d.fail(errFrameSyntax)
	return nil, false
}

// stringStop marks the bytes a string scan stops at: the closing quote,
// a backslash, control bytes and the bytes of multi-byte UTF-8.
var stringStop = func() (stop [256]bool) {
	for c := range stop {
		stop[c] = c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return stop
}()

// unescape appends the text of a checked JSON string body to dst,
// resolving it as encoding/json does: a \u surrogate pair joins into
// one rune, a lone surrogate and each invalid UTF-8 byte become
// U+FFFD.
func unescape(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\' && raw[i+1] == 'u':
			r := rune(hex4(raw[i+2 : i+6]))
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = rune(hex4(raw[i+2 : i+6]))
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
		case c == '\\':
			switch c = raw[i+1]; c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
			dst = append(dst, c)
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// hex4 parses four hex digits, or returns -1.
func hex4(b []byte) int {
	n := 0
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		n = n<<4 | int(c)
	}
	return n
}

// number checks the JSON number at d.pos and steps over it, returning
// its literal and whether it is an integer (no fraction or exponent).
func (d *eventDecoder) number() (lit []byte, integer bool) {
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	lead := d.pos
	if n := d.digits(); n == 0 || n > 1 && d.data[lead] == '0' {
		d.fail(errFrameSyntax)
		return nil, false
	}
	integer = true
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		integer = false
		if d.digits() == 0 {
			d.fail(errFrameSyntax)
			return nil, false
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		integer = false
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			d.fail(errFrameSyntax)
			return nil, false
		}
	}
	return d.data[start:d.pos], integer
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

// integer decodes a JSON integer that fits in bits bits; a fraction or
// an exponent is the wrong type even when its value is whole, as in
// encoding/json.
func (d *eventDecoder) integer(bits int) int64 {
	if !d.numeric() {
		return 0
	}
	lit, integer := d.number()
	if d.err != nil {
		return 0
	}
	if !integer {
		d.fail(errFrameType)
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		d.fail(errFrameRange)
	}
	return n
}

func (d *eventDecoder) float() float64 {
	if !d.numeric() {
		return 0
	}
	lit, _ := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail(errFrameRange)
	}
	return f
}

// numeric reports whether a number starts at d.pos, failing the frame
// with errFrameType if not.
func (d *eventDecoder) numeric() bool {
	if d.pos < len(d.data) && (d.data[d.pos] == '-' || '0' <= d.data[d.pos] && d.data[d.pos] <= '9') {
		return true
	}
	d.fail(errFrameType)
	return false
}

func (d *eventDecoder) boolean() bool {
	switch {
	case d.literal("true"):
		return true
	case !d.literal("false"):
		d.fail(errFrameType)
	}
	return false
}

// ints decodes a JSON array of integers into a slice of its own, sized
// exactly, and empty but not nil for [].
func (d *eventDecoder) ints() []int {
	if !d.next('[') {
		d.fail(errFrameType)
		return nil
	}
	xs := d.intBuf[:0]
	d.list(']', func() { xs = append(xs, d.int()) })
	d.intBuf = xs
	return append(make([]int, 0, len(xs)), xs...)
}

// literal steps over word if it starts at d.pos.
func (d *eventDecoder) literal(word string) bool {
	if d.err != nil || len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

// next skips white space and steps over c if it comes next.
func (d *eventDecoder) next(c byte) bool {
	if d.space(); d.err != nil || d.pos >= len(d.data) || d.data[d.pos] != c {
		return false
	}
	d.pos++
	return true
}

// space skips JSON white space.
func (d *eventDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// fail records the frame's first error and ends the scan.
func (d *eventDecoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w at byte %d", err, d.pos)
	}
	d.pos = len(d.data)
}
