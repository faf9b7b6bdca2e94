package httpapi

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"nanoxbar/pkg/nanoxbar"
)

// The v2 frame encoder. appendEvent writes one NDJSON line per event
// without reflection, byte for byte what a json.Encoder with
// SetEscapeHTML(false) writes for the same nanoxbar.Event: fields in
// declaration order, the omitempty fields left out at their zero value,
// strings escaped the same way and floats formatted the same way. The
// frame tests compare the two on every field of every payload, so a
// field added to a payload type without a case here fails them.

// errNonFinite refuses a NaN or infinite float, which JSON cannot
// carry; json.Encoder refuses the same values.
var errNonFinite = errors.New("httpapi: non-finite float in event frame")

// appendEvent appends ev's frame, newline included, to dst. On error
// the returned slice holds a partial frame and must not be written.
func appendEvent(dst []byte, ev *nanoxbar.Event) ([]byte, error) {
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, ev.Type)
	if ev.Index != 0 {
		dst = append(dst, `,"index":`...)
		dst = strconv.AppendInt(dst, int64(ev.Index), 10)
	}
	if ev.RequestID != "" {
		dst = append(dst, `,"request_id":`...)
		dst = appendString(dst, ev.RequestID)
	}
	if ev.Die != 0 {
		dst = append(dst, `,"die":`...)
		dst = strconv.AppendInt(dst, int64(ev.Die), 10)
	}
	if ev.DieMap != nil {
		dst = append(dst, `,"die_map":`...)
		dst = appendMapOutcome(dst, ev.DieMap)
	}
	if ev.DieError != nil {
		dst = append(dst, `,"die_error":`...)
		dst = appendWireError(dst, ev.DieError)
	}
	if ev.Result != nil {
		dst = append(dst, `,"result":`...)
		var err error
		if dst, err = appendResult(dst, ev.Result); err != nil {
			return dst, err
		}
	}
	if ev.Error != nil {
		dst = append(dst, `,"error":`...)
		dst = appendWireError(dst, ev.Error)
	}
	if ev.Done != nil {
		dst = append(dst, `,"done":{"results":`...)
		dst = strconv.AppendInt(dst, int64(ev.Done.Results), 10)
		dst = append(dst, `,"errors":`...)
		dst = strconv.AppendInt(dst, int64(ev.Done.Errors), 10)
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n'), nil
}

func appendResult(dst []byte, r *nanoxbar.Result) ([]byte, error) {
	dst = append(dst, `{"kind":`...)
	dst = appendString(dst, string(r.Kind))
	if r.Synthesis != nil {
		dst = append(dst, `,"synthesis":`...)
		dst = appendSynthesis(dst, r.Synthesis)
	}
	if c := r.Compare; c != nil {
		dst = append(dst, `,"compare":{"diode":`...)
		dst = appendSynthesis(dst, &c.Diode)
		dst = append(dst, `,"fet":`...)
		dst = appendSynthesis(dst, &c.FET)
		dst = append(dst, `,"lattice":`...)
		dst = appendSynthesis(dst, &c.Lattice)
		dst = append(dst, '}')
	}
	if r.Map != nil {
		dst = append(dst, `,"map":`...)
		dst = appendMapOutcome(dst, r.Map)
	}
	if y := r.Yield; y != nil {
		for _, f := range [...]float64{y.SuccessRate, y.AvgConfigs, y.AvgBIST, y.AvgBISD} {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return dst, errNonFinite
			}
		}
		dst = append(dst, `,"yield":{"chips":`...)
		dst = strconv.AppendInt(dst, int64(y.Chips), 10)
		dst = append(dst, `,"successes":`...)
		dst = strconv.AppendInt(dst, int64(y.Successes), 10)
		dst = append(dst, `,"success_rate":`...)
		dst = appendFloat(dst, y.SuccessRate)
		dst = append(dst, `,"avg_configs":`...)
		dst = appendFloat(dst, y.AvgConfigs)
		dst = append(dst, `,"avg_bist":`...)
		dst = appendFloat(dst, y.AvgBIST)
		dst = append(dst, `,"avg_bisd":`...)
		dst = appendFloat(dst, y.AvgBISD)
		dst = append(dst, '}')
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}'), nil
}

func appendSynthesis(dst []byte, s *nanoxbar.Synthesis) []byte {
	dst = append(dst, `{"tech":`...)
	dst = appendString(dst, s.Tech)
	dst = append(dst, `,"rows":`...)
	dst = strconv.AppendInt(dst, int64(s.Rows), 10)
	dst = append(dst, `,"cols":`...)
	dst = strconv.AppendInt(dst, int64(s.Cols), 10)
	dst = append(dst, `,"area":`...)
	dst = strconv.AppendInt(dst, int64(s.Area), 10)
	dst = append(dst, `,"method":`...)
	dst = appendString(dst, s.Method)
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, s.CacheHit)
	dst = append(dst, `,"key":`...)
	dst = appendString(dst, s.Key)
	return append(dst, '}')
}

func appendMapOutcome(dst []byte, m *nanoxbar.MapOutcome) []byte {
	dst = append(dst, `{"success":`...)
	dst = strconv.AppendBool(dst, m.Success)
	dst = append(dst, `,"configs":`...)
	dst = strconv.AppendInt(dst, int64(m.Configs), 10)
	dst = append(dst, `,"bist_calls":`...)
	dst = strconv.AppendInt(dst, int64(m.BISTCalls), 10)
	dst = append(dst, `,"bisd_calls":`...)
	dst = strconv.AppendInt(dst, int64(m.BISDCalls), 10)
	dst = append(dst, `,"chip_size":`...)
	dst = strconv.AppendInt(dst, int64(m.ChipSize), 10)
	if len(m.Rows) > 0 {
		dst = append(dst, `,"rows":`...)
		dst = appendInts(dst, m.Rows)
	}
	if len(m.Cols) > 0 {
		dst = append(dst, `,"cols":`...)
		dst = appendInts(dst, m.Cols)
	}
	return append(dst, '}')
}

func appendWireError(dst []byte, e *nanoxbar.WireError) []byte {
	dst = append(dst, `{"code":`...)
	dst = appendString(dst, e.Code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, e.Message)
	if e.RetryAfterMs != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = strconv.AppendInt(dst, e.RetryAfterMs, 10)
	}
	return append(dst, '}')
}

func appendInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendFloat formats a finite f as encoding/json does: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// up, with a negative exponent's leading zero dropped (1e-07 becomes
// 1e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString quotes s as encoding/json does with HTML escaping off:
// '"' and '\\' backslash-escaped, \b \f \n \r \t by name, other control
// bytes as \u00XX, each invalid UTF-8 byte as \ufffd, and U+2028 and
// U+2029 escaped; everything else, '<', '>' and '&' included, verbatim.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
