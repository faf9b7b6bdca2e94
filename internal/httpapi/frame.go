package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"

	"nanoxbar/pkg/nanoxbar"
)

// The v2 frame encoder. appendEvent writes one NDJSON line per event
// without reflection, byte for byte what a json.Encoder with
// SetEscapeHTML(false) writes for the same nanoxbar.Event: fields in
// declaration order, the omitempty fields left out at their zero value
// and floats formatted the same way. A string of printable ASCII needs
// no escape and is copied as it is; a json.Encoder quotes any other.
// The frame tests compare the two on every field of every payload, so a
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

// appendString quotes s as encoding/json does with HTML escaping off.
// Printable ASCII other than '"' and '\\', which covers the types,
// kinds, methods, keys and minted request IDs of every frame, is copied
// as it is; any other string, such as a message quoting a bad spec,
// goes through a json.Encoder.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return appendQuoted(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendQuoted quotes s with a json.Encoder. It encodes a copy of s:
// handing s itself to the encoder would move every frame's payload to
// the heap.
func appendQuoted(dst []byte, s string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.Encode(strings.Clone(s)) // a string always encodes
	return append(dst, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
}
