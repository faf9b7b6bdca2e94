package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"nanoxbar/pkg/nanoxbar"
)

// jsonFrame is the reference encoding: what eventStream wrote before
// appendEvent, a json.Encoder with HTML escaping off.
func jsonFrame(ev *nanoxbar.Event) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(ev)
	return buf.Bytes(), err
}

// checkFrame fails t unless appendEvent and jsonFrame agree on ev:
// the same bytes, or both refusing it.
func checkFrame(t *testing.T, ev *nanoxbar.Event) {
	t.Helper()
	want, werr := jsonFrame(ev)
	got, err := appendEvent(nil, ev)
	switch {
	case werr != nil || err != nil:
		if werr == nil || !errors.Is(err, errNonFinite) {
			t.Fatalf("appendEvent error %v, json.Encoder error %v, for %+v", err, werr, ev)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("appendEvent =\n%s\njson.Encoder =\n%s", got, want)
	}
}

// setLeaves walks the JSON fields of the struct v, allocating the
// pointers on its way, and sets leaf number which (every leaf, when
// which is negative) to a non-zero value built from the leaf's number.
// next counts the leaves passed so far; the result reports whether a
// leaf under v was set, so an untouched pointer can stay nil.
func setLeaves(v reflect.Value, which int, next *int) bool {
	set := false
	for i := 0; i < v.NumField(); i++ {
		sf := v.Type().Field(i)
		if !sf.IsExported() || sf.Tag.Get("json") == "-" {
			continue
		}
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.Pointer:
			p := reflect.New(f.Type().Elem())
			if setLeaves(p.Elem(), which, next) {
				f.Set(p)
				set = true
			}
		case f.Kind() == reflect.Struct:
			set = setLeaves(f, which, next) || set
		default:
			n := *next
			*next++
			if which >= 0 && which != n {
				continue
			}
			set = true
			switch f.Kind() {
			case reflect.String:
				f.SetString(fmt.Sprintf("v%d \"<&>\\\n\t\x01\x7f é \xff \u2028\u2029", n))
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(n+1) * -7)
			case reflect.Float64:
				f.SetFloat((float64(n) + 0.25) * math.Pow(10, float64(n%5*11-22)))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Slice:
				f.Set(reflect.ValueOf([]int{n, 0, -n, 1 << 40}))
			default:
				panic(fmt.Sprintf("setLeaves: no value for %s.%s of kind %s", v.Type(), sf.Name, f.Kind()))
			}
		}
	}
	return set
}

// TestAppendEventMatchesJSONSchema pins the encoder to encoding/json on
// every field of Event and its payloads, one field at a time and then
// all at once: a field added to a payload type without an encoder case
// is left out of the frame, and the comparison fails.
func TestAppendEventMatchesJSONSchema(t *testing.T) {
	var all nanoxbar.Event
	leaves := 0
	setLeaves(reflect.ValueOf(&all).Elem(), -1, &leaves)
	if leaves < 40 {
		t.Fatalf("the walk reached %d leaves, want the whole schema", leaves)
	}
	for which := 0; which < leaves; which++ {
		var ev nanoxbar.Event
		n := 0
		setLeaves(reflect.ValueOf(&ev).Elem(), which, &n)
		checkFrame(t, &ev)
	}
	checkFrame(t, &all)
	checkFrame(t, &nanoxbar.Event{})
	checkFrame(t, &nanoxbar.Event{Type: nanoxbar.EventDie, DieMap: &nanoxbar.MapOutcome{Rows: []int{}}})
}

// TestAppendEventFloats covers the float forms: the switch to exponent
// form at 1e-6 and 1e21, the exponent's dropped zero, negative zero,
// and the refusal of NaN and the infinities.
func TestAppendEventFloats(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.025, 1.28, 1e-6, 9.99e-7, 1e-7, 1.5e-10, 5e-324,
		1e20, 1e21, 123456789e13, -1e21, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64,
		1.0 / 3, 2.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		y := &nanoxbar.YieldStats{Chips: 3, SuccessRate: f, AvgConfigs: -f, AvgBIST: f / 7, AvgBISD: f * 1e-3}
		checkFrame(t, &nanoxbar.Event{Type: nanoxbar.EventResult, Result: &nanoxbar.Result{Kind: nanoxbar.KindYield, Yield: y}})
	}
}

// TestEventStreamFailsOnNonFinite: a frame the encoder refuses marks
// the stream failed, so nothing, not even the done frame, follows it.
func TestEventStreamFailsOnNonFinite(t *testing.T) {
	var out bytes.Buffer
	es := &eventStream{w: &out, reqID: "r"}
	es.send(nanoxbar.Event{Type: nanoxbar.EventDie, Die: 1}, false)
	es.send(nanoxbar.Event{Type: nanoxbar.EventResult, Result: &nanoxbar.Result{
		Kind: nanoxbar.KindYield, Yield: &nanoxbar.YieldStats{SuccessRate: math.NaN()},
	}}, false)
	es.send(nanoxbar.Event{Type: nanoxbar.EventDone, Done: &nanoxbar.JobsSummary{Results: 1}}, false)
	if want := `{"type":"die","request_id":"r","die":1}` + "\n"; out.String() != want || !es.err {
		t.Fatalf("stream wrote %q (failed %v), want %q and failed", out.String(), es.err, want)
	}
}

// FuzzEventEncode places fuzzed strings, integers, floats and booleans
// into every frame shape: appendEvent's bytes equal json.Encoder's, and
// a non-finite float is refused by both.
func FuzzEventEncode(f *testing.F) {
	f.Add("maj3", int64(7), 0.025, true)
	f.Add("", int64(0), 0.0, false)
	f.Add("<script>&amp;\"\\\n\r\t\b\f\x00\x1f\x7f", int64(-1), -0.0, true)
	f.Add("\xff\xfe\xed\xa0\x80 \u2028\u2029 é 𝄞", int64(math.MaxInt64), math.MaxFloat64, false)
	f.Add("1e-7", int64(math.MinInt64), 1e-7, true)
	f.Add("1e21", int64(1<<40), 1e21, false)
	f.Add("nan", int64(2), math.NaN(), true)
	f.Add("inf", int64(3), math.Inf(-1), false)
	f.Fuzz(func(t *testing.T, s string, n int64, x float64, b bool) {
		i := int(n)
		syn := nanoxbar.Synthesis{Tech: s, Rows: i, Cols: -i, Area: i, Method: s, CacheHit: b, Key: s}
		mo := &nanoxbar.MapOutcome{Success: b, Configs: i, BISTCalls: i, BISDCalls: -i, ChipSize: i}
		if b {
			mo.Rows, mo.Cols = []int{i, 0, -i}, []int{i}
		}
		we := &nanoxbar.WireError{Code: s, Message: s + s, RetryAfterMs: n}
		for _, ev := range []nanoxbar.Event{
			{Type: nanoxbar.EventResult, Index: i, RequestID: s, Result: &nanoxbar.Result{Kind: nanoxbar.Kind(s), Synthesis: &syn, Degraded: b}},
			{Type: nanoxbar.EventResult, Index: i, Result: &nanoxbar.Result{Kind: nanoxbar.KindCompare, Compare: &nanoxbar.Comparison{Diode: syn, FET: syn, Lattice: syn}}},
			{Type: nanoxbar.EventResult, RequestID: s, Result: &nanoxbar.Result{Kind: nanoxbar.KindMap, Map: mo}},
			{Type: nanoxbar.EventResult, Index: i, Result: &nanoxbar.Result{Kind: nanoxbar.KindYield, Yield: &nanoxbar.YieldStats{
				Chips: i, Successes: -i, SuccessRate: x, AvgConfigs: -x, AvgBIST: x / 3, AvgBISD: x * 1e-9,
			}}},
			{Type: nanoxbar.EventError, Index: i, RequestID: s, Error: we},
			{Type: nanoxbar.EventDie, Index: i, RequestID: s, Die: i, DieMap: mo},
			{Type: nanoxbar.EventDie, Die: -i, DieError: we},
			{Type: nanoxbar.EventDone, RequestID: s, Done: &nanoxbar.JobsSummary{Results: i, Errors: -i}},
			{Type: s},
		} {
			checkFrame(t, &ev)
		}
	})
}
