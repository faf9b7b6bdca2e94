package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nanoxbar/pkg/nanoxbar"
)

// setLeaves walks the JSON fields of the struct v, allocating the
// pointers on its way, and sets leaf number which (every leaf, when
// which is negative) to a non-zero value built from the leaf's number,
// a string leaf to str of it. next counts the leaves passed so far; the
// result reports whether a leaf under v was set, so an untouched
// pointer can stay nil.
func setLeaves(v reflect.Value, which int, next *int, str func(n int) string) bool {
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
			if setLeaves(p.Elem(), which, next, str) {
				f.Set(p)
				set = true
			}
		case f.Kind() == reflect.Struct:
			set = setLeaves(f, which, next, str) || set
		default:
			n := *next
			*next++
			if which >= 0 && which != n {
				continue
			}
			set = true
			switch f.Kind() {
			case reflect.String:
				f.SetString(str(n))
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(n+1) * -7)
			case reflect.Float64:
				f.SetFloat(float64(n) + 0.25)
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

// eventVariants returns one Event per JSON leaf field of Event and of
// every payload it reaches, each setting only that leaf, and last one
// Event setting every leaf at once; str makes the string leaves.
func eventVariants(str func(n int) string) []nanoxbar.Event {
	var all nanoxbar.Event
	leaves := 0
	setLeaves(reflect.ValueOf(&all).Elem(), -1, &leaves, str)
	out := make([]nanoxbar.Event, 0, leaves+1)
	for which := 0; which < leaves; which++ {
		var ev nanoxbar.Event
		n := 0
		setLeaves(reflect.ValueOf(&ev).Elem(), which, &n, str)
		out = append(out, ev)
	}
	return append(out, all)
}

// TestDecodeEventMatchesJSONSchema pins the decoder to encoding/json
// on every field of Event and its payloads, and pins the fast path to
// every frame shape the server writes: with plain string leaves (no
// escape in the JSON) each variant must decode on the fast path, so a
// field added to a payload type without a decoder case fails here
// rather than quietly falling back to json.Unmarshal. With string
// leaves needing every kind of escape, each variant must still decode
// as json.Unmarshal does.
func TestDecodeEventMatchesJSONSchema(t *testing.T) {
	for _, tc := range []struct {
		name string
		str  func(n int) string
		fast bool
	}{
		{"plain", func(n int) string { return fmt.Sprintf("v%d é 𝄞", n) }, true},
		{"escaped", func(n int) string { return fmt.Sprintf("v%d \"<&>\\\n\t\x01 é 𝄞 \u2028", n) }, false},
	} {
		variants := eventVariants(tc.str)
		if len(variants) < 40 {
			t.Fatalf("the walk reached %d leaves, want the whole schema", len(variants)-1)
		}
		for i, want := range variants {
			line, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if tc.fast {
				var d eventDecoder
				got, ok := d.fast(line)
				if !ok {
					t.Fatalf("%s variant %d: %s leaves the fast path", tc.name, i, line)
				}
				if !reflect.DeepEqual(got, want) {
					back, _ := json.Marshal(got)
					t.Fatalf("%s variant %d: the fast path reads %s back as\n%s", tc.name, i, line, back)
				}
			}
			if err := checkDecode(t, line); err != nil {
				t.Fatalf("%s variant %d: decodeEvent(%s): %v", tc.name, i, line, err)
			}
		}
	}
}

// checkDecode decodes line with decodeEvent and with json.Unmarshal and
// fails t unless both give the same Event and decodeEvent errs exactly
// when json.Unmarshal does. It scribbles over line after decoding, so a
// string or slice still aliasing it shows up as a mismatch.
func checkDecode(t *testing.T, line []byte) error {
	t.Helper()
	orig := bytes.Clone(line)
	var want nanoxbar.Event
	jerr := json.Unmarshal(orig, &want)
	var d eventDecoder
	got, err := d.decodeEvent(line)
	for i := range line {
		line[i] = 'x'
	}
	if (err != nil) != (jerr != nil) {
		t.Fatalf("decodeEvent(%q) error %v, json.Unmarshal error %v", orig, err, jerr)
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("decodeEvent(%q) =\n%s, json.Unmarshal gives\n%s", orig, g, w)
	}
	return err
}

// hostileFrames are lines where a hand decoder and encoding/json are
// most likely to part ways, each with whether json.Unmarshal refuses
// it.
var hostileFrames = []struct {
	line    string
	wantErr bool
}{
	{`{"type":"done","type":"result"}`, false},
	{`{"type":"result","result":{"kind":"map"},"result":{"map":{"success":true}}}`, false},
	{`{"type":"die","die_map":{"rows":[1],"rows":[2]}}`, false},
	{`{"Type":"done"}`, false},
	{`{"type":"result","result":{"KIND":"map"}}`, false},
	{"{\"type\":\"result\",\"result\":{\"\u212Aind\":\"map\"}}", false}, // KELVIN SIGN folds to k
	{`{"typ\u0065":"done"}`, false},
	{` {"type" : "done"}`, false},
	{`{"type":"done","done":{"results":1}}`, false},
	{`{"type":"done"}`, false},
	{`{}`, false},
	{`null`, false},
	{` {"type":null,"index":null,"die_map":null,"result":{"compare":{"diode":null}},"error":null} `, false},
	{`{"type":"die","die_map":{"rows":null,"cols":[]}}`, false},
	{`{"type":"die","die_map":{"rows":[1,null]}}`, false},
	{`{"type":"error","error":{"code":"bad_spec","message":"pair \ud834\udd1e, lone \ud834 and \udd1e, swapped \udd1e\ud834"}}`, false},
	{`{"type":"error","error":{"message":"high then escape \ud834\n"}}`, false},
	{"{\"type\":\"error\",\"error\":{\"message\":\"raw \xff\xfe and \xed\xa0\x80 bytes\"}}", false},
	{`{"type":"error","error":{"message":"\/\b\f\n\r\t\\\"\u0000\u001f"}}`, false},
	{`{"type":"error","error":{"message":"\'"}}`, true},
	{`{"type":"error","error":{"message":"\u12"}}`, true},
	{"{\"type\":\"error\",\"error\":{\"message\":\"tab\there\"}}", true},
	{`{"type":"die","die":9223372036854775807,"index":-9223372036854775808}`, false},
	{`{"type":"die","die":9223372036854775808}`, true},
	{`{"type":"die","die":-9223372036854775809}`, true},
	{`{"type":"error","error":{"retry_after_ms":99999999999999999999}}`, true},
	{`{"type":"die","die":1e2}`, true},
	{`{"type":"die","die":1.0}`, true},
	{`{"type":"die","die":-0}`, false},
	{`{"type":"die","die":01}`, true},
	{`{"type":"die","die":"1"}`, true},
	{`{"type":"result","result":{"yield":{"success_rate":1e400}}}`, true},
	{`{"type":"result","result":{"yield":{"success_rate":-0.0,"avg_configs":1E-400,"avg_bist":2.5e+3,"avg_bisd":7}}}`, false},
	{`{"type":"result","result":{"yield":{"success_rate":.5}}}`, true},
	{`{"type":"result","result":{"yield":{"success_rate":1.}}}`, true},
	{`{"type":"result","result":{"degraded":1}}`, true},
	{`{"type":"result","result":"map"}`, true},
	{`{"type":"done","extra":{"a":[1,{"b":null},"c",true,false,-1.5e3]},"done":{"results":1}}`, false},
	{`{"type":"done","extra":[1,]}`, true},
	{`{"type":"done","extra":tru}`, true},
	{`{"type":"done",}`, true},
	{`{"type":"done"} {}`, true},
	{`{"type":"done"`, true},
	{`["done"]`, true},
	{`{"type":"done","extra":` + strings.Repeat("[", 512) + strings.Repeat("]", 512) + `}`, false},
}

// TestDecodeEventHostileLines checks each hostile frame's verdict and
// that decodeEvent and json.Unmarshal agree on it.
func TestDecodeEventHostileLines(t *testing.T) {
	for _, tc := range hostileFrames {
		if err := checkDecode(t, []byte(tc.line)); (err != nil) != tc.wantErr {
			t.Errorf("decodeEvent(%q) error %v, want an error: %v", tc.line, err, tc.wantErr)
		}
	}
}

// TestDecodeEventReusesRequestID: the frames of one stream share their
// request ID string, and a new ID replaces it.
func TestDecodeEventReusesRequestID(t *testing.T) {
	var d eventDecoder
	a, _ := d.decodeEvent([]byte(`{"type":"die","request_id":"r-1","die":1}`))
	b, _ := d.decodeEvent([]byte(`{"type":"die","request_id":"r-1","die":2}`))
	c, _ := d.decodeEvent([]byte(`{"type":"done","request_id":"r-2"}`))
	if a.RequestID != "r-1" || b.RequestID != "r-1" || c.RequestID != "r-2" {
		t.Fatalf("request IDs %q %q %q", a.RequestID, b.RequestID, c.RequestID)
	}
	done := []byte(`{"type":"done","request_id":"r-2","done":{"results":1,"errors":0}}`)
	if allocs := testing.AllocsPerRun(100, func() { d.decodeEvent(done) }); allocs != 1 {
		t.Fatalf("a done frame with the stream's request ID allocates %v times, want 1 (its summary)", allocs)
	}
}

// FuzzEventDecode: arbitrary bytes never panic the decoder, which gives
// the Event json.Unmarshal gives and errs exactly when it does.
func FuzzEventDecode(f *testing.F) {
	for _, line := range []string{
		// FuzzJobsStream's frames.
		`{"type":"result","index":0,"request_id":"7f3a","result":{"kind":"synthesize","synthesis":{"tech":"lattice","rows":2,"cols":3,"area":6,"method":"dual","cache_hit":false}}}`,
		`{"type":"die","die":1,"die_map":{"success":true,"configs":1}}`,
		`{"type":"result","result":{"kind":"yield","yield":{"chips":3}}}`,
		`{"type":"error","index":1,"error":{"code":"overloaded","message":"engine: queue saturated","retry_after_ms":1000}}`,
		`{"type":"error","index":2,"error":{"code":"bad_spec","message":"unknown benchmark"}}`,
		`{"type":"done","done":{"results":1,"errors":0}}`,
		// README's frames, elided ones as printed.
		`{"type":"die","die":1,"die_map":{"success":true,"configs":1,…}}`,
		`{"type":"result","request_id":"1889c66a26f92ee9","result":{"kind":"synthesize","synthesis":{"tech":"4T-lattice","rows":2,"cols":3,"area":6,"method":"dual","cache_hit":false,"key":"3f93f09c…"}}}`,
		`{"type":"done","request_id":"1889c66a26f92ee9","done":{"results":1,"errors":0}}`,
		`{"type":"result","result":{"kind":"yield","yield":{"chips":200,"successes":200,"success_rate":1,"avg_configs":1.28,"avg_bist":1.28,"avg_bisd":0.025}}}`,
		`{"type":"error","error":{"code":"infeasible","message":"core: implementation 72×148 exceeds chip 8×8"}}`,
		`{"type":"die","die":3,"die_map":{"success":true,"configs":2,"bist_calls":2,"bisd_calls":0,"chip_size":6,"rows":[0,2,5],"cols":[1,3,4]}}`,
	} {
		f.Add([]byte(line))
	}
	for _, tc := range hostileFrames {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecode(t, line)
	})
}

// typicalFrames are five frames of the shapes a serving mix reads most:
// a synthesize hit, a map result, a streamed die, a yield result and
// the done frame.
var typicalFrames = [][]byte{
	[]byte(`{"type":"result","request_id":"1889c66a26f92ee9","result":{"kind":"synthesize","synthesis":{"tech":"4T-lattice","rows":2,"cols":3,"area":6,"method":"dual","cache_hit":true,"key":"3f93f09c2c6b8e1a"}}}`),
	[]byte(`{"type":"result","request_id":"1889c66a26f92ee9","result":{"kind":"map","map":{"success":true,"configs":4,"bist_calls":4,"bisd_calls":0,"chip_size":22,"rows":[3,17,9],"cols":[0,12,5,20,8,14]}}}`),
	[]byte(`{"type":"die","request_id":"1889c66a26f92ee9","die":7,"die_map":{"success":true,"configs":1,"bist_calls":1,"bisd_calls":0,"chip_size":16,"rows":[0,1,2,3,4,5],"cols":[0,1,2,3,4,5,6,7,8]}}`),
	[]byte(`{"type":"result","request_id":"1889c66a26f92ee9","result":{"kind":"yield","yield":{"chips":12,"successes":11,"success_rate":0.9166666666666666,"avg_configs":1.25,"avg_bist":1.25,"avg_bisd":0.08333333333333333}}}`),
	[]byte(`{"type":"done","request_id":"1889c66a26f92ee9","done":{"results":1,"errors":0}}`),
}

// BenchmarkDecodeEvent decodes typicalFrames once per op, with
// json.Unmarshal (the reader before decodeEvent) and with decodeEvent.
func BenchmarkDecodeEvent(b *testing.B) {
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range typicalFrames {
				var ev nanoxbar.Event
				if err := json.Unmarshal(line, &ev); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var d eventDecoder
		for i := 0; i < b.N; i++ {
			for _, line := range typicalFrames {
				if _, err := d.decodeEvent(line); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
