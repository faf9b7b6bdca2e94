package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		// Overlapping children cover [10,60]; the last one runs past
		// the parent's end and counts only up to it: [90,100].
		{ID: 2, Parent: 1, Name: "child", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "child", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Name: "late", Start: ms(90), End: ms(120)},
		// A child nested in another child: [45,55] is inside [30,60].
		{ID: 5, Parent: 1, Name: "inner", Start: ms(45), End: ms(55)},
		{ID: 6, Parent: 3, Name: "grandchild", Start: ms(35), End: ms(50)},
	}
	self := SelfTimes(spans)
	want := map[string]time.Duration{
		"root":       ms(100 - 50 - 10),
		"child":      ms(30) + ms(30-15),
		"late":       ms(30),
		"inner":      ms(10),
		"grandchild": ms(15),
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *Recorder
	if id := off.Begin(0, "x"); id != 0 {
		t.Fatal("nil recorder returned a span")
	}
	off.End(0)

	r := New()
	root := r.Begin(0, "root")
	kid := r.Begin(root, "kid")
	r.End(kid)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End {
		t.Fatalf("spans %+v", spans)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Span
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil || len(back) != 2 {
		t.Fatalf("round trip: %v %+v", err, back)
	}
}
