package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nanoxbar/pkg/nanoxbar"
)

// ndjsonServer answers every request with one event line of the given
// synthesis method, then (when done is set) the done event.
func ndjsonServer(t *testing.T, method string, done bool) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"type":"result","index":0,"result":{"kind":"synthesize","synthesis":{"tech":"lattice","rows":2,"cols":2,"area":4,"method":%q}}}`+"\n", method)
		if done {
			fmt.Fprintln(w, `{"type":"done","done":{"results":1,"errors":0}}`)
		}
	}))
	t.Cleanup(ts.Close)
	cl := New(ts.URL)
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestReaderGrowsForLongEvents: the reader starts small but still
// decodes an event line far beyond its initial buffer.
func TestReaderGrowsForLongEvents(t *testing.T) {
	method := strings.Repeat("m", 1<<20)
	syn, err := ndjsonServer(t, method, true).Synthesize(context.Background(), nanoxbar.Func("maj3"))
	if err != nil {
		t.Fatal(err)
	}
	if syn.Method != method {
		t.Fatalf("decoded a %d-byte method, want %d bytes", len(syn.Method), len(method))
	}
}

// TestReaderRejectsOverlongEvents: a line past maxEventBytes fails as a
// typed ErrUnavailable rather than hanging or growing without bound.
func TestReaderRejectsOverlongEvents(t *testing.T) {
	cl := ndjsonServer(t, strings.Repeat("m", maxEventBytes), true)
	_, err := cl.Synthesize(context.Background(), nanoxbar.Func("maj3"))
	if !errors.Is(err, nanoxbar.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}
