package client

import (
	"context"
	"errors"
	"fmt"
	"io"
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

// endlessErrorBody is a 500's body that never ends its JSON value: an
// error whose message runs on in 'x' bytes up to size bytes. It counts
// the bytes read from it.
type endlessErrorBody struct {
	size, read int
}

func (b *endlessErrorBody) Read(p []byte) (int, error) {
	const prefix = `{"error":{"code":"internal","message":"`
	if b.read >= b.size {
		return 0, io.EOF
	}
	n := min(len(p), b.size-b.read)
	for i := range p[:n] {
		if k := b.read + i; k < len(prefix) {
			p[i] = prefix[k]
		} else {
			p[i] = 'x'
		}
	}
	b.read += n
	return n, nil
}

func (b *endlessErrorBody) Close() error { return nil }

// errorBodyTransport answers every request with a 500 and body.
type errorBodyTransport struct{ body *endlessErrorBody }

func (s errorBodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusInternalServerError, Header: http.Header{}, Body: s.body, Request: r}, nil
}

// TestErrorBodyReadIsBounded: a non-200 body whose JSON value does not
// end is read no further than maxErrorBodyBytes, not to its end, and
// answers ErrInternal naming the status.
func TestErrorBodyReadIsBounded(t *testing.T) {
	body := &endlessErrorBody{size: 32 << 20}
	cl := New("http://stub", WithHTTPClient(&http.Client{Transport: errorBodyTransport{body}}))
	_, err := cl.Synthesize(context.Background(), nanoxbar.Func("maj3"))
	if !errors.Is(err, nanoxbar.ErrInternal) || !strings.Contains(err.Error(), "server status 500") {
		t.Fatalf("err = %v, want ErrInternal naming status 500", err)
	}
	if body.read > maxErrorBodyBytes {
		t.Fatalf("read %d bytes of the error body, want at most %d", body.read, maxErrorBodyBytes)
	}
}
