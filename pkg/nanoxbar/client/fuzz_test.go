package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// stubTransport answers every request with a fixed status and body.
type stubTransport struct {
	status int
	body   []byte
}

func (s stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{
		StatusCode: s.status,
		Header:     http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:       io.NopCloser(bytes.NewReader(s.body)),
		Request:    r,
	}, nil
}

// reachesDone reports whether an NDJSON body holds a done frame that
// every earlier non-blank line parses up to.
func reachesDone(body []byte) bool {
	for _, line := range bytes.Split(body, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var ev nanoxbar.Event
		if json.Unmarshal(line, &ev) != nil {
			return false
		}
		if ev.Type == nanoxbar.EventDone {
			return true
		}
	}
	return false
}

var taxonomy = []error{
	nanoxbar.ErrBadSpec, nanoxbar.ErrInfeasible, nanoxbar.ErrCanceled,
	nanoxbar.ErrOverloaded, nanoxbar.ErrUnavailable, nanoxbar.ErrInternal,
}

// FuzzJobsStream feeds the v2 stream reader arbitrary statuses and
// bodies. Jobs may return nil only after consuming a done frame, must
// never hand the done frame to the handler, and every error it returns
// matches exactly one taxonomy sentinel. The cluster forward reads
// owners' streams through the same reader.
func FuzzJobsStream(f *testing.F) {
	const (
		result = `{"type":"result","index":0,"request_id":"7f3a","result":{"kind":"synthesize","synthesis":{"tech":"lattice","rows":2,"cols":3,"area":6,"method":"dual","cache_hit":false}}}`
		die    = `{"type":"die","die":1,"die_map":{"success":true,"configs":1}}`
		yield  = `{"type":"result","result":{"kind":"yield","yield":{"chips":3}}}`
		shed   = `{"type":"error","index":1,"error":{"code":"overloaded","message":"engine: queue saturated","retry_after_ms":1000}}`
		bad    = `{"type":"error","index":2,"error":{"code":"bad_spec","message":"unknown benchmark"}}`
		done   = `{"type":"done","done":{"results":1,"errors":0}}`
	)
	for _, body := range []string{
		result + "\n" + done + "\n",
		die + "\n" + die + "\n" + yield + "\n" + done + "\n",
		shed + "\n" + bad + "\n" + result + "\n" + done,
		"\r\n" + result + "\r\n\r\n" + done + "\r\n",
		result + "\n" + done[:len(done)/2],
		result[:len(result)/3],
		result + "\n",
		done + "\n" + "not json\n",
		`{"type":"result","result":{"kind":"synthesize","synthesis":{"method":"` + strings.Repeat("m", 5<<10) + `"}}}` + "\n" + done + "\n",
		"",
	} {
		f.Add(http.StatusOK, []byte(body))
	}
	f.Add(http.StatusServiceUnavailable, []byte(`{"error":{"code":"unavailable","message":"server is draining for shutdown"}}`))
	f.Add(http.StatusTooManyRequests, []byte(`{"error":{"code":"overloaded","message":"concurrency limit 1 saturated"}}`))
	f.Add(http.StatusRequestEntityTooLarge, []byte(`{"error":{"code":"bad_spec","message":"batch of 10001 exceeds limit 10000"}}`))
	f.Add(http.StatusServiceUnavailable, []byte(`{"error":"server is draining for shutdown","code":"unavailable"}`))
	f.Add(http.StatusInternalServerError, []byte(`{"error":{"code":"no_such_code","message":"?"}}`))

	f.Fuzz(func(t *testing.T, status int, body []byte) {
		if status < 100 || status > 599 {
			t.Skip()
		}
		cl := client.New("http://stub", client.WithHTTPClient(&http.Client{
			Transport: stubTransport{status: status, body: body},
		}))
		err := cl.Jobs(context.Background(), nanoxbar.JobsRequest{
			Requests: []nanoxbar.Request{{Kind: nanoxbar.KindSynthesize, Function: nanoxbar.Func("maj3")}},
		}, func(ev nanoxbar.Event) {
			if ev.Type == nanoxbar.EventDone {
				t.Errorf("handler received the done frame")
			}
		})
		if err == nil {
			if status != http.StatusOK || !reachesDone(body) {
				t.Fatalf("Jobs returned nil without a done frame (status %d, body %q)", status, body)
			}
			return
		}
		matched := 0
		for _, sentinel := range taxonomy {
			if errors.Is(err, sentinel) {
				matched++
			}
		}
		if matched != 1 {
			t.Fatalf("error %v matches %d taxonomy sentinels, want 1", err, matched)
		}
	})
}
