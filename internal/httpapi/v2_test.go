package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/engine"
	"nanoxbar/pkg/nanoxbar"
	"nanoxbar/pkg/nanoxbar/client"
)

// readEvents posts a jobs body and parses the full NDJSON stream.
func readEvents(t *testing.T, url string, body any) (int, []nanoxbar.Event) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v2/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		// Re-encode the error body as a single pseudo-event for callers
		// asserting on failures.
		var er nanoxbar.ErrorResponse
		if err := json.Unmarshal(buf.Bytes(), &er); err != nil {
			t.Fatalf("status %d with unparsable error body %q", resp.StatusCode, buf.String())
		}
		return resp.StatusCode, []nanoxbar.Event{{Type: nanoxbar.EventError, Error: &er.Error}}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	var evs []nanoxbar.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev nanoxbar.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, evs
}

func TestV2JobsBatchStreaming(t *testing.T) {
	ts := newTestServer(t)
	var jobs nanoxbar.JobsRequest
	for i := 0; i < 20; i++ {
		jobs.Requests = append(jobs.Requests, engine.Request{
			Kind: engine.KindMap, Function: engine.FunctionSpec{Name: "maj3"},
			Density: 0.05, Seed: int64(i),
		})
	}
	code, evs := readEvents(t, ts.URL, jobs)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if last := evs[len(evs)-1]; last.Type != nanoxbar.EventDone ||
		last.Done == nil || last.Done.Results != 20 || last.Done.Errors != 0 {
		t.Fatalf("bad done event: %+v", evs[len(evs)-1])
	}
	seen := make(map[int]bool)
	for _, ev := range evs[:len(evs)-1] {
		if ev.Type != nanoxbar.EventResult || ev.Result == nil || ev.Result.Map == nil {
			t.Fatalf("unexpected event %+v", ev)
		}
		if seen[ev.Index] {
			t.Fatalf("request %d resolved twice", ev.Index)
		}
		seen[ev.Index] = true
	}
	if len(seen) != 20 {
		t.Fatalf("resolved %d of 20 requests", len(seen))
	}
}

func TestV2JobsDieStreaming(t *testing.T) {
	ts := newTestServer(t)
	const chips = 16
	code, evs := readEvents(t, ts.URL, nanoxbar.JobsRequest{
		StreamDies: true,
		Requests: []engine.Request{{
			Kind: engine.KindYield, Function: engine.FunctionSpec{Name: "maj3"},
			Density: 0.04, Chips: chips, Seed: 11,
		}},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	dies, results := 0, 0
	dieSeen := make(map[int]bool)
	for _, ev := range evs {
		switch ev.Type {
		case nanoxbar.EventDie:
			dies++
			if ev.DieMap == nil || ev.DieError != nil {
				t.Fatalf("bad die event %+v", ev)
			}
			dieSeen[ev.Die] = true
		case nanoxbar.EventResult:
			results++
			if ev.Result.Yield == nil || ev.Result.Yield.Chips != chips {
				t.Fatalf("bad yield result %+v", ev.Result)
			}
		}
	}
	if dies != chips || len(dieSeen) != chips {
		t.Fatalf("streamed %d die events (%d distinct), want %d", dies, len(dieSeen), chips)
	}
	if results != 1 {
		t.Fatalf("got %d result events, want 1", results)
	}
}

// TestV2JobsErrorEvents: request-level failures arrive as typed error
// events without disturbing the rest of the stream.
func TestV2JobsErrorEvents(t *testing.T) {
	ts := newTestServer(t)
	code, evs := readEvents(t, ts.URL, nanoxbar.JobsRequest{Requests: []engine.Request{
		{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "maj3"}},
		{Kind: engine.KindSynthesize, Function: engine.FunctionSpec{Name: "not-a-benchmark"}},
	}})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var okEv, errEv *nanoxbar.Event
	for i := range evs {
		switch evs[i].Type {
		case nanoxbar.EventResult:
			okEv = &evs[i]
		case nanoxbar.EventError:
			errEv = &evs[i]
		}
	}
	if okEv == nil || okEv.Index != 0 || okEv.Result.Synthesis == nil {
		t.Fatalf("missing success event: %+v", okEv)
	}
	if errEv == nil || errEv.Index != 1 || errEv.Error == nil {
		t.Fatalf("missing error event: %+v", errEv)
	}
	if errEv.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("error code %q, want %q", errEv.Error.Code, apierr.CodeBadSpec)
	}
	if evs[len(evs)-1].Done.Errors != 1 {
		t.Fatalf("done.errors = %d, want 1", evs[len(evs)-1].Done.Errors)
	}
}

// TestV2StatusMapping is the HTTP half of the taxonomy contract for
// body-level failures: each gets a structured error with the right
// status and code.
func TestV2StatusMapping(t *testing.T) {
	ts := newTestServer(t)

	post := func(body string) (int, nanoxbar.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er nanoxbar.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("unparsable error body: %v", err)
		}
		return resp.StatusCode, er
	}

	if code, er := post(`{nope`); code != http.StatusBadRequest || er.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("malformed body: %d %+v", code, er)
	}
	if code, er := post(`{"requests":[]}`); code != http.StatusBadRequest || er.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("empty jobs: %d %+v", code, er)
	}
	// Oversized body bytes.
	huge := `{"requests":[{"kind":"map","function":{"expr":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}}]}`
	if code, er := post(huge); code != http.StatusRequestEntityTooLarge || er.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("oversized body: %d %+v", code, er)
	}
	// Oversized batch count.
	var big bytes.Buffer
	big.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatchSize; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteString(`{"kind":"synthesize","function":{"name":"maj3"}}`)
	}
	big.WriteString(`]}`)
	if code, er := post(big.String()); code != http.StatusRequestEntityTooLarge || er.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("oversized batch: %d %+v", code, er)
	}
	// GET is rejected with a structured error too.
	resp, err := http.Get(ts.URL + "/v2/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
	var er nanoxbar.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error.Code != apierr.CodeBadSpec {
		t.Fatalf("GET error body: %+v (err %v)", er, err)
	}
}

// writeCounter wraps a listener so every accepted conn counts the
// Write calls the server makes on it.
type writeCounter struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{Conn: c, writes: l.writes}, nil
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestV2OneResultOneWrite: a job with a single result frame reaches the
// socket in one write — header, result and done frame together —
// instead of one write per flushed frame plus the chunk terminator.
func TestV2OneResultOneWrite(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 4, CacheSize: 64})
	t.Cleanup(eng.Close)
	maj3 := engine.FunctionSpec{Name: "maj3"}
	// Warm the cache in-process, so the synthesize below is a hit and
	// no earlier HTTP exchange can leave a write behind.
	if res := eng.DoCtx(context.Background(), engine.Request{Kind: engine.KindSynthesize, Function: maj3}); !res.Ok() {
		t.Fatalf("warm-up: %v", res.Err)
	}
	cases := []struct {
		name string
		call func(context.Context, *client.Client) error
	}{
		{"synthesize-hit", func(ctx context.Context, cl *client.Client) error {
			_, err := cl.Synthesize(ctx, nanoxbar.Func("maj3"))
			return err
		}},
		{"map", func(ctx context.Context, cl *client.Client) error {
			_, err := cl.Map(ctx, nanoxbar.Func("maj3"), nanoxbar.WithDensity(0.05), nanoxbar.WithSeed(9))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var writes atomic.Int64
			ts := httptest.NewUnstartedServer(New(eng))
			ts.Listener = writeCounter{Listener: ts.Listener, writes: &writes}
			ts.Start()
			cl := client.New(ts.URL)
			defer cl.Close()
			if err := tc.call(context.Background(), cl); err != nil {
				ts.Close()
				t.Fatal(err)
			}
			// Close waits for the handler and its connection to finish,
			// so writes that trail the client's return are counted too.
			ts.Close()
			if n := writes.Load(); n != 1 {
				t.Fatalf("server made %d writes for a one-result job, want 1", n)
			}
		})
	}
}

// TestV2NonFinalResultsStream: only a batch's last frame waits for the
// handler's return. The index-0 map result must reach the client while
// the long yield sweep still runs, so canceling on it cancels the sweep.
func TestV2NonFinalResultsStream(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 4, CacheSize: 64})
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	t.Cleanup(func() { cl.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	maj3 := nanoxbar.FunctionSpec{Name: "maj3"}
	var sawMap, sawYield bool
	err := cl.Jobs(ctx, nanoxbar.JobsRequest{Requests: []nanoxbar.Request{
		{Kind: nanoxbar.KindMap, Function: maj3, Density: 0.05, Seed: 1},
		// Every die demotes to greedy repair at 40% density, so the
		// sweep outlasts the client's cancel by a wide margin.
		{Kind: nanoxbar.KindYield, Function: maj3, Density: 0.4, Seed: 3, Chips: 50000, ChipSize: 48},
	}}, func(ev nanoxbar.Event) {
		switch {
		case ev.Index == 0 && ev.Type == nanoxbar.EventResult:
			sawMap = true
			cancel()
		case ev.Index == 1:
			sawYield = true
		}
	})
	if !sawMap {
		t.Fatalf("index-0 map result never arrived (err %v)", err)
	}
	if !errors.Is(err, nanoxbar.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled: the map result was held back until the sweep finished", err)
	}
	if sawYield {
		t.Fatal("yield frame delivered after the cancel")
	}
	// Close waits for the handler; the sweep must have ended as the one
	// failed request, canceled by the dropped connection.
	ts.Close()
	if st := eng.Stats(); st.Requests != 2 || st.Failures != 1 {
		t.Fatalf("engine saw %d requests and %d failures, want 2 and 1 (the canceled sweep)", st.Requests, st.Failures)
	}
}
