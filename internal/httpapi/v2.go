package httpapi

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/telemetry"
	"nanoxbar/pkg/nanoxbar"
)

// The v2 API: POST /v2/jobs takes a nanoxbar.JobsRequest and responds
// with an NDJSON event stream (nanoxbar.Event per line). Results are
// flushed the moment their worker finishes — completion order, not
// submission order — so a batch of per-chip mappings streams back
// while slower yield sweeps still run, and with stream_dies a yield
// request emits one event per die. The batch's last result or error
// frame and the done frame are the exception: nothing follows them
// but the handler's return, which writes them out, so a one-result
// job leaves in a single write (with Content-Length rather than
// chunked encoding when it is short). The request context is threaded
// into the engine: a dropped connection cancels queued requests and
// stops in-flight sweeps at the next die boundary.

// writeError writes the structured error body ({"error":{code,message}})
// of every non-200 response: request-body and method failures before
// the stream, and the middleware's drain, shed and panic answers.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, nanoxbar.ErrorResponse{Error: nanoxbar.WireError{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// eventStream serializes NDJSON events onto one response, each frame
// encoded by appendEvent into the stream's one buffer and written with
// one Write. A frame sent with flush set is pushed to the client at
// once, so results are observed as they complete; an unflushed frame
// waits in the response buffer for the next flush or the handler's
// return. Every frame is stamped with the stream's request ID, so a
// single frame fished out of a log pipeline still names the request it
// belongs to.
type eventStream struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	fl    http.Flusher
	reqID string
	err   bool // an encode or write failed; drop further events
}

func newEventStream(w http.ResponseWriter, reqID string) *eventStream {
	fl, _ := w.(http.Flusher)
	// 512 bytes hold any frame but a long mapping or message, so a
	// stream's buffer rarely grows past its first allocation.
	return &eventStream{w: w, buf: make([]byte, 0, 512), fl: fl, reqID: reqID}
}

func (es *eventStream) send(ev nanoxbar.Event, flush bool) {
	ev.RequestID = es.reqID
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.err {
		return
	}
	frame, err := appendEvent(es.buf[:0], &ev)
	es.buf = frame
	if err != nil {
		es.err = true
		return
	}
	if _, err := es.w.Write(frame); err != nil {
		es.err = true
		return
	}
	if flush && es.fl != nil {
		es.fl.Flush()
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, apierr.CodeBadSpec, "use POST")
		return
	}
	var jobs nanoxbar.JobsRequest
	if !decodeBody(w, r, &jobs) {
		return
	}
	if len(jobs.Requests) == 0 {
		writeError(w, http.StatusBadRequest, apierr.CodeBadSpec, "empty jobs request")
		return
	}
	if len(jobs.Requests) > maxBatchSize {
		writeError(w, http.StatusRequestEntityTooLarge, apierr.CodeBadSpec,
			"batch of %d exceeds limit %d", len(jobs.Requests), maxBatchSize)
		return
	}
	for i := range jobs.Requests {
		if jobs.Requests[i].Kind == "" {
			jobs.Requests[i].Kind = engine.KindMap
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	es := newEventStream(w, telemetry.RequestID(r.Context()))

	var errs int
	var errMu sync.Mutex
	// unresolved counts requests, local and cluster-routed alike, whose
	// frame is not yet written. The one that takes it to zero writes the
	// batch's last frame, which only the done frame can follow, so it
	// is left for the handler's return to send.
	var unresolved atomic.Int64
	unresolved.Store(int64(len(jobs.Requests)))
	emit := func(i int, res engine.Result) {
		flush := unresolved.Add(-1) > 0
		if err := res.TypedErr(); err != nil {
			errMu.Lock()
			errs++
			errMu.Unlock()
			es.send(nanoxbar.Event{Type: nanoxbar.EventError, Index: i, Error: nanoxbar.WireErrorFrom(err)}, flush)
			return
		}
		es.send(nanoxbar.Event{Type: nanoxbar.EventResult, Index: i, Result: &res}, flush)
	}

	// Cluster routing: synthesis requests in the batch take the
	// forward → failover → local-degrade ladder (route), beside the
	// local stream so a slow forward never stalls it. Indices into the
	// original batch are preserved, so frames interleave transparently.
	// Everything else — and every request on an already-forwarded
	// stream (loop marker) — runs locally.
	submit := jobs.Requests
	orig := make([]int, len(jobs.Requests))
	for i := range orig {
		orig[i] = i
	}
	wait := func() {}
	if s.cluster != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		var routed []int
		submit = submit[:0:0]
		orig = orig[:0]
		for i, req := range jobs.Requests {
			if req.Kind == engine.KindSynthesize {
				routed = append(routed, i)
				continue
			}
			submit = append(submit, req)
			orig = append(orig, i)
		}
		wait = s.route(r.Context(), jobs.Requests, routed, emit)
	}

	var onDie func(req, die int, mr *engine.MapResult, err error)
	if jobs.StreamDies {
		onDie = func(req, die int, mr *engine.MapResult, err error) {
			es.send(nanoxbar.Event{
				Type: nanoxbar.EventDie, Index: orig[req], Die: die,
				DieMap: mr, DieError: nanoxbar.WireErrorFrom(err),
			}, true)
		}
	}
	if len(submit) > 0 {
		s.eng.SubmitStream(r.Context(), submit, func(i int, res engine.Result) {
			emit(orig[i], res)
		}, onDie)
	}
	wait()

	es.send(nanoxbar.Event{Type: nanoxbar.EventDone, Done: &nanoxbar.JobsSummary{
		Results: len(jobs.Requests), Errors: errs,
	}}, false)
}

// route serves the synthesize requests of reqs at the indices routed
// by key ownership, each forwarded, failed over or served locally, and
// hands each result to emit. They share at most the engine's worker
// count of goroutines, the bound SubmitStream keeps for the rest of the
// batch, so one batch cannot open a forward per request. route returns
// at once, with a func that waits for the routed requests.
func (s *Server) route(ctx context.Context, reqs []engine.Request, routed []int, emit func(int, engine.Result)) (wait func()) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(len(routed), s.workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(routed); k = int(next.Add(1)) - 1 {
				i := routed[k]
				res, handled := s.cluster.RouteSynthesize(ctx, reqs[i])
				if !handled {
					res = s.eng.DoCtx(ctx, reqs[i])
				}
				emit(i, res)
			}
		}()
	}
	return wg.Wait
}
