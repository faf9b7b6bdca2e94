package httpapi

import (
	"encoding/json"
	"fmt"
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

// v2Error writes a structured non-streaming error body
// ({"error":{code,message}}) for failures that precede the stream.
func v2Error(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, nanoxbar.ErrorResponse{Error: nanoxbar.WireError{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// eventStream serializes NDJSON events onto one response. A frame sent
// with flush set is pushed to the client at once, so results are
// observed as they complete; an unflushed frame waits in the response
// buffer for the next flush or the handler's return. Every frame is
// stamped with the stream's request ID, so a single frame fished out
// of a log pipeline still names the request it belongs to.
type eventStream struct {
	mu    sync.Mutex
	enc   *json.Encoder
	fl    http.Flusher
	reqID string
	err   bool // a write failed (client gone); drop further events
}

func newEventStream(w http.ResponseWriter, reqID string) *eventStream {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	fl, _ := w.(http.Flusher)
	return &eventStream{enc: enc, fl: fl, reqID: reqID}
}

func (es *eventStream) send(ev nanoxbar.Event, flush bool) {
	ev.RequestID = es.reqID
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.err {
		return
	}
	if err := es.enc.Encode(ev); err != nil {
		es.err = true
		return
	}
	if flush && es.fl != nil {
		es.fl.Flush()
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		v2Error(w, http.StatusMethodNotAllowed, apierr.CodeBadSpec, "use POST")
		return
	}
	var jobs nanoxbar.JobsRequest
	if err := decodeBody(w, r, &jobs); err != nil {
		status, code, msg := classifyDecodeError(err)
		v2Error(w, status, code, "%s", msg)
		return
	}
	if len(jobs.Requests) == 0 {
		v2Error(w, http.StatusBadRequest, apierr.CodeBadSpec, "empty jobs request")
		return
	}
	if len(jobs.Requests) > maxBatchSize {
		v2Error(w, http.StatusRequestEntityTooLarge, apierr.CodeBadSpec,
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

	// Cluster routing: synthesis requests in the batch take the same
	// forward → failover → local-degrade ladder as /v1/synthesize, each
	// on its own goroutine so a slow forward never stalls the local
	// stream. Indices into the original batch are preserved, so frames
	// interleave transparently. Everything else — and every request on
	// an already-forwarded stream (loop marker) — runs locally.
	submit := jobs.Requests
	orig := make([]int, len(jobs.Requests))
	for i := range orig {
		orig[i] = i
	}
	var routeWG sync.WaitGroup
	if s.cluster != nil && r.Header.Get(cluster.ForwardedHeader) == "" {
		submit = submit[:0:0]
		orig = orig[:0]
		for i, req := range jobs.Requests {
			if req.Kind != engine.KindSynthesize {
				submit = append(submit, req)
				orig = append(orig, i)
				continue
			}
			routeWG.Add(1)
			go func(i int, req engine.Request) {
				defer routeWG.Done()
				res, handled := s.cluster.RouteSynthesize(r.Context(), req)
				if !handled {
					res = s.eng.DoCtx(r.Context(), req)
				}
				emit(i, res)
			}(i, req)
		}
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
	routeWG.Wait()

	es.send(nanoxbar.Event{Type: nanoxbar.EventDone, Done: &nanoxbar.JobsSummary{
		Results: len(jobs.Requests), Errors: errs,
	}}, false)
}
