package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/fault"
	"emptyheaded/internal/obs"
)

// gate is what the pipeline checks before calling an endpoint's handler.
type gate uint8

const (
	post  gate = 1 << iota // only POST is accepted (405 otherwise)
	write                  // refused while the durability breaker is open
	admit                  // the handler runs inside a worker slot
)

// maxBodyBytes caps one request body (413 past it; see decode), well
// above any body the benchmark and the docs send.
const maxBodyBytes = 64 << 20

var errBodyTooLarge = &httpError{http.StatusRequestEntityTooLarge,
	fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}

// validator is a request that can be refused by its own content, before
// any gate: the pipeline asks right after the decode.
type validator interface{ validate() error }

// timedReply is a JSON object reply that carries the request's
// "elapsed_us"; the pipeline stamps it from the record's clock.
type timedReply map[string]any

// pipeline registers h, a plain function from a decoded request to a
// reply, at path; everything around it is stated here and in run, once.
// Every request gets one record (its kind is the path without the slash,
// registered with the spine here), started before anything can fail and
// finished exactly once on every way out, panics included; the
// endpoint's /stats counters are fed from that record's clock and
// outcome.
func pipeline[Req any](s *Server, path string, gates gate,
	h func(context.Context, *Req, *obs.Request) (any, error)) {
	s.obs.Register(path[1:])
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		rec := s.obs.Start(path[1:], "")
		defer s.obs.Finish(rec)
		out, err := run(s, path, gates, h, w, r, rec)
		if err != nil {
			// Client disconnects (499) and deadline trips (504) are
			// cancellations, not failures: /debug/workload counts them apart.
			rec.Error = err.Error()
			code := s.writeErr(w, err, rec.ID)
			rec.Cancelled = code == statusClientClosedRequest || code == http.StatusGatewayTimeout
			return
		}
		// The one clock reading, shared by the reply and every consumer.
		us := rec.Stop().Microseconds()
		switch v := out.(type) {
		case *QueryResponse:
			v.ElapsedUS, v.TraceID = us, rec.ID
			if az := v.Analyze; az != nil {
				az.TraceID, az.TotalUS, az.PhasesUS = rec.ID, us, rec.PhasesUS
			}
		case timedReply:
			v["elapsed_us"] = us
		}
		writeJSON(w, http.StatusOK, out)
	})
}

// run takes one request from the wire to its handler's result. It is the
// server's panic boundary: a panic anywhere below becomes a 500 carrying
// the record's id, the worker slot is returned, and the server keeps
// serving. (The executor recovers its own workers and reports
// exec.ErrExecPanic; see errStatus.)
func run[Req any](s *Server, path string, gates gate, h func(context.Context, *Req, *obs.Request) (any, error),
	w http.ResponseWriter, r *http.Request, rec *obs.Request) (out any, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.res.recoveredPanics.Add(1)
			s.cfg.Events.Emit("panic", rec.ID, map[string]any{"endpoint": path, "error": fmt.Sprint(v)})
			out, err = nil, &httpError{http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", v)}
		}
	}()
	if gates&post != 0 && r.Method != http.MethodPost {
		return nil, &httpError{http.StatusMethodNotAllowed, "POST required"}
	}
	var req Req
	if err := decode(w, r, &req); err != nil {
		return nil, err
	}
	// Degraded read-only mode fails writes fast — before admission, so a
	// broken disk doesn't let updates queue behind healthy queries.
	if gates&write != 0 && !s.brk.allow() {
		return nil, errDegraded
	}
	ctx := r.Context()
	if gates&admit != 0 {
		release, err := s.admit(ctx, rec)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	// Fault injection: an error or a panic in the handler's place.
	if err := fault.Hit("server.handler"); err != nil {
		return nil, err
	}
	return h(ctx, &req, rec)
}

// decode reads the JSON body into req (empty: the zero request). A body
// declared larger than maxBodyBytes is refused unread, any other read no further.
func decode(w http.ResponseWriter, r *http.Request, req any) error {
	if r.ContentLength > maxBodyBytes {
		return errBodyTooLarge
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req)
	if err != nil && !errors.Is(err, io.EOF) {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errBodyTooLarge
		}
		return badRequest("bad request body: %v", err)
	}
	if v, ok := req.(validator); ok {
		return v.validate()
	}
	return nil
}

// admit waits for a worker slot, booking the wait as the record's
// "admission" span. The slot bounds all heavy per-request work: parsing,
// GHD compilation, execution, trie builds, snapshot I/O.
func (s *Server) admit(ctx context.Context, rec *obs.Request) (release func(), err error) {
	sp := rec.Begin("admission")
	release, err = s.adm.acquire(ctx)
	rec.End(sp)
	return release, err
}

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// need refuses a request whose required field is empty.
func need(field, val string) error {
	if val == "" {
		return badRequest("missing %q", field)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// statusClientClosedRequest is the de-facto "client closed request"
// status (nginx's 499): the client is gone, the code is for accounting.
const statusClientClosedRequest = 499

// errStatus maps err to its HTTP status and books the failure-contract
// counters. One classification point: every handler error goes through
// here exactly once.
func (s *Server) errStatus(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, errDegraded):
		s.res.degradedRejected.Add(1)
		return http.StatusServiceUnavailable
	case errors.Is(err, errQueueFull), errors.Is(err, errQueueTimeout):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrDurability):
		return http.StatusServiceUnavailable
	case errors.Is(err, exec.ErrCanceled), errors.Is(err, context.Canceled):
		// The client went away (mid-execution or while queued).
		s.res.cancelledClients.Add(1)
		return statusClientClosedRequest
	case errors.Is(err, exec.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		s.res.deadlineExceeded.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, exec.ErrExecPanic):
		s.res.recoveredPanics.Add(1)
		s.cfg.Events.Emit("panic", 0, map[string]any{
			"boundary": "executor", "error": err.Error(),
		})
		return http.StatusInternalServerError
	}
	return http.StatusInternalServerError
}

// writeErr renders err with its mapped status and returns that status.
// Shed responses (503) carry the Retry-After hint that defines the
// client side of the failure contract, and a non-zero trace ID rides
// along so a failed request can be pulled from /debug/trace/<id> (the
// /debug views have no record and pass 0).
func (s *Server) writeErr(w http.ResponseWriter, err error, traceID uint64) int {
	code := s.errStatus(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", s.retryAfterValue())
	}
	body := map[string]any{"error": err.Error()}
	if traceID != 0 {
		body["trace_id"] = traceID
	}
	writeJSON(w, code, body)
	return code
}

// retryAfterValue renders the configured Retry-After hint in whole
// seconds (minimum 1 — a zero would invite an immediate stampede).
func (s *Server) retryAfterValue() string {
	return strconv.Itoa(max(1, int(s.cfg.RetryAfter/time.Second)))
}
