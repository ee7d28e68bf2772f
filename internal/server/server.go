// Package server is EmptyHeaded's query service: an HTTP/JSON facade over
// core.Engine that serves concurrent datalog queries with an LRU plan
// cache (keyed by normalized query fingerprints, so repeated queries skip
// parsing and GHD optimization the way the paper's compiler amortizes
// codegen across runs), a result cache invalidated on relation mutation,
// and a bounded worker-pool admission controller.
//
// Endpoints:
//
//	POST /query     {"query": "...", "limit": 100}        run a datalog program
//	POST /explain   {"query": "..."}                      render the physical plan
//	GET  /relations                                       catalog of stored relations
//	POST /load      {"name": "Edge", "path"|"edges"|...}  load a relation, invalidate caches
//	POST /update    {"name": "Edge", "inserts"|...}       stream inserts/deletes (WAL + delta overlay)
//	POST /compact   {"name": "Edge"}                      fold a relation's overlay into its base
//	POST /snapshot  {"dir": "/data/snap"}                 persist the database (binary snapshot)
//	POST /restore   {"dir": "/data/snap"}                 replace the database from a snapshot
//	GET  /stats                                           per-endpoint latency + cache counters
//	GET  /metrics                                         the same counters in Prometheus text format
//	GET  /healthz                                         liveness
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/datalog"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/fault"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/storage"
	"emptyheaded/internal/trace"
)

// Config sizes the service; zero values take the documented defaults.
type Config struct {
	// Workers bounds concurrently executing queries (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot (default
	// 4×Workers); beyond it requests 503 at once. Up to Workers more are
	// executing, so Workers+QueueDepth requests can be in flight.
	QueueDepth int
	// QueueWait bounds time spent waiting for a worker slot (default 2s).
	QueueWait time.Duration
	// PlanCacheSize is the number of cached prepared plans (default 256).
	PlanCacheSize int
	// ResultCacheSize is the number of cached query results (default 128).
	ResultCacheSize int
	// MaxCachedTuples: results with more tuples than this are not cached
	// (default 65536).
	MaxCachedTuples int
	// DefaultLimit caps tuples rendered in a response when the request
	// doesn't set its own limit (default 1000).
	DefaultLimit int
	// DataDir is the default snapshot directory for /snapshot and
	// /restore requests that don't name one (and the directory eh-server
	// auto-restores from on boot / snapshots to on SIGTERM). Empty means
	// requests must name a directory explicitly.
	DataDir string
	// SlowQueryThreshold: finished requests at or above it are written
	// to Events as one slow_query event each (0 disables them).
	SlowQueryThreshold time.Duration
	// QueryDeadline bounds one /query request end to end — admission
	// wait, plan, execute, and render all share the budget — via a
	// context deadline that trips the loop nest's cooperative stop
	// flag. 0 means no budget (the request context still cancels on
	// client disconnect).
	QueryDeadline time.Duration
	// RetryAfter is the Retry-After hint attached to shed 503s
	// (admission, degraded mode, durability failures); default 1s.
	RetryAfter time.Duration
	// BreakerThreshold is how many consecutive durability failures trip
	// the read-only circuit breaker (default 3; < 0 disables it).
	BreakerThreshold int
	// BreakerProbe paces the tripped breaker's background disk probes
	// (default 1s).
	BreakerProbe time.Duration
	// Events is the unified structured event log (query provenance,
	// slow queries, WAL rotations, compactions, snapshots, breaker
	// transitions, panics, boot phases). Nil drops them.
	Events *obs.EventLog
	// AuditFraction is the probability that one result-cache serve
	// triggers a background self-audit of the served entry (the entry's
	// query re-executes uncached and the responses are compared; a
	// mismatch evicts the entry and emits an audit_mismatch event). 0
	// disables sampling — POST /debug/audit still sweeps on demand.
	AuditFraction float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 256
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 128
	}
	if c.MaxCachedTuples <= 0 {
		c.MaxCachedTuples = 65536
	}
	if c.DefaultLimit <= 0 {
		c.DefaultLimit = 1000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerProbe <= 0 {
		c.BreakerProbe = time.Second
	}
	return c
}

// Server wraps one engine behind the HTTP query service. The engine's
// Opts must not be mutated once the server is serving.
type Server struct {
	eng     *core.Engine
	cfg     Config
	plans   *planCache
	results *lruCache
	adm     *admission
	start   time.Time

	// obs starts every /query, /update and audit request's record and
	// fans the finished record out to the ring, registry, heat map,
	// histograms and event log. The overhead gate's baseline nils it (see
	// obs.Spine). events is the same event log, for the events that
	// belong to no request (breaker, boot, core's WAL/compaction/snapshot
	// events, panics).
	obs    *obs.Spine
	events *obs.EventLog

	// gen is the database generation: it advances on every /restore.
	// Result-cache keys embed it because snapshot epochs are adopted
	// verbatim on install and are NOT comparable across generations — a
	// query in flight during a restore would otherwise cache a
	// pre-restore result whose epoch stamps can collide with the restored
	// database's epochs and be served as fresh.
	gen atomic.Uint64

	// brk is the durability circuit breaker behind degraded read-only
	// mode; res holds the failure-contract counters /metrics exports;
	// bootPhase (a string) feeds /readyz.
	brk       *breaker
	res       resilience
	bootPhase atomic.Value

	// audit holds the result-cache self-auditor's counters.
	audit auditCounters

	endpoints map[string]*latencyWindow
}

// New builds a server over eng. When the engine doesn't pin per-query
// parallelism explicitly, it is set so that Workers concurrent queries
// together use roughly GOMAXPROCS goroutines.
func New(eng *core.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if eng.Opts.Parallelism == 0 {
		if p := runtime.GOMAXPROCS(0) / cfg.Workers; p > 1 {
			eng.Opts.Parallelism = p
		} else {
			eng.Opts.Parallelism = 1
		}
	}
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		plans:   newPlanCache(cfg.PlanCacheSize),
		results: newLRUCache(cfg.ResultCacheSize),
		adm:     newAdmission(cfg.Workers, cfg.QueueDepth, cfg.QueueWait),
		start:   time.Now(),
		obs:     obs.NewSpine(cfg.Events, cfg.SlowQueryThreshold),
		events:  cfg.Events,
		endpoints: map[string]*latencyWindow{
			"/query":     newLatencyWindow(),
			"/explain":   newLatencyWindow(),
			"/relations": newLatencyWindow(),
			"/load":      newLatencyWindow(),
			"/update":    newLatencyWindow(),
			"/compact":   newLatencyWindow(),
			"/snapshot":  newLatencyWindow(),
			"/restore":   newLatencyWindow(),
			"/stats":     newLatencyWindow(),
		},
	}
	s.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerProbe, eng.ProbeDurability)
	// Breaker transitions land in the event log as paired breaker +
	// degraded-mode events.
	s.brk.notify = func(kind string, fields map[string]any) {
		switch kind {
		case "breaker_trip":
			s.events.Emit(kind, 0, fields)
			s.events.Emit("degraded_enter", 0, nil)
		case "breaker_recover":
			s.events.Emit(kind, 0, fields)
			s.events.Emit("degraded_exit", 0, nil)
		}
	}
	// Embedders serve a pre-loaded engine: ready from the start.
	// eh-server walks the phase through its boot sequence instead.
	s.bootPhase.Store("ready")
	// Feed the core subsystems' latency events (WAL fsyncs, overlay
	// compactions) into the server's histograms, and its state-changing
	// events (rotations, compactions, snapshots, replay) into the
	// unified event log.
	eng.SetObservers(core.Observers{
		WALFsync:   s.obs.Fsync.Observe,
		Compaction: s.obs.Compact.Observe,
		Event:      func(kind string, fields map[string]any) { s.events.Emit(kind, 0, fields) },
	})
	return s
}

// Close releases the server's background resources (the breaker's
// probe loop). The HTTP listener is owned by the caller.
func (s *Server) Close() { s.brk.close() }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument("/query", s.handleQuery))
	mux.HandleFunc("/explain", s.instrument("/explain", s.handleExplain))
	mux.HandleFunc("/relations", s.instrument("/relations", s.handleRelations))
	mux.HandleFunc("/load", s.instrument("/load", s.handleLoad))
	mux.HandleFunc("/update", s.instrument("/update", s.handleUpdate))
	mux.HandleFunc("/compact", s.instrument("/compact", s.handleCompact))
	mux.HandleFunc("/snapshot", s.instrument("/snapshot", s.handleSnapshot))
	mux.HandleFunc("/restore", s.instrument("/restore", s.handleRestore))
	mux.HandleFunc("/stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/debug/trace/", s.handleDebugTrace)
	mux.HandleFunc("/debug/workload", s.handleDebugWorkload)
	mux.HandleFunc("/debug/relations", s.handleDebugRelations)
	mux.HandleFunc("/debug/cache", s.handleDebugCache)
	mux.HandleFunc("/debug/provenance", s.handleDebugProvenance)
	mux.HandleFunc("/debug/provenance/", s.handleDebugProvenance)
	mux.HandleFunc("/debug/diff", s.handleDebugDiff)
	mux.HandleFunc("/debug/audit", s.handleDebugAudit)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("/readyz", s.handleReady)
	return mux
}

// statusRecorder captures the response code for error accounting and
// whether anything was written (so panic recovery knows if a 500 can
// still go out).
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	lw := s.endpoints[path]
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		// Panic isolation, outer boundary: a handler panic becomes a
		// 500 and the server keeps serving. (Query/update handlers also
		// recover closer in, to attach the trace ID.)
		defer func() {
			if v := recover(); v != nil {
				s.res.recoveredPanics.Add(1)
				s.events.Emit("panic", 0, map[string]any{
					"endpoint": path, "error": fmt.Sprintf("%v", v),
				})
				if !rec.wrote {
					writeJSON(rec, http.StatusInternalServerError,
						map[string]string{"error": fmt.Sprintf("internal panic: %v", v)})
				}
			}
			lw.observe(time.Since(t0), rec.code >= 400)
		}()
		h(rec, r)
	}
}

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
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
		s.events.Emit("panic", 0, map[string]any{
			"boundary": "executor", "error": err.Error(),
		})
		return http.StatusInternalServerError
	}
	return http.StatusInternalServerError
}

func (s *Server) writeErr(w http.ResponseWriter, err error) {
	s.writeErrTrace(w, err, 0)
}

// writeErrTrace renders err with its mapped status; shed responses
// (503) carry the Retry-After hint that defines the client side of the
// failure contract, and a non-zero trace ID rides along so a failed
// request can be pulled from /debug/trace/<id>. Returns the status.
func (s *Server) writeErrTrace(w http.ResponseWriter, err error, traceID uint64) int {
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

// fail renders err and books it as the outcome of the request's record.
// Client disconnects (499) and deadline trips (504) are cancellations,
// not query failures: the registry counts them apart.
func (s *Server) fail(w http.ResponseWriter, rec *obs.Request, err error) {
	rec.Error = err.Error()
	code := s.writeErrTrace(w, err, rec.ID)
	rec.Cancelled = code == statusClientClosedRequest || code == http.StatusGatewayTimeout
}

// retryAfterValue renders the configured Retry-After hint in whole
// seconds (minimum 1 — a zero would invite an immediate stampede).
func (s *Server) retryAfterValue() string {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// QueryRequest is the /query body.
type QueryRequest struct {
	Query string `json:"query"`
	// Limit caps tuples in the response and is pushed into listing
	// execution, which stops early instead of materializing the full
	// join (0 = server default; scalar results are unaffected). For
	// listings that project variables away the early stop is best
	// effort: the truncated response may hold fewer than Limit tuples
	// even when more exist.
	Limit int `json:"limit,omitempty"`
	// NoCache skips the result cache for this request (it still
	// populates and uses the plan cache).
	NoCache bool `json:"no_cache,omitempty"`
	// Columns selects the columnar wire shape: the response carries
	// per-attribute arrays ("columns") instead of row tuples. Big
	// listings serialize substantially faster this way (one array per
	// attribute instead of one small array per row), and the server
	// extracts them straight from the result trie's flat columns.
	Columns bool `json:"columns,omitempty"`
	// Analyze runs the query with the EXPLAIN ANALYZE collector and
	// attaches the live kernel counters, annotated plan and phase
	// breakdown to the response. Analyze requests always execute (the
	// result-cache read is skipped — counters of a cached serve would be
	// empty), but still fill the cache for later plain requests.
	Analyze bool `json:"analyze,omitempty"`
	// Provenance attaches the result's determination-provenance record
	// (fingerprint, generation and per-relation epoch / overlay-gen /
	// WAL-watermark lineage) to the response. Cached serves return the
	// fill-time lineage — the state that determined the bytes served —
	// under this request's trace id with Cached: true.
	Provenance bool `json:"provenance,omitempty"`
}

// QueryResponse is the /query reply.
type QueryResponse struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs,omitempty"`
	// Cardinality is the number of result tuples. When Truncated is set,
	// execution stopped early under the request limit and Cardinality is
	// a lower bound, not the full result size.
	Cardinality int       `json:"cardinality"`
	Scalar      *float64  `json:"scalar,omitempty"`
	Tuples      [][]int64 `json:"tuples,omitempty"`
	// Columns holds the columnar wire shape (Columns[i] is attribute i of
	// every rendered tuple), mutually exclusive with Tuples; requested
	// via QueryRequest.Columns.
	Columns [][]int64 `json:"columns,omitempty"`
	// Anns holds per-tuple annotations, aligned with Tuples, when the
	// result is annotated.
	Anns      []float64 `json:"anns,omitempty"`
	Truncated bool      `json:"truncated,omitempty"`
	ElapsedUS int64     `json:"elapsed_us"`
	// PlanCached: the preparation — the parse and each rule's plan — came
	// from the plan cache. ResultCached: the whole response did.
	PlanCached   bool `json:"plan_cached"`
	ResultCached bool `json:"result_cached"`
	// TraceID names this request's lifecycle trace, retrievable via
	// /debug/trace/<id> while the ring retains it.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Analyze carries the EXPLAIN ANALYZE payload when requested.
	Analyze *AnalyzeInfo `json:"analyze,omitempty"`
	// Provenance carries the determination-provenance record when
	// requested (QueryRequest.Provenance). Also retrievable later via
	// /debug/provenance/<trace_id>.
	Provenance *obs.Lineage `json:"provenance,omitempty"`
}

// cachedResult is one result-cache slot. Instead of the retired global
// database version, validity is the vector of per-relation epochs of the
// query's read set plus the dictionary epoch: a /load of relation R only
// invalidates entries whose reads include R (or that decode through a
// replaced dictionary), so unrelated hot queries keep their cache across
// loads.
type cachedResult struct {
	reads     []string
	relEpochs []uint64
	dictEpoch uint64
	resp      QueryResponse
	// createdAt stamps the fill time; serves observe the entry's age
	// into the result-cache age histogram.
	createdAt time.Time
	// query/fp/limit/columns reconstruct the request that filled the
	// entry, so the self-auditor can re-execute it; prov is the
	// fill-time lineage, which every hit's record points at. All
	// immutable after construction.
	query   string
	fp      string
	limit   int
	columns bool
	prov    *obs.Lineage
}

// fresh reports whether cr is still valid against db's current epochs.
func (cr *cachedResult) fresh(db *exec.DB) bool {
	eps, dictEpoch := db.EpochsWithDict(cr.reads)
	if dictEpoch != cr.dictEpoch {
		return false
	}
	for i, e := range eps {
		if e != cr.relEpochs[i] {
			return false
		}
	}
	return true
}

// resultCacheKey keys a cached response: database generation +
// fingerprint + response-shaping parameters (limit and wire shape). The
// generation prefix strands entries cached by queries that were already
// executing when a /restore swapped the database (they age out of the
// LRU).
func resultCacheKey(gen uint64, fp string, limit int, columns bool) string {
	return fmt.Sprintf("g%d/%s/%d/c=%t", gen, fp, limit, columns)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
		return
	}
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, badRequest("bad request body: %v", err))
		return
	}
	if req.Query == "" {
		s.writeErr(w, badRequest("missing \"query\""))
		return
	}
	limit := req.Limit
	if limit <= 0 {
		limit = s.cfg.DefaultLimit
	}
	// The request's one record. Everything below writes into it, and
	// this deferred Finish — the only one, run on every exit path, panics
	// included — is all the ring, registry, heat map, histograms and
	// event log ever see of the request.
	rec := s.obs.Start("query", req.Query)
	defer s.obs.Finish(rec)
	tr := &rec.Trace

	// The request context cancels on client disconnect; a configured
	// query deadline shares the same cooperative-stop mechanism and
	// bounds the whole request — admission wait included.
	ctx := r.Context()
	if s.cfg.QueryDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryDeadline)
		defer cancel()
	}
	// Inner panic boundary: closer in than instrument's so the 500 can
	// carry this request's trace ID.
	defer func() {
		if v := recover(); v != nil {
			s.res.recoveredPanics.Add(1)
			rec.Error = fmt.Sprintf("panic: %v", v)
			s.events.Emit("panic", rec.ID, map[string]any{
				"endpoint": "/query", "error": fmt.Sprintf("%v", v),
			})
			if sr, ok := w.(*statusRecorder); !ok || !sr.wrote {
				writeJSON(w, http.StatusInternalServerError,
					map[string]any{"error": fmt.Sprintf("internal panic: %v", v), "trace_id": rec.ID})
			}
		}
	}()

	// Fast path: an exact-text repeat whose result is cached is served
	// without taking a worker slot — a map lookup shouldn't queue behind
	// heavy joins. Analyze requests skip it (a cached serve has no
	// counters to report).
	var resp QueryResponse
	served := false
	if !req.NoCache && !req.Analyze {
		resp, served = s.cachedByText(&req, limit, rec)
	}
	if !served {
		// The admission gate bounds all remaining per-query work — parsing
		// and GHD compilation included, since on a cache miss the optimizer
		// is the expensive step the plan cache exists to amortize.
		sp := tr.Begin("admission")
		release, err := s.adm.acquire(ctx)
		tr.End(sp)
		if err != nil {
			s.fail(w, rec, err)
			return
		}
		resp, err = s.runQuery(ctx, &req, limit, rec)
		release()
		if err != nil {
			s.fail(w, rec, err)
			return
		}
	}
	rec.Rows = int64(resp.Cardinality)
	resp.ElapsedUS = rec.Stop().Microseconds()
	resp.TraceID = rec.ID
	if az := resp.Analyze; az != nil {
		az.TraceID, az.TotalUS, az.PhasesUS = rec.ID, resp.ElapsedUS, rec.PhasesUS
	}
	writeJSON(w, http.StatusOK, resp)
}

// cachedByText resolves an exact query text through the alias layer (no
// parsing) and serves a fresh result-cache entry, re-labeled with this
// spelling's attribute names. All lookups use peek so the full path's
// accounting isn't double-booked when this misses.
func (s *Server) cachedByText(req *QueryRequest, limit int, rec *obs.Request) (QueryResponse, bool) {
	av, ok := s.plans.aliases.peek(req.Query)
	if !ok {
		return QueryResponse{}, false
	}
	alias := av.(*aliasEntry)
	rec.Fingerprint = alias.fp
	resultKey := resultCacheKey(s.gen.Load(), alias.fp, limit, req.Columns)
	rv, ok := s.results.peek(resultKey)
	if !ok {
		return QueryResponse{}, false
	}
	cr := rv.(*cachedResult)
	if !cr.fresh(s.eng.DB) {
		return QueryResponse{}, false
	}
	// peek skipped the accounting; book the served hits explicitly. A
	// fast-path serve is a plan-cache hit too: the cached plan's result
	// is what made skipping execution possible.
	s.plans.aliases.noteHit(req.Query)
	s.plans.plans.noteHit(alias.fp)
	s.results.noteHit(resultKey)
	rec.Annot("served", "result_cache_fast_path")
	resp := s.serveCached(rec, req, cr, alias, s.eng.DB, resultKey)
	resp.PlanCached = true
	return resp, true
}

// serveCached renders a fresh cache entry under this spelling's
// attribute names and books the hit into the record: the route, the
// read set, the entry's age, and its fill-time lineage — pointed at,
// never copied. Cached responses carry canonical (fingerprint-namespace)
// attribute names, so any spelling can be served from any fill.
func (s *Server) serveCached(rec *obs.Request, req *QueryRequest, cr *cachedResult, alias *aliasEntry, db *exec.DB, resultKey string) QueryResponse {
	rec.Route, rec.Cached, rec.CacheAge = obs.RouteResultHit, true, time.Since(cr.createdAt)
	rec.Reads = readSet(db, cr.reads)
	rec.Lineage = cr.prov
	resp := cr.resp
	resp.Attrs = mapAttrs(resp.Attrs, alias.canonToClient)
	resp.ResultCached = true
	if req.Provenance {
		resp.Provenance = rec.Provenance()
	}
	s.maybeSampleAudit(resultKey)
	return resp
}

// readSet classifies each relation a query read as overlay (served
// through a delta-overlay merged view) or base, for the heat map.
func readSet(db *exec.DB, reads []string) []obs.RelRead {
	out := make([]obs.RelRead, len(reads))
	for i, name := range reads {
		out[i].Rel = name
		if rel, ok := db.Relation(name); ok {
			out[i].Overlay = rel.HasOverlay()
		}
	}
	return out
}

// mapAttrs relabels result attributes through m, keeping names m doesn't
// cover.
func mapAttrs(attrs []string, m map[string]string) []string {
	if len(attrs) == 0 {
		return attrs
	}
	out := make([]string, len(attrs))
	for i, a := range attrs {
		if v, ok := m[a]; ok {
			out[i] = v
		} else {
			out[i] = a
		}
	}
	return out
}

// runQuery executes one admitted /query (or audit) request into its
// record. ctx cancels execution cooperatively (client disconnect, query
// deadline).
func (s *Server) runQuery(ctx context.Context, req *QueryRequest, limit int, rec *obs.Request) (QueryResponse, error) {
	// Fork per request: the query runs against a consistent snapshot of
	// relations + dictionary (a concurrent /load can't swap data mid
	// query), and intermediate head relations stay session-local. The
	// fork's per-relation epochs stamp result-cache entries; the plan
	// needs no stamp (see planEntry). The generation is
	// read before the fork: a restore between the two strands this
	// request's cache fill under the old generation (harmless), never
	// files a pre-restore result under the new one.
	gen := s.gen.Load()
	fork := s.eng.DB.Fork()
	tr := &rec.Trace
	sp := tr.Begin("plan")
	entry, alias, planHit, err := s.prepared(req.Query, fork)
	tr.End(sp)
	if err != nil {
		return QueryResponse{}, err
	}
	rec.Fingerprint, rec.Route = entry.fp, obs.RouteMiss
	if planHit {
		rec.Route = obs.RoutePlanHit
	}
	relEpochs, dictEpoch := fork.EpochsWithDict(entry.reads)
	annotReadSet(tr, entry.reads, relEpochs, dictEpoch)

	resultKey := resultCacheKey(gen, entry.fp, limit, req.Columns)
	if !req.NoCache && !req.Analyze {
		if v, ok := s.results.get(resultKey); ok {
			cr := v.(*cachedResult)
			if cr.fresh(fork) {
				tr.Annot("served", "result_cache")
				resp := s.serveCached(rec, req, cr, alias, fork, resultKey)
				resp.PlanCached = planHit
				return resp, nil
			}
			s.results.remove(resultKey) // some read relation (or the dict) moved on
		}
	}

	// Push the response limit into execution with one row of headroom.
	// For all-output listings the budget counts distinct tuples, so a
	// result of exactly `limit` tuples is not flagged truncated; listings
	// that project variables away count pre-dedup rows and may return a
	// smaller truncated sample (see exec.Options.Limit). Aggregates and
	// other non-listing shapes run to completion.
	//
	// Kernel counters are collected for every request, not just Analyze
	// ones: the per-fingerprint registry and relation heat map aggregate
	// them (their cost is the benchmark's trace.overhead_frac).
	sp = tr.Begin("execute")
	res, err := entry.prep.RunWith(fork, exec.RunParams{
		Limit: limit + 1, Collect: true, Trace: tr, Ctx: ctx,
	})
	tr.End(sp)
	if err != nil {
		if !errors.Is(err, exec.ErrTimeout) && !errors.Is(err, exec.ErrCanceled) &&
			!errors.Is(err, exec.ErrExecPanic) {
			err = badRequest("%v", err)
		}
		return QueryResponse{}, err
	}
	rec.Reads = readSet(fork, entry.reads)
	rec.Intersections, rec.Probes, rec.Skipped = res.Stats.Totals()
	rec.Levels = res.Plan.RelationLevelStats(res.Stats)

	sp = tr.Begin("render")
	resp := s.render(res, limit, fork.Dict(), req.Columns)
	tr.End(sp)
	resp.Truncated = resp.Truncated || res.Truncated
	resp.PlanCached = planHit
	// Canonicalize attribute names before caching so a future serve (or a
	// recreated plan entry) can re-label them for any spelling.
	resp.Attrs = mapAttrs(resp.Attrs, entry.attrToCanon)
	// The lineage this execution ran against (relEpochs/dictEpoch were
	// read from the fork before the run) goes into the record before the
	// cache fill, so the cached entry can carry it.
	rec.Lineage = s.lineage(rec, gen, entry.reads, relEpochs, dictEpoch, resp.Cardinality)
	if !req.NoCache && res.Trie.Cardinality() <= s.cfg.MaxCachedTuples {
		// Analyze requests fill the cache too — with the plain response:
		// trace and counters are per-request, not part of the result.
		sp = tr.Begin("cache_fill")
		stampEpochs := relEpochs
		// Fault injection for the self-auditor's tests: a fired
		// "server.cache.stamp" rule mis-stamps this entry's validity
		// vector one epoch ahead, planting an entry that will claim
		// freshness after the next real mutation while its content is
		// stale — the bug class (epoch skew) the auditor exists to catch.
		if ferr := fault.Hit("server.cache.stamp"); ferr != nil {
			stampEpochs = make([]uint64, len(relEpochs))
			for i, e := range relEpochs {
				stampEpochs[i] = e
				// Head shadows in the read set never accrue epochs; only
				// real relations get the lying stamp.
				if e > 0 {
					stampEpochs[i] = e + 1
				}
			}
		}
		s.results.put(resultKey, &cachedResult{
			reads:     entry.reads,
			relEpochs: stampEpochs,
			dictEpoch: dictEpoch,
			resp:      resp,
			createdAt: time.Now(),
			query:     req.Query,
			fp:        entry.fp,
			limit:     limit,
			columns:   req.Columns,
			prov:      rec.Lineage,
		})
		tr.End(sp)
	}
	resp.Attrs = mapAttrs(resp.Attrs, alias.canonToClient)
	if req.Provenance {
		resp.Provenance = rec.Lineage
	}
	if req.Analyze {
		// The handler, which owns the request clock, stamps the timings.
		resp.Analyze = &AnalyzeInfo{}
		if res.Stats != nil {
			resp.Analyze.Bags = res.Stats.Bags
			if res.Plan != nil {
				resp.Analyze.Plan = res.Plan.ExplainAnalyze(res.Stats)
			}
		}
	}
	return resp, nil
}

// lineage stamps what determined an executed result: plan fingerprint,
// restore generation, and per relation of the read set the epoch the
// fork ran against plus the engine's live overlay generation / WAL
// watermark coordinates.
func (s *Server) lineage(rec *obs.Request, gen uint64, reads []string, relEpochs []uint64, dictEpoch uint64, cardinality int) *obs.Lineage {
	live := s.eng.Lineage(reads)
	lin := &obs.Lineage{
		TraceID:     rec.ID,
		Fingerprint: rec.Fingerprint,
		Generation:  gen,
		DictEpoch:   dictEpoch,
		Cardinality: cardinality,
		At:          time.Now(),
		Relations:   make([]obs.RelLineage, len(reads)),
	}
	for i, name := range reads {
		p := live[name]
		lin.Relations[i] = obs.RelLineage{
			Relation:    name,
			Epoch:       relEpochs[i],
			OverlayGen:  p.OverlayGen,
			WALSeq:      p.WALSeq,
			OverlayRows: p.OverlayRows,
		}
	}
	return lin
}

// annotReadSet records the query's read set and the epochs it executed
// against — the slow-query log carries them so a stale-cache or
// epoch-churn incident can be diagnosed from the log alone.
func annotReadSet(tr *trace.Trace, reads []string, relEpochs []uint64, dictEpoch uint64) {
	if len(reads) == 0 {
		return
	}
	var b strings.Builder
	for i, r := range reads {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s@%d", r, relEpochs[i])
	}
	tr.Annot("read_epochs", b.String())
	tr.Annot("dict_epoch", strconv.FormatUint(dictEpoch, 10))
}

// prepared resolves query text to a cached plan entry: exact text hit (no
// parse), fingerprint hit (re-parse, reuse compilation), or full prepare
// against the request's fork. Returns the entry, the alias carrying this
// spelling's attribute renaming, and whether the plan cache hit — a hit
// plans nothing.
func (s *Server) prepared(query string, fork *exec.DB) (*planEntry, *aliasEntry, bool, error) {
	lookup := func(fp string) *planEntry {
		if v, ok := s.plans.plans.get(fp); ok {
			return v.(*planEntry)
		}
		return nil
	}

	var entry *planEntry
	var alias *aliasEntry
	if v, ok := s.plans.aliases.get(query); ok {
		alias = v.(*aliasEntry)
		entry = lookup(alias.fp)
	}
	hit := entry != nil

	if entry == nil {
		prog, err := datalog.Parse(query)
		if err != nil {
			return nil, nil, false, badRequest("parse: %v", err)
		}
		s.plans.parses.Add(1)
		varMap := prog.FinalVarMap()
		alias = &aliasEntry{fp: prog.Fingerprint(), canonToClient: invert(varMap)}
		entry = lookup(alias.fp)
		hit = entry != nil
		if entry == nil {
			prep, err := exec.Prepare(fork, prog, s.eng.Opts)
			if err != nil {
				return nil, nil, false, badRequest("compile: %v", err)
			}
			entry = &planEntry{
				fp: alias.fp, attrToCanon: varMap,
				prep: prep, reads: prog.Relations(),
			}
			s.plans.plans.put(alias.fp, entry)
		}
		s.plans.aliases.put(query, alias)
	}
	return entry, alias, hit, nil
}

// invert flips a var→canonical map into canonical→var.
func invert(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// columnarRenderMin is the listing size at which render switches from
// the per-tuple trie walk to columnar extraction: big listings bulk-copy
// out of the result trie's flat columns (leaf sets are the columns)
// instead of re-discovering every tuple through nested set iteration.
const columnarRenderMin = 4096

// render decodes a result into the wire shape, translating dense codes
// back to original vertex identifiers through the dictionary snapshot of
// the fork the query executed on (the live dictionary may already belong
// to a newer load). asColumns selects the columnar wire shape; row-shaped
// responses above columnarRenderMin still decode through the columnar
// extractor and only assemble rows at the end.
func (s *Server) render(res *exec.Result, limit int, dict *graph.Dictionary, asColumns bool) QueryResponse {
	resp := QueryResponse{
		Name:        res.Name,
		Attrs:       res.Attrs,
		Cardinality: res.Trie.Cardinality(),
	}
	if res.Trie.Arity == 0 {
		v := res.Scalar()
		resp.Scalar = &v
		return resp
	}
	if asColumns || resp.Cardinality >= columnarRenderMin {
		s.renderColumns(&resp, res, limit, dict, asColumns)
		return resp
	}
	s.renderWalk(&resp, res, limit, dict)
	return resp
}

// renderWalk is the row-at-a-time path for small listings.
func (s *Server) renderWalk(resp *QueryResponse, res *exec.Result, limit int, dict *graph.Dictionary) {
	annotated := res.Trie.Annotated
	res.ForEach(func(tuple []uint32, ann float64) {
		if len(resp.Tuples) >= limit {
			resp.Truncated = true
			return
		}
		row := make([]int64, len(tuple))
		for i, c := range tuple {
			if dict != nil {
				row[i] = dict.Decode(c)
			} else {
				row[i] = int64(c)
			}
		}
		resp.Tuples = append(resp.Tuples, row)
		if annotated {
			resp.Anns = append(resp.Anns, ann)
		}
	})
}

// renderColumns serializes straight from the result trie's flat columns:
// one bulk extraction per attribute, one decode pass per column, and —
// for row-shaped responses — one final row assembly over plain slices.
func (s *Server) renderColumns(resp *QueryResponse, res *exec.Result, limit int, dict *graph.Dictionary, asColumns bool) {
	cols, anns := res.Columns(limit)
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	if n < resp.Cardinality {
		resp.Truncated = true
	}
	decoded := make([][]int64, len(cols))
	for c, col := range cols {
		out := make([]int64, len(col))
		if dict != nil {
			for i, v := range col {
				out[i] = dict.Decode(v)
			}
		} else {
			for i, v := range col {
				out[i] = int64(v)
			}
		}
		decoded[c] = out
	}
	resp.Anns = anns
	if asColumns {
		resp.Columns = decoded
		return
	}
	resp.Tuples = make([][]int64, n)
	for i := 0; i < n; i++ {
		row := make([]int64, len(decoded))
		for c := range decoded {
			row[c] = decoded[c][i]
		}
		resp.Tuples[i] = row
	}
}

// ExplainRequest is the /explain body.
type ExplainRequest struct {
	Query string `json:"query"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
		return
	}
	var req ExplainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, badRequest("bad request body: %v", err))
		return
	}
	// Explain does the same parse + GHD-compile work as a query miss, so
	// it shares the admission gate.
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	plan, err := s.eng.Explain(req.Query)
	release()
	if err != nil {
		s.writeErr(w, badRequest("%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"plan": plan})
}

func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"relations": s.eng.Relations()})
}

// LoadRequest is the /load body; exactly one of Path, Edges, Tuples or
// Columns must be set. Path and Edges load a binary edge relation (Path
// reads a "src dst" edge-list file server-side, rebuilding the identifier
// dictionary); Tuples loads a generic relation of the given arity from
// dense codes, optionally annotated under Op; Columns loads the same
// shape column-wise (columns[i] holds attribute i of every row), feeding
// the columnar trie builder directly with no row transposition.
type LoadRequest struct {
	Name       string     `json:"name"`
	Path       string     `json:"path,omitempty"`
	Undirected bool       `json:"undirected,omitempty"`
	Edges      [][2]int64 `json:"edges,omitempty"`
	Tuples     [][]uint32 `json:"tuples,omitempty"`
	Columns    [][]uint32 `json:"columns,omitempty"`
	Arity      int        `json:"arity,omitempty"`
	Anns       []float64  `json:"anns,omitempty"`
	Op         string     `json:"op,omitempty"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
		return
	}
	var req LoadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, badRequest("bad request body: %v", err))
		return
	}
	if req.Name == "" {
		s.writeErr(w, badRequest("missing \"name\""))
		return
	}
	t0 := time.Now()
	// Graph parsing and trie construction are heavy; bound them by the
	// same worker pool as queries.
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	err = s.load(&req)
	release()
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// No cache purge: result-cache entries carry the per-relation epochs
	// of their read sets, so entries that read req.Name (or that decode
	// through a dictionary this load replaced) invalidate lazily on their
	// next lookup, while unrelated queries keep serving from cache.
	// Plan-cache entries stay: a plan does not depend on the data.
	rel, _ := s.eng.DB.Relation(req.Name)
	writeJSON(w, http.StatusOK, map[string]any{
		"name":        req.Name,
		"arity":       rel.Arity,
		"cardinality": rel.Cardinality(),
		"elapsed_us":  time.Since(t0).Microseconds(),
	})
}

func (s *Server) load(req *LoadRequest) error {
	switch {
	case req.Path != "":
		f, err := os.Open(req.Path)
		if err != nil {
			return badRequest("open %s: %v", req.Path, err)
		}
		defer f.Close()
		return s.eng.LoadEdgeList(req.Name, f, req.Undirected)
	case req.Edges != nil:
		g, dict := graph.FromEdgePairs(req.Edges, req.Undirected)
		s.eng.LoadGraphWithDict(req.Name, g, dict)
		return nil
	case req.Tuples != nil:
		if req.Arity <= 0 {
			return badRequest("tuple load requires \"arity\"")
		}
		for _, t := range req.Tuples {
			if len(t) != req.Arity {
				return badRequest("tuple %v does not match arity %d", t, req.Arity)
			}
		}
		if req.Anns == nil {
			s.eng.AddRelation(req.Name, req.Arity, req.Tuples)
			return nil
		}
		op, err := semiring.ParseOp(req.Op)
		if err != nil {
			return badRequest("%v", err)
		}
		if err := s.eng.AddAnnotatedRelation(req.Name, req.Arity, op, req.Tuples, req.Anns); err != nil {
			return badRequest("%v", err)
		}
		return nil
	case req.Columns != nil:
		if req.Arity > 0 && req.Arity != len(req.Columns) {
			return badRequest("%d columns do not match arity %d", len(req.Columns), req.Arity)
		}
		op := semiring.None
		if req.Anns != nil {
			var err error
			if op, err = semiring.ParseOp(req.Op); err != nil {
				return badRequest("%v", err)
			}
		}
		if err := s.eng.AddRelationColumns(req.Name, req.Columns, req.Anns, op); err != nil {
			return badRequest("%v", err)
		}
		return nil
	}
	return badRequest("one of \"path\", \"edges\", \"tuples\" or \"columns\" required")
}

// UpdateRequest is the /update body: streaming inserts and/or deletes
// against one relation, as rows (tuples of dense codes) or columns
// (columns[i] holds attribute i of every row — no server-side
// transposition). Deletes apply before inserts. Anns annotates the
// inserted rows when the relation is annotated; Op names the semiring
// when the batch creates a new annotated relation.
type UpdateRequest struct {
	Name          string     `json:"name"`
	Inserts       [][]uint32 `json:"inserts,omitempty"`
	InsertColumns [][]uint32 `json:"insert_columns,omitempty"`
	Deletes       [][]uint32 `json:"deletes,omitempty"`
	DeleteColumns [][]uint32 `json:"delete_columns,omitempty"`
	Anns          []float64  `json:"anns,omitempty"`
	Op            string     `json:"op,omitempty"`
}

// handleUpdate applies one streaming update batch: journaled in the WAL
// (when the server runs with one) before it applies, visible to queries
// through the relation's delta overlay immediately after. Only the
// updated relation's epoch advances, so cached results of queries that
// never read it survive.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
		return
	}
	var req UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, badRequest("bad request body: %v", err))
		return
	}
	if req.Name == "" {
		s.writeErr(w, badRequest("missing \"name\""))
		return
	}
	b := core.UpdateBatch{Rel: req.Name, InsAnns: req.Anns}
	if req.Op != "" {
		op, err := semiring.ParseOp(req.Op)
		if err != nil {
			s.writeErr(w, badRequest("%v", err))
			return
		}
		b.Op = op
	}
	var err error
	if b.InsCols, err = updateCols(req.Inserts, req.InsertColumns, "insert"); err != nil {
		s.writeErr(w, err)
		return
	}
	if b.DelCols, err = updateCols(req.Deletes, req.DeleteColumns, "delete"); err != nil {
		s.writeErr(w, err)
		return
	}
	rec := s.obs.Start("update", "")
	defer s.obs.Finish(rec)
	tr := &rec.Trace
	tr.Annot("relation", req.Name)
	// Degraded read-only mode fails writes fast — before admission, so a
	// broken disk doesn't let updates queue behind healthy queries.
	if !s.brk.allow() {
		s.fail(w, rec, errDegraded)
		return
	}
	// Mini-trie builds and the merged-view install are bounded by the
	// same worker pool as queries and loads.
	sp := tr.Begin("admission")
	release, err := s.adm.acquire(r.Context())
	tr.End(sp)
	if err != nil {
		s.fail(w, rec, err)
		return
	}
	res, err := s.eng.UpdateTraced(b, tr)
	release()
	if err != nil {
		if errors.Is(err, core.ErrDurability) {
			// The WAL could not persist the batch (disk full, I/O error):
			// a server-side, retryable failure — not a bad request. Book
			// it with the breaker; enough in a row trip read-only mode.
			s.brk.failure()
		} else {
			err = badRequest("%v", err)
		}
		s.fail(w, rec, err)
		return
	}
	s.brk.success()
	arity := len(b.InsCols)
	if arity == 0 {
		arity = len(b.DelCols)
	}
	// Bytes are estimated from the columnar payload (4-byte codes per
	// cell); annotation floats aren't counted.
	rec.UpdateRel, rec.UpdateRows = res.Rel, int64(res.Inserted+res.Deleted)
	rec.UpdateBytes = rec.UpdateRows * int64(arity) * 4
	writeJSON(w, http.StatusOK, map[string]any{
		"name":         res.Rel,
		"seq":          res.Seq,
		"inserted":     res.Inserted,
		"deleted":      res.Deleted,
		"cardinality":  res.Cardinality,
		"overlay_rows": res.OverlayRows,
		"trace_id":     rec.ID,
		"elapsed_us":   rec.Stop().Microseconds(),
	})
}

// updateCols normalizes one side of an update request to columns.
func updateCols(rows [][]uint32, cols [][]uint32, side string) ([][]uint32, error) {
	if rows != nil && cols != nil {
		return nil, badRequest("give %ss as rows or columns, not both", side)
	}
	if cols != nil {
		return cols, nil
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out, err := core.RowsToColumns(rows)
	if err != nil {
		return nil, badRequest("%s rows: %v", side, err)
	}
	return out, nil
}

// CompactRequest is the /compact body.
type CompactRequest struct {
	Name string `json:"name"`
}

// handleCompact folds the named relation's overlay into a fresh base
// trie (a no-op when the overlay is empty or a background compaction is
// already running).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
		return
	}
	var req CompactRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, badRequest("bad request body: %v", err))
		return
	}
	if req.Name == "" {
		s.writeErr(w, badRequest("missing \"name\""))
		return
	}
	t0 := time.Now()
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	did, err := s.eng.Compact(req.Name)
	release()
	if err != nil {
		s.writeErr(w, badRequest("%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":       req.Name,
		"compacted":  did,
		"elapsed_us": time.Since(t0).Microseconds(),
	})
}

// SnapshotRequest is the /snapshot and /restore body; Dir falls back to
// the server's configured data directory.
type SnapshotRequest struct {
	Dir string `json:"dir,omitempty"`
}

func (s *Server) snapshotDir(req *SnapshotRequest) (string, error) {
	if req.Dir != "" {
		return req.Dir, nil
	}
	if s.cfg.DataDir != "" {
		return s.cfg.DataDir, nil
	}
	return "", badRequest("no \"dir\" in request and no -data-dir configured")
}

// handleSnapshot persists the whole database as a binary snapshot
// (POST /snapshot {"dir": "..."}). The snapshot is taken from a fork, so
// concurrent queries and loads proceed; the write itself is bounded by
// the admission gate like any other heavy operation.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
		return
	}
	var req SnapshotRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeErr(w, badRequest("bad request body: %v", err))
		return
	}
	dir, err := s.snapshotDir(&req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	t0 := time.Now()
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	cat, err := s.eng.Snapshot(dir)
	release()
	if err != nil {
		s.writeErr(w, fmt.Errorf("snapshot: %w", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dir":        dir,
		"relations":  len(cat.Relations),
		"tuples":     cat.CardinalityTotal(),
		"bytes":      cat.BytesTotal(),
		"elapsed_us": time.Since(t0).Microseconds(),
	})
}

// handleRestore atomically replaces the database from a snapshot
// directory (POST /restore {"dir": "..."}): in-flight queries finish on
// their forks of the old database, new requests see the restored one.
// The result cache is purged wholesale — snapshot epochs come from
// another database generation and are not comparable with the entries'
// stamps.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
		return
	}
	var req SnapshotRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		s.writeErr(w, badRequest("bad request body: %v", err))
		return
	}
	dir, err := s.snapshotDir(&req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	t0 := time.Now()
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	cat, err := s.eng.Restore(dir)
	if err == nil {
		// New generation first (strands in-flight cache fills), then drop
		// the old generation's entries wholesale.
		s.gen.Add(1)
		s.results.purge()
	}
	release()
	if err != nil {
		var ce *storage.CorruptionError
		if errors.As(err, &ce) {
			s.writeErr(w, &httpError{http.StatusConflict, err.Error()})
			return
		}
		s.writeErr(w, badRequest("restore: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dir":        dir,
		"relations":  len(cat.Relations),
		"tuples":     cat.CardinalityTotal(),
		"bytes":      cat.BytesTotal(),
		"elapsed_us": time.Since(t0).Microseconds(),
	})
}

// Stats is the /stats reply.
type Stats struct {
	UptimeS     float64                  `json:"uptime_s"`
	Epoch       uint64                   `json:"epoch"`
	Relations   int                      `json:"relations"`
	Endpoints   map[string]EndpointStats `json:"endpoints"`
	PlanCache   PlanCacheStats           `json:"plan_cache"`
	ResultCache CacheStats               `json:"result_cache"`
	Admission   AdmissionStats           `json:"admission"`
	Durability  core.DurabilityStats     `json:"durability"`
	Resilience  ResilienceStats          `json:"resilience"`
	// Workload summarizes the fingerprint registry; Events the unified
	// event log.
	Workload obs.WorkloadTotals `json:"workload"`
	Events   obs.EventLogStats  `json:"events"`
	// Provenance summarizes the request-record ring and the result-cache
	// auditor.
	Provenance ProvenanceStats `json:"provenance"`
}

// ResilienceStats is the failure-contract section of /stats.
type ResilienceStats struct {
	RecoveredPanics  int64 `json:"recovered_panics"`
	CancelledClients int64 `json:"cancelled_clients"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	BreakerTrips     int64 `json:"breaker_trips"`
	Degraded         bool  `json:"degraded"`
	DegradedRejected int64 `json:"degraded_rejected"`
}

// StatsSnapshot returns the same payload /stats serves (used by the load
// generator to diff cache counters around a run).
func (s *Server) StatsSnapshot() Stats {
	eps := make(map[string]EndpointStats, len(s.endpoints))
	for p, lw := range s.endpoints {
		eps[p] = lw.snapshot()
	}
	return Stats{
		UptimeS:     time.Since(s.start).Seconds(),
		Epoch:       s.eng.Version(),
		Relations:   len(s.eng.DB.Names()),
		Endpoints:   eps,
		PlanCache:   s.plans.stats(),
		ResultCache: s.results.stats(),
		Admission:   s.adm.stats(),
		Durability:  s.eng.Durability(),
		Resilience: ResilienceStats{
			RecoveredPanics:  s.res.recoveredPanics.Load(),
			CancelledClients: s.res.cancelledClients.Load(),
			DeadlineExceeded: s.res.deadlineExceeded.Load(),
			BreakerTrips:     s.brk.trips.Load(),
			Degraded:         !s.brk.allow(),
			DegradedRejected: s.res.degradedRejected.Load(),
		},
		Workload:   s.obs.Workload.Totals(),
		Events:     s.events.Stats(),
		Provenance: s.provenanceStats(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}
