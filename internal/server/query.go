package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/datalog"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/fault"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/trace"
)

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
	// /debug/trace/<trace_id>.
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
	// req is the request that filled the entry (its limit resolved), so
	// the self-auditor can re-execute it; prov is the fill-time lineage,
	// which every hit's record points at. Both immutable after
	// construction.
	req  QueryRequest
	prov *obs.Lineage
}

// fresh reports whether cr is still valid against db's current epochs.
func (cr *cachedResult) fresh(db *exec.DB) bool {
	eps, dictEpoch := db.EpochsWithDict(cr.reads)
	return dictEpoch == cr.dictEpoch && slices.Equal(eps, cr.relEpochs)
}

// resultCacheKey keys a cached response: database generation +
// fingerprint + response-shaping parameters (limit and wire shape). The
// generation prefix strands entries cached by queries that were already
// executing when a /restore swapped the database (they age out of the
// LRU).
func resultCacheKey(gen uint64, fp string, limit int, columns bool) string {
	return fmt.Sprintf("g%d/%s/%d/c=%t", gen, fp, limit, columns)
}

// maxLimit bounds "limit": execution sizes its distinct-tuple set by the
// pushed-down limit before it has found a single tuple.
const maxLimit = 1 << 20

func (r *QueryRequest) validate() error {
	if r.Limit > maxLimit {
		return badRequest("\"limit\" exceeds %d", maxLimit)
	}
	return need("query", r.Query)
}

// query serves one /query. It declares no admission gate: the lookup
// chain runs first, and only a request the caches cannot answer waits
// for a worker slot — a map lookup shouldn't queue behind heavy joins.
func (s *Server) query(ctx context.Context, req *QueryRequest, rec *obs.Request) (any, error) {
	rec.Query = req.Query
	limit := req.Limit
	if limit <= 0 {
		limit = s.cfg.DefaultLimit
	}
	// The request context cancels on client disconnect; a configured
	// query deadline shares the same cooperative-stop mechanism and
	// bounds the whole request — admission wait included.
	if s.cfg.QueryDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryDeadline)
		defer cancel()
	}
	lk, resp := s.resolve(req, limit, rec)
	if resp == nil {
		release, err := s.admit(ctx, rec)
		if err != nil {
			return nil, err
		}
		defer release()
		if resp, err = s.execute(ctx, req, limit, rec, &lk); err != nil {
			return nil, err
		}
	}
	rec.Rows = int64(resp.Cardinality)
	return resp, nil
}

// runQuery takes one request down the whole chain inside a worker slot
// the caller already holds (the auditor's re-executions).
func (s *Server) runQuery(ctx context.Context, req *QueryRequest, limit int, rec *obs.Request) (QueryResponse, error) {
	lk, resp := s.resolve(req, limit, rec)
	if resp == nil {
		var err error
		if resp, err = s.execute(ctx, req, limit, rec, &lk); err != nil {
			return QueryResponse{}, err
		}
	}
	return *resp, nil
}

// lookup is how far one request got down the chain query text → alias →
// plan → cached result. Each step is one counted get, made once per
// request: resolve takes the steps the caches can answer, and execute
// re-enters the chain only where resolve stopped.
type lookup struct {
	// gen is read before any fork: a restore in between strands this
	// request's cache fill under the old generation (harmless), never
	// files a pre-restore result under the new one.
	gen uint64
	exec.PlanLookup
	key string // the result-cache key, once the plan is known
}

// resolve walks the chain through the engine's plan cache and the result
// cache without parsing and without a worker slot, stopping at the first
// miss. A non-nil response is a fresh cached result, served as is.
func (s *Server) resolve(req *QueryRequest, limit int, rec *obs.Request) (lookup, *QueryResponse) {
	lk := lookup{gen: s.gen.Load(), PlanLookup: s.eng.Plans().Lookup(req.Query, s.eng.Opts)}
	if lk.Alias != nil {
		rec.Fingerprint = lk.Alias.FP
	}
	if lk.Plan == nil {
		return lk, nil
	}
	return lk, s.cached(&lk, req, limit, rec, s.eng.DB)
}

// cached is the chain's last step, taken the moment the plan entry is
// known: the request's one result-cache lookup (none for NoCache, nor
// for Analyze — a cached serve has no counters to report). A fresh entry
// is rendered under this spelling's attribute names (cached responses
// carry canonical names, so any spelling can be served from any fill)
// and booked into the record: route, the entry's age, and its
// fill-time lineage — pointed at, never copied.
func (s *Server) cached(lk *lookup, req *QueryRequest, limit int, rec *obs.Request, db *exec.DB) *QueryResponse {
	lk.key = resultCacheKey(lk.gen, lk.Plan.FP, limit, req.Columns)
	if req.NoCache || req.Analyze {
		return nil
	}
	cr, ok := s.results.Get(lk.key, nil)
	if !ok {
		return nil
	}
	if !cr.fresh(db) {
		s.results.Remove(lk.key) // some read relation (or the dict) moved on
		return nil
	}
	rec.Annot("served", "result_cache")
	rec.Route, rec.Cached, rec.CacheAge = obs.RouteResultHit, true, time.Since(cr.createdAt)
	rec.Lineage = cr.prov
	resp := cr.resp
	resp.Attrs = lk.Alias.Label(resp.Attrs)
	resp.PlanCached, resp.ResultCached = lk.Hit, true
	if req.Provenance {
		resp.Provenance = rec.Provenance()
	}
	s.maybeSampleAudit(lk.key, cr)
	return &resp
}

// prepare ends the chain's plan step for a text resolve could not take
// there: parse it, and find or compile its fingerprint's plan against the
// request's fork.
func (s *Server) prepare(query string, fork *exec.DB, lk *lookup) error {
	prog, err := datalog.Parse(query)
	if err != nil {
		return badRequest("parse: %v", err)
	}
	if err := s.eng.Plans().Prepare(fork, query, prog, s.eng.Opts, &lk.PlanLookup); err != nil {
		return badRequest("compile: %v", err)
	}
	return nil
}

// execute runs one admitted /query (or audit) request into its record,
// from where its lookup stopped. ctx cancels execution cooperatively
// (client disconnect, query deadline).
func (s *Server) execute(ctx context.Context, req *QueryRequest, limit int, rec *obs.Request, lk *lookup) (*QueryResponse, error) {
	// Fork per request: the query runs against a consistent snapshot of
	// relations + dictionary (a concurrent /load can't swap data mid
	// query), and intermediate head relations stay session-local. The
	// fork's per-relation epochs stamp result-cache entries; the plan
	// needs no stamp (see exec.PlanCache).
	fork := s.eng.DB.Fork()
	tr := &rec.Trace
	if lk.Plan == nil {
		sp := tr.Begin("plan")
		err := s.prepare(req.Query, fork, lk)
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		rec.Fingerprint = lk.Plan.FP
		if resp := s.cached(lk, req, limit, rec, fork); resp != nil {
			return resp, nil
		}
	}
	entry := lk.Plan
	rec.Route = obs.RouteMiss
	if lk.Hit {
		rec.Route = obs.RoutePlanHit
	}
	relEpochs, dictEpoch := fork.EpochsWithDict(entry.Reads)
	// The lineage coordinates live on the fork's relations: read them
	// with its epochs, before the run registers head relations in it.
	coords := core.Lineage(fork, entry.Reads)
	annotReadSet(tr, entry.Reads, relEpochs, dictEpoch)

	// Push the response limit into execution with one row of headroom.
	// For all-output listings the budget counts distinct tuples, so a
	// result of exactly `limit` tuples is not flagged truncated; listings
	// that project variables away count pre-dedup rows and may return a
	// smaller truncated sample (see exec.Options.Limit). Aggregates and
	// other non-listing shapes run to completion. Kernel counters are
	// collected for Analyze requests only: their plan is the one reader.
	sp := tr.Begin("execute")
	res, err := entry.Prep.RunWith(fork, exec.RunParams{
		Limit: limit + 1, Collect: req.Analyze, Trace: tr, Ctx: ctx,
	})
	tr.End(sp)
	if err != nil {
		if !errors.Is(err, exec.ErrTimeout) && !errors.Is(err, exec.ErrCanceled) &&
			!errors.Is(err, exec.ErrExecPanic) {
			err = badRequest("%v", err)
		}
		return nil, err
	}

	sp = tr.Begin("render")
	resp := render(res, limit, fork.Dict(), req.Columns)
	tr.End(sp)
	resp.Truncated = resp.Truncated || res.Truncated
	resp.PlanCached = lk.Hit
	// Canonicalize attribute names before caching so a future serve (or a
	// recreated plan entry) can re-label them for any spelling.
	resp.Attrs = entry.Canon(resp.Attrs)
	// The lineage this execution ran against (read from the fork before
	// the run) goes into the record before the cache fill, so the cached
	// entry can carry it.
	rec.Lineage = s.lineage(rec, lk.gen, entry.Reads, relEpochs, coords, dictEpoch, resp.Cardinality)
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
		s.results.Put(lk.key, &cachedResult{
			reads:     entry.Reads,
			relEpochs: stampEpochs,
			dictEpoch: dictEpoch,
			resp:      *resp,
			createdAt: time.Now(),
			req:       QueryRequest{Query: req.Query, Limit: limit, Columns: req.Columns},
			prov:      rec.Lineage,
		})
		tr.End(sp)
	}
	resp.Attrs = lk.Alias.Label(resp.Attrs)
	if req.Provenance {
		resp.Provenance = rec.Lineage
	}
	if req.Analyze {
		// The pipeline, which owns the request clock, stamps the timings.
		resp.Analyze = &AnalyzeInfo{}
		if res.Stats != nil {
			resp.Analyze.Bags = res.Stats.Bags
			resp.Analyze.Plan = res.ExplainAnalyze()
		}
	}
	return resp, nil
}

// lineage stamps what determined an executed result: plan fingerprint,
// restore generation, and per relation of the read set the epoch, overlay
// generation and WAL watermark of the fork it ran against.
func (s *Server) lineage(rec *obs.Request, gen uint64, reads []string, relEpochs []uint64, coords map[string]core.RelProv, dictEpoch uint64, cardinality int) *obs.Lineage {
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
		p := coords[name]
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

// render decodes a result into the wire shape, translating dense codes
// back to original vertex identifiers through the dictionary snapshot of
// the fork the query executed on (the live dictionary may already belong
// to a newer load). Listings serialize straight from the result trie's
// flat columns: one bulk extraction per attribute, one decode pass per
// column, and — unless asColumns selects the columnar wire shape — one
// final row assembly over plain slices.
func render(res *exec.Result, limit int, dict *graph.Dictionary, asColumns bool) *QueryResponse {
	resp := &QueryResponse{
		Name:        res.Name,
		Attrs:       res.Attrs,
		Cardinality: res.Trie.Cardinality(),
	}
	if res.Trie.Arity == 0 {
		v := res.Scalar()
		resp.Scalar = &v
		return resp
	}
	cols, anns := res.Columns(limit)
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	if n < resp.Cardinality {
		resp.Truncated = true
	}
	// A code the dictionary does not cover (there is none, or a relation of
	// dense codes sits beside a smaller edge-list graph) stands for itself.
	var known uint32
	if dict != nil {
		known = uint32(dict.Len())
	}
	decoded := make([][]int64, len(cols))
	for c, col := range cols {
		out := make([]int64, len(col))
		for i, v := range col {
			if v < known {
				out[i] = dict.Decode(v)
			} else {
				out[i] = int64(v)
			}
		}
		decoded[c] = out
	}
	resp.Anns = anns
	if asColumns {
		resp.Columns = decoded
		return resp
	}
	resp.Tuples = make([][]int64, n)
	for i := 0; i < n; i++ {
		row := make([]int64, len(decoded))
		for c := range decoded {
			row[c] = decoded[c][i]
		}
		resp.Tuples[i] = row
	}
	return resp
}
