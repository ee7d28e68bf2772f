package server

import (
	"context"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"emptyheaded/internal/obs"
)

// Determination provenance (see docs/PROVENANCE.md): every executed
// query's record carries the lineage that determined its result — plan
// fingerprint, restore generation, and the per-relation (epoch, overlay
// generation, WAL applied-seq watermark) triple (Server.lineage). It is
// read in three places: the /query response (opt-in via "provenance":
// true), the /debug/provenance + /debug/diff views below, and the
// result-cache self-auditor.

// auditCounters books the self-auditor's lifetime totals.
type auditCounters struct {
	// sampled counts cached serves picked by the background sampler;
	// checks counts completed re-executions (sampled + on-demand sweeps).
	sampled    atomic.Int64
	checks     atomic.Int64
	mismatches atomic.Int64
	evicted    atomic.Int64
	errors     atomic.Int64
}

// AuditStats is the JSON rendering of the self-auditor's counters.
type AuditStats struct {
	Sampled    int64 `json:"sampled"`
	Checks     int64 `json:"checks"`
	Mismatches int64 `json:"mismatches"`
	Evicted    int64 `json:"evicted"`
	Errors     int64 `json:"errors"`
}

// ProvenanceStats is the provenance section of /stats: the occupancy of
// the request-record ring the lineage lives in, and the auditor.
type ProvenanceStats struct {
	Enabled bool          `json:"enabled"`
	Ring    obs.RingStats `json:"ring"`
	Audit   AuditStats    `json:"audit"`
}

func (s *Server) provenanceStats() ProvenanceStats {
	return ProvenanceStats{
		Enabled: true,
		Ring:    s.obs.Ring.Stats(),
		Audit: AuditStats{
			Sampled:    s.audit.sampled.Load(),
			Checks:     s.audit.checks.Load(),
			Mismatches: s.audit.mismatches.Load(),
			Evicted:    s.audit.evicted.Load(),
			Errors:     s.audit.errors.Load(),
		},
	}
}

// maybeSampleAudit flips the AuditFraction coin on a cached serve and,
// when it lands, re-executes the served entry in the background and
// compares. The sampler is the always-on tripwire; POST /debug/audit is
// the on-demand full sweep.
func (s *Server) maybeSampleAudit(key string) {
	f := s.cfg.AuditFraction
	if f <= 0 {
		return
	}
	if f < 1 && rand.Float64() >= f {
		return
	}
	s.audit.sampled.Add(1)
	go func() {
		v, ok := s.results.peek(key)
		if !ok {
			return // evicted since the serve; nothing to audit
		}
		cr := v.(*cachedResult)
		if cr.query == "" {
			return
		}
		s.auditOne(context.Background(), key, cr)
	}()
}

// auditOne re-executes the query that filled a cache entry (bypassing
// the cache) and compares content. A mismatch means the entry's
// validity stamp lies — it claims freshness for bytes the current data
// no longer determines — so the entry is evicted, eh_audit_mismatch_total
// is bumped, and an audit_mismatch event carries the provenance diff.
// Returns whether a mismatch was found.
func (s *Server) auditOne(ctx context.Context, key string, cr *cachedResult) (bool, error) {
	s.audit.checks.Add(1)
	rec := s.obs.Start("audit", cr.query)
	resp, err := func() (QueryResponse, error) {
		release, err := s.adm.acquire(ctx)
		if err != nil {
			return QueryResponse{}, err
		}
		defer release()
		req := &QueryRequest{Query: cr.query, Limit: cr.limit, NoCache: true, Columns: cr.columns}
		return s.runQuery(ctx, req, cr.limit, rec)
	}()
	if err != nil {
		rec.Error = err.Error()
	}
	s.obs.Finish(rec)
	if err != nil {
		s.audit.errors.Add(1)
		return false, err
	}
	if respContentEqual(&cr.resp, &resp) {
		return false, nil
	}
	s.audit.mismatches.Add(1)
	s.results.remove(key)
	s.audit.evicted.Add(1)
	fields := map[string]any{
		"key":                key,
		"fingerprint":        cr.fp,
		"cached_cardinality": cr.resp.Cardinality,
		"actual_cardinality": resp.Cardinality,
	}
	// Attribute the drift: diff the entry's fill-time lineage against the
	// re-execution's (same fingerprint by construction).
	if d, derr := obs.Diff(cr.prov, rec.Lineage); derr == nil {
		fields["cardinality_delta"] = d.CardinalityDelta
		fields["drifted"] = d.Drifted
	}
	s.events.Emit("audit_mismatch", rec.ID, fields)
	return true, nil
}

// respContentEqual compares the determined content of two responses:
// cardinality, scalar, tuples/columns/annotations and truncation.
// Attrs are excluded (cached entries hold canonical names, fresh
// executions client spellings), as are per-request fields (trace id,
// elapsed, cache flags).
func respContentEqual(a, b *QueryResponse) bool {
	if a.Cardinality != b.Cardinality || a.Truncated != b.Truncated {
		return false
	}
	if (a.Scalar == nil) != (b.Scalar == nil) {
		return false
	}
	if a.Scalar != nil && *a.Scalar != *b.Scalar {
		return false
	}
	if !rowsEqual(a.Tuples, b.Tuples) || !rowsEqual(a.Columns, b.Columns) {
		return false
	}
	if len(a.Anns) != len(b.Anns) {
		return false
	}
	for i := range a.Anns {
		if a.Anns[i] != b.Anns[i] {
			return false
		}
	}
	return true
}

func rowsEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// lineageByID resolves a trace id to the wire lineage of its record.
func (s *Server) lineageByID(idStr string) (*obs.Lineage, error) {
	rec, err := s.recordByID(idStr)
	if err != nil {
		return nil, err
	}
	lin := rec.Provenance()
	if lin == nil {
		return nil, &httpError{http.StatusNotFound, "no provenance record for trace " + idStr}
	}
	return lin, nil
}

// handleDebugProvenance serves the lineage of retained records:
// /debug/provenance lists the most recent ones (?n=, default 50) with
// the ring's occupancy; /debug/provenance/<id> resolves one trace id.
func (s *Server) handleDebugProvenance(w http.ResponseWriter, r *http.Request) {
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/provenance"), "/")
	if rest != "" {
		lin, err := s.lineageByID(rest)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, lin)
		return
	}
	n, err := queryN(r, 50)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	records := make([]*obs.Lineage, 0, n)
	for _, rec := range s.obs.Ring.Recent(0) {
		if lin := rec.Provenance(); lin != nil && len(records) < n {
			records = append(records, lin)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"stats": s.obs.Ring.Stats(), "records": records})
}

// handleDebugDiff answers "why did this result change?": given two trace
// ids of the same fingerprint (?a=&?b=), it reports which relations'
// lineage drifted between the executions.
func (s *Server) handleDebugDiff(w http.ResponseWriter, r *http.Request) {
	from, err := s.lineageByID(r.URL.Query().Get("a"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	to, err := s.lineageByID(r.URL.Query().Get("b"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	d, err := obs.Diff(from, to)
	if err != nil {
		s.writeErr(w, badRequest("%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"from": from, "to": to, "diff": d})
}

// handleDebugAudit sweeps the whole result cache on demand: every
// auditable entry is re-executed and compared. Entries that already
// fail their freshness check are skipped (the normal epoch vector
// handles them); the sweep exists to catch entries whose stamp lies.
func (s *Server) handleDebugAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, &httpError{http.StatusMethodNotAllowed, "POST required"})
		return
	}
	t0 := time.Now()
	var checked, skippedStale, mismatches, errs int
	var evicted []string
	for _, ent := range s.results.entries() {
		cr, ok := ent.val.(*cachedResult)
		if !ok || cr.query == "" {
			continue
		}
		if !cr.fresh(s.eng.DB) {
			skippedStale++
			continue
		}
		checked++
		bad, err := s.auditOne(r.Context(), ent.key, cr)
		if err != nil {
			errs++
			continue
		}
		if bad {
			mismatches++
			evicted = append(evicted, ent.key)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"checked":       checked,
		"skipped_stale": skippedStale,
		"mismatches":    mismatches,
		"evicted":       evicted,
		"errors":        errs,
		"elapsed_us":    time.Since(t0).Microseconds(),
	})
}
