package server

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"

	"emptyheaded/internal/obs"
)

// Determination provenance (see docs/PROVENANCE.md): every executed
// query's record carries the lineage that determined its result — plan
// fingerprint, restore generation, and the per-relation (epoch, overlay
// generation, WAL applied-seq watermark) triple (Server.lineage). It is
// read in three places: the /query response (opt-in via "provenance":
// true), /debug/trace/<id>, and the result-cache self-auditor below.

// auditCounters books the self-auditor's lifetime totals.
type auditCounters struct {
	// sampled counts cached serves picked by the background sampler;
	// checks counts completed re-executions (sampled + on-demand sweeps).
	sampled    atomic.Int64
	checks     atomic.Int64
	mismatches atomic.Int64 // each one evicts its entry
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
			Evicted:    s.audit.mismatches.Load(),
			Errors:     s.audit.errors.Load(),
		},
	}
}

// maybeSampleAudit flips the AuditFraction coin on a cached serve and,
// when it lands, re-executes the served entry in the background and
// compares. The sampler is the always-on tripwire; POST /debug/audit is
// the on-demand full sweep.
func (s *Server) maybeSampleAudit(key string, cr *cachedResult) {
	if f := s.cfg.AuditFraction; f <= 0 || rand.Float64() >= f {
		return
	}
	s.audit.sampled.Add(1)
	go s.auditOne(context.Background(), key, cr)
}

// auditOne re-executes the query that filled a cache entry (bypassing
// the cache) and compares content. A mismatch means the entry's
// validity stamp lies — it claims freshness for bytes the current data
// no longer determines — so the entry is evicted, eh_audit_mismatch_total
// is bumped, and an audit_mismatch event carries the entry's fill-time
// lineage under the re-execution's trace id (its own lineage is on
// /debug/trace/<id>). Returns whether a mismatch was found.
func (s *Server) auditOne(ctx context.Context, key string, cr *cachedResult) (bool, error) {
	s.audit.checks.Add(1)
	rec := s.obs.Start("audit", cr.req.Query)
	resp, err := func() (QueryResponse, error) {
		release, err := s.admit(ctx, rec)
		if err != nil {
			return QueryResponse{}, err
		}
		defer release()
		req := cr.req
		req.NoCache = true
		return s.runQuery(ctx, &req, req.Limit, rec)
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
	s.results.Remove(key)
	s.cfg.Events.Emit("audit_mismatch", rec.ID, map[string]any{
		"key":                key,
		"fingerprint":        cr.prov.Fingerprint,
		"cached_cardinality": cr.resp.Cardinality,
		"actual_cardinality": resp.Cardinality,
		"lineage":            cr.prov,
	})
	return true, nil
}

// respContentEqual compares the determined content of two responses:
// cardinality, scalar, tuples/columns/annotations and truncation.
// Attrs are excluded (cached entries hold canonical names, fresh
// executions client spellings), as are per-request fields (trace id,
// elapsed, cache flags).
func respContentEqual(a, b *QueryResponse) bool {
	if a.Cardinality != b.Cardinality || a.Truncated != b.Truncated || (a.Scalar == nil) != (b.Scalar == nil) {
		return false
	}
	if a.Scalar != nil && *a.Scalar != *b.Scalar {
		return false
	}
	rowsEqual := func(a, b [][]int64) bool { return slices.EqualFunc(a, b, slices.Equal[[]int64]) }
	return rowsEqual(a.Tuples, b.Tuples) && rowsEqual(a.Columns, b.Columns) && slices.Equal(a.Anns, b.Anns)
}

// auditSweep audits the whole result cache on demand (POST
// /debug/audit): every auditable entry is re-executed and compared.
// Entries that already fail their freshness check are skipped (the
// normal epoch vector handles them); the sweep exists to catch entries
// whose stamp lies. Each audit takes its own worker slot and leaves its
// own "audit" record beside the sweep's.
func (s *Server) auditSweep(ctx context.Context, _ *struct{}, _ *obs.Request) (any, error) {
	var checked, skippedStale, mismatches, errs int
	var evicted []string
	for _, ent := range s.results.Entries() {
		cr := ent.Val
		if !cr.fresh(s.eng.DB) {
			skippedStale++
			continue
		}
		checked++
		bad, err := s.auditOne(ctx, ent.Key, cr)
		if err != nil {
			errs++
			continue
		}
		if bad {
			mismatches++
			evicted = append(evicted, ent.Key)
		}
	}
	return timedReply{
		"checked":       checked,
		"skipped_stale": skippedStale,
		"mismatches":    mismatches,
		"evicted":       evicted,
		"errors":        errs,
	}, nil
}
