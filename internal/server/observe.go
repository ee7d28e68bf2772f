package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"emptyheaded/internal/exec"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/trace"
)

// The debug endpoints in this file and workload.go are views over the
// finished request records the spine retains
// (obs.Request; see docs/OBSERVABILITY.md "The request record").

// AnalyzeInfo is the /query "analyze": true payload: the request's
// phase breakdown plus the live kernel counters and the annotated plan
// they produced.
type AnalyzeInfo struct {
	TraceID uint64 `json:"trace_id"`
	TotalUS int64  `json:"total_us"`
	// PhasesUS maps each top-level lifecycle phase to its total
	// microseconds; the phases partition the request's wall time (JSON
	// encoding and socket writes excepted).
	PhasesUS map[string]int64 `json:"phases_us"`
	// Plan is the physical plan annotated with actuals
	// (exec.Plan.ExplainAnalyze).
	Plan string `json:"plan,omitempty"`
	// Bags holds the raw per-bag, per-level execution counters; the
	// kernel routes taken are in Bags[].Levels[].Kernel and on the
	// annotated Plan's kernels[...] columns.
	Bags []*exec.BagStats `json:"bags,omitempty"`
}

// traceSummary is one row of /debug/queries.
type traceSummary struct {
	ID          uint64 `json:"id"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Start       string `json:"start"`
	TotalUS     int64  `json:"total_us"`
	Spans       int    `json:"spans"`
	Error       string `json:"error,omitempty"`
}

// handleDebugQueries lists recently finished requests, newest first
// (GET /debug/queries?n=50; without n, every retained one).
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	n, err := queryN(r, 0)
	if err != nil {
		s.writeErr(w, err, 0)
		return
	}
	recs := s.obs.Ring.Recent(n)
	out := make([]traceSummary, 0, len(recs))
	for _, rec := range recs {
		out = append(out, traceSummary{
			ID:          rec.ID,
			Kind:        rec.Kind,
			Fingerprint: rec.Fingerprint,
			Start:       rec.Start.UTC().Format(time.RFC3339Nano),
			TotalUS:     rec.TotalUS,
			Spans:       len(rec.Spans),
			Error:       rec.Error,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// recordByID resolves a trace id from the URL to its retained record.
func (s *Server) recordByID(idStr string) (*obs.Request, error) {
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return nil, badRequest("bad trace id %q", idStr)
	}
	rec, ok := s.obs.Ring.Get(id)
	if !ok {
		return nil, &httpError{http.StatusNotFound, "trace " + idStr + " not retained (ring wrapped or id never finished)"}
	}
	return rec, nil
}

// handleDebugTrace serves one full trace (GET /debug/trace/<id>): every
// span with offsets, durations and attributes, and the lineage when the
// request resolved one.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	rec, err := s.recordByID(strings.TrimPrefix(r.URL.Path, "/debug/trace/"))
	if err != nil {
		s.writeErr(w, err, 0)
		return
	}
	// The embedded struct keeps the trace's JSON flat.
	writeJSON(w, http.StatusOK, struct {
		*trace.Trace
		Provenance *obs.Lineage `json:"provenance,omitempty"`
	}{&rec.Trace, rec.Provenance()})
}
