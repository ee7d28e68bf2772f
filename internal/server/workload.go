package server

import (
	"net/http"
	"strconv"

	"emptyheaded/internal/core"
	"emptyheaded/internal/obs"
	"emptyheaded/internal/trie"
)

// queryN reads the ?n= row limit of a debug listing (def when absent).
func queryN(r *http.Request, def int) (int, error) {
	v := r.URL.Query().Get("n")
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, badRequest("bad n %q", v)
	}
	return n, nil
}

// handleDebugWorkload groups the retained query records by fingerprint
// (GET /debug/workload?sort=count|latency|rows&n=20). Each row links the
// lineage of its newest record — one click from "this query is hot" to
// "this is the lineage it last ran on".
func (s *Server) handleDebugWorkload(w http.ResponseWriter, r *http.Request) {
	sortKey := r.URL.Query().Get("sort")
	switch sortKey {
	case "", obs.SortCount:
		sortKey = obs.SortCount
	case obs.SortLatency, obs.SortRows:
	default:
		s.writeErr(w, badRequest("bad sort %q (count|latency|rows)", sortKey), 0)
		return
	}
	n, err := queryN(r, 20)
	if err != nil {
		s.writeErr(w, err, 0)
		return
	}
	totals, rows := obs.Profile(s.obs.Ring.Recent(0), sortKey, n)
	writeJSON(w, http.StatusOK, map[string]any{
		"totals":       totals,
		"sort":         sortKey,
		"fingerprints": rows,
	})
}

// relationRow is one /debug/relations row: the catalog description
// joined with the relation's live physical state.
type relationRow struct {
	core.RelationInfo
	// HasOverlay reports whether the relation currently serves through a
	// delta-overlay merged view (pending streaming updates).
	HasOverlay bool `json:"has_overlay"`
	// LayoutProfile is the per-level physical layout mix the adaptive
	// layout optimizer chose for the relation's canonical trie (sets and
	// members per layout per level).
	LayoutProfile []trie.LevelLayoutProfile `json:"layout_profile,omitempty"`
}

// handleDebugRelations serves the catalog with each relation's overlay
// state and layout census (GET /debug/relations).
func (s *Server) handleDebugRelations(w http.ResponseWriter, r *http.Request) {
	infos := s.eng.Relations()
	rows := make([]relationRow, len(infos))
	for i, info := range infos {
		rows[i].RelationInfo = info
		if rel, ok := s.eng.DB.Relation(info.Name); ok {
			rows[i].HasOverlay = rel.HasOverlay()
			rows[i].LayoutProfile = rel.Canonical().LayoutProfile()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"relations": rows})
}
