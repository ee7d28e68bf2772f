package server

import (
	"net/http"
	"strconv"
	"time"

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

// handleDebugWorkload serves the per-fingerprint registry
// (GET /debug/workload?sort=count|latency|rows&n=20).
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
	// Each fingerprint row links the lineage of its last observed request
	// (when the ring still retains that record) — one click from "this
	// query is hot" to "this is the lineage it last ran on".
	type workloadRow struct {
		obs.FingerprintStats
		Provenance *obs.Lineage `json:"provenance,omitempty"`
	}
	top := s.obs.Workload.TopK(sortKey, n)
	rows := make([]workloadRow, len(top))
	for i, fs := range top {
		rows[i] = workloadRow{FingerprintStats: fs}
		if rec, ok := s.obs.Ring.Get(fs.LastTraceID); ok {
			rows[i].Provenance = rec.Provenance()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"totals":       s.obs.Workload.Totals(),
		"sort":         sortKey,
		"fingerprints": rows,
	})
}

// relationHeatRow is one /debug/relations row: the catalog description
// joined with the relation's heat counters.
type relationHeatRow struct {
	core.RelationInfo
	// HasOverlay reports whether the relation currently serves through a
	// delta-overlay merged view (pending streaming updates).
	HasOverlay bool `json:"has_overlay"`
	// Heat carries the workload counters; nil when the relation has
	// never been read or updated since boot.
	Heat *obs.RelationHeat `json:"heat,omitempty"`
	// LayoutProfile is the per-level physical layout mix the adaptive
	// layout optimizer chose for the relation's canonical trie (sets and
	// members per layout per level).
	LayoutProfile []trie.LevelLayoutProfile `json:"layout_profile,omitempty"`
}

// handleDebugRelations serves the relation heat map joined with the
// catalog (GET /debug/relations). Relations that vanished from the
// catalog (dropped, restored over) keep their heat rows with zeroed
// catalog fields.
func (s *Server) handleDebugRelations(w http.ResponseWriter, r *http.Request) {
	heat := map[string]*obs.RelationHeat{}
	snap := s.obs.Heat.Snapshot()
	for i := range snap {
		heat[snap[i].Relation] = &snap[i]
	}
	rows := make([]relationHeatRow, 0, len(heat))
	seen := map[string]bool{}
	for _, info := range s.eng.Relations() {
		row := relationHeatRow{RelationInfo: info, Heat: heat[info.Name]}
		if rel, ok := s.eng.DB.Relation(info.Name); ok {
			row.HasOverlay = rel.HasOverlay()
			row.LayoutProfile = rel.Canonical().LayoutProfile()
		}
		rows = append(rows, row)
		seen[info.Name] = true
	}
	for _, h := range heat {
		if !seen[h.Relation] {
			rows = append(rows, relationHeatRow{
				RelationInfo: core.RelationInfo{Name: h.Relation},
				Heat:         h,
			})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"relations": rows})
}

// planCacheEntry is one /debug/cache plan row.
type planCacheEntry struct {
	Fingerprint string   `json:"fingerprint"`
	Reads       []string `json:"reads,omitempty"`
	Hits        int64    `json:"hits"`
}

// resultCacheEntry is one /debug/cache result row.
type resultCacheEntry struct {
	Key   string   `json:"key"`
	Reads []string `json:"reads,omitempty"`
	// RelEpochs / DictEpoch stamp the entry's validity: the per-relation
	// epochs of the read set (aligned with Reads) and the dictionary
	// epoch at fill time.
	RelEpochs   []uint64 `json:"rel_epochs,omitempty"`
	DictEpoch   uint64   `json:"dict_epoch"`
	AgeS        float64  `json:"age_s"`
	Hits        int64    `json:"hits"`
	Cardinality int      `json:"cardinality"`
	Truncated   bool     `json:"truncated,omitempty"`
	// ApproxBytes estimates the cached payload (8 bytes per rendered
	// cell plus annotations).
	ApproxBytes int64 `json:"approx_bytes"`
	// Provenance is the lineage of the execution that filled the entry.
	Provenance *obs.Lineage `json:"provenance,omitempty"`
}

// handleDebugCache serves the plan and result caches' live contents
// (GET /debug/cache), most recently used first, with per-entry hit
// counts — which fingerprints the caches are actually retaining, and
// which entries earn their slots.
func (s *Server) handleDebugCache(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	plans := make([]planCacheEntry, 0)
	for _, ent := range s.plans.plans.entries() {
		pe := ent.val.(*planEntry)
		plans = append(plans, planCacheEntry{
			Fingerprint: pe.fp,
			Reads:       pe.reads,
			Hits:        ent.hits,
		})
	}
	results := make([]resultCacheEntry, 0)
	for _, ent := range s.results.entries() {
		cr := ent.val.(*cachedResult)
		row := resultCacheEntry{
			Key:         ent.key,
			Reads:       cr.reads,
			RelEpochs:   cr.relEpochs,
			DictEpoch:   cr.dictEpoch,
			AgeS:        now.Sub(cr.createdAt).Seconds(),
			Hits:        ent.hits,
			Cardinality: cr.resp.Cardinality,
			Truncated:   cr.resp.Truncated,
			ApproxBytes: approxRespBytes(&cr.resp),
			Provenance:  cr.prov,
		}
		results = append(results, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"plan_cache": map[string]any{
			"stats":   s.plans.stats(),
			"entries": plans,
		},
		"result_cache": map[string]any{
			"stats":   s.results.stats(),
			"entries": results,
		},
	})
}

// approxRespBytes estimates a cached response's memory footprint from
// its rendered payload: 8 bytes per tuple/column cell and annotation.
func approxRespBytes(resp *QueryResponse) int64 {
	var cells int64
	for _, t := range resp.Tuples {
		cells += int64(len(t))
	}
	for _, c := range resp.Columns {
		cells += int64(len(c))
	}
	cells += int64(len(resp.Anns))
	return cells * 8
}
