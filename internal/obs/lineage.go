package obs

import "time"

// Determination provenance for query results: the minimal lineage a
// deployment needs to decide whether two results were determined by the
// same inputs in the same admissible order.
//
// A Lineage captures, for one query execution, the plan fingerprint and
// per-relation lineage triple (mutation epoch, overlay generation, WAL
// applied-seq watermark). The epoch says *whether* the relation changed,
// the overlay generation says *how many* streamed batches shaped its
// merged view, and the WAL watermark pins *which prefix of the one
// admissible update order* the relation's visible state reflects — the
// same sequence every replica must agree on (see docs/PROVENANCE.md).
//
// Lineage is a property of the output, so it is a field of the request
// record (Request.Lineage), not a store of its own: the executing
// request builds it, the result-cache entry keeps it, and every later
// hit points at the same immutable value.

// RelLineage is one relation's determination lineage at result time.
type RelLineage struct {
	Relation string `json:"relation"`
	// Epoch is the relation's mutation epoch as seen by the query's fork.
	Epoch uint64 `json:"epoch"`
	// OverlayGen counts the streamed update batches folded into the
	// relation's merged view since its base was last replaced (0 when the
	// relation is fully compacted or has never been streamed into).
	OverlayGen uint64 `json:"overlay_gen,omitempty"`
	// WALSeq is the applied-seq watermark: the highest WAL sequence
	// number whose record is reflected in the relation's visible state.
	// 0 means epoch-only lineage (no WAL, or a pre-watermark snapshot).
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// OverlayRows is the relation's live overlay size (pending inserts +
	// tombstones): with two lineages of one fingerprint, its change is the
	// first-order attribution of their cardinality change.
	OverlayRows int `json:"overlay_rows,omitempty"`
}

// Lineage is the determination-provenance record of one query result.
// Immutable once built: result-cache hits share the fill-time value.
type Lineage struct {
	// TraceID is the id of the request record the lineage is read from
	// (see Request.Provenance for how a cache hit re-labels it).
	TraceID uint64 `json:"trace_id"`
	// Fingerprint is the normalized plan fingerprint of the query.
	Fingerprint string `json:"fingerprint"`
	// Generation is the server's restore generation at execution time.
	Generation uint64 `json:"generation"`
	// DictEpoch is the identifier dictionary's mutation epoch.
	DictEpoch uint64 `json:"dict_epoch,omitempty"`
	// Cardinality is the result's tuple count (1 for scalars).
	Cardinality int `json:"cardinality"`
	// Cached reports whether the result was served from the result cache
	// (the record then describes the execution that filled the entry).
	Cached bool `json:"cached,omitempty"`
	// At is the wall time the record was built.
	At time.Time `json:"at"`
	// Relations is the per-relation lineage of the query's read set,
	// sorted by relation name.
	Relations []RelLineage `json:"relations"`
}
