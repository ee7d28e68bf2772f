package obs

import (
	"fmt"
	"sort"
	"time"
)

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
// hit points at the same immutable value. Diff answers "why did this
// result change?" from two of them.

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
	// tombstones); the differ uses it to attribute cardinality drift.
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

// RelDrift reports one relation whose lineage differs between two
// records of the same fingerprint.
type RelDrift struct {
	Relation string `json:"relation"`
	// FromEpoch/ToEpoch (and the overlay/WAL pairs) are the lineage
	// coordinates in the two records; a relation present in only one
	// record reports the missing side as zeros with Added/Removed set.
	FromEpoch      uint64 `json:"from_epoch"`
	ToEpoch        uint64 `json:"to_epoch"`
	FromOverlayGen uint64 `json:"from_overlay_gen,omitempty"`
	ToOverlayGen   uint64 `json:"to_overlay_gen,omitempty"`
	FromWALSeq     uint64 `json:"from_wal_seq,omitempty"`
	ToWALSeq       uint64 `json:"to_wal_seq,omitempty"`
	// OverlayRowsDelta is the change in live overlay size — the differ's
	// first-order attribution of the cardinality delta.
	OverlayRowsDelta int  `json:"overlay_rows_delta,omitempty"`
	Added            bool `json:"added,omitempty"`
	Removed          bool `json:"removed,omitempty"`
}

// DiffReport is the why-changed analysis of two records.
type DiffReport struct {
	Fingerprint string `json:"fingerprint"`
	FromTrace   uint64 `json:"from_trace"`
	ToTrace     uint64 `json:"to_trace"`
	// CardinalityDelta is to.Cardinality - from.Cardinality.
	CardinalityDelta int `json:"cardinality_delta"`
	// GenerationChanged marks a restore between the two executions: the
	// whole database was replaced, so per-relation drift is secondary.
	GenerationChanged bool `json:"generation_changed,omitempty"`
	DictDrifted       bool `json:"dict_drifted,omitempty"`
	// Drifted lists relations whose lineage moved, sorted by name;
	// empty means the two results were determined by identical inputs.
	Drifted []RelDrift `json:"drifted,omitempty"`
	// EpochOnly marks records lacking WAL watermarks (pre-watermark
	// snapshot or no WAL): drift is attributed by epoch alone.
	EpochOnly bool `json:"epoch_only,omitempty"`
}

// Diff explains why two results of the same fingerprint differ: which
// relations' epochs/watermarks drifted between the executions, with the
// overlay row delta as the cardinality attribution. Records with
// different fingerprints are not comparable.
func Diff(from, to *Lineage) (*DiffReport, error) {
	if from == nil || to == nil {
		return nil, fmt.Errorf("obs: diff needs two records")
	}
	if from.Fingerprint != to.Fingerprint {
		return nil, fmt.Errorf("obs: fingerprints differ (%s vs %s); records are not comparable",
			from.Fingerprint, to.Fingerprint)
	}
	rep := &DiffReport{
		Fingerprint:       from.Fingerprint,
		FromTrace:         from.TraceID,
		ToTrace:           to.TraceID,
		CardinalityDelta:  to.Cardinality - from.Cardinality,
		GenerationChanged: from.Generation != to.Generation,
		DictDrifted:       from.DictEpoch != to.DictEpoch,
		EpochOnly:         true,
	}
	fromRels := map[string]RelLineage{}
	for _, rl := range from.Relations {
		fromRels[rl.Relation] = rl
		if rl.WALSeq != 0 {
			rep.EpochOnly = false
		}
	}
	seen := map[string]bool{}
	for _, b := range to.Relations {
		seen[b.Relation] = true
		if b.WALSeq != 0 {
			rep.EpochOnly = false
		}
		a, ok := fromRels[b.Relation]
		if !ok {
			rep.Drifted = append(rep.Drifted, RelDrift{
				Relation: b.Relation, ToEpoch: b.Epoch, ToOverlayGen: b.OverlayGen,
				ToWALSeq: b.WALSeq, OverlayRowsDelta: b.OverlayRows, Added: true,
			})
			continue
		}
		if a == b {
			continue
		}
		rep.Drifted = append(rep.Drifted, RelDrift{
			Relation:  b.Relation,
			FromEpoch: a.Epoch, ToEpoch: b.Epoch,
			FromOverlayGen: a.OverlayGen, ToOverlayGen: b.OverlayGen,
			FromWALSeq: a.WALSeq, ToWALSeq: b.WALSeq,
			OverlayRowsDelta: b.OverlayRows - a.OverlayRows,
		})
	}
	for _, a := range from.Relations {
		if !seen[a.Relation] {
			rep.Drifted = append(rep.Drifted, RelDrift{
				Relation: a.Relation, FromEpoch: a.Epoch, FromOverlayGen: a.OverlayGen,
				FromWALSeq: a.WALSeq, OverlayRowsDelta: -a.OverlayRows, Removed: true,
			})
		}
	}
	sort.Slice(rep.Drifted, func(i, j int) bool { return rep.Drifted[i].Relation < rep.Drifted[j].Relation })
	return rep, nil
}
