package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"emptyheaded/internal/delta"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/fault"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trace"
	"emptyheaded/internal/trie"
	"emptyheaded/internal/wal"
)

// Streaming updates (update.go) turn the engine from a load-then-query
// accelerator into a serving system: Update applies per-relation
// insert/delete batches through delta-trie overlays (internal/delta),
// optionally journaled in a write-ahead log (internal/wal) that replays
// on boot on top of the latest snapshot, with a background compactor
// folding grown overlays into fresh base tries.
//
// Ordering and determinism: upd.mu serializes updates, so the WAL
// sequence order IS the in-memory apply order — of all admissible
// interleavings of concurrent updates, the log pins down exactly one,
// and replay re-executes it deterministically. Because overlay state is
// a function "last action per tuple wins", replay is also idempotent
// across a snapshot boundary: re-applying records the snapshot already
// absorbed converges to the same state.

// ErrDurability marks update failures on the durability path (the WAL
// append, not the request): the batch was NOT acknowledged and NOT
// applied, and retrying may succeed once the underlying condition
// (disk full, I/O error) clears. Servers should surface these as 5xx,
// not client errors.
var ErrDurability = errors.New("core: durable append failed")

const (
	// DefaultCompactRatio is the overlay/base row ratio past which the
	// background compactor folds the overlay into a fresh base.
	DefaultCompactRatio = 0.10
	// DefaultCompactMin is the minimum overlay row count before
	// compaction is considered at all (tiny overlays are cheaper to
	// merge through than to compact).
	DefaultCompactMin = 1024
)

// updState is the engine's streaming-update state; mu serializes every
// update, WAL append, replay, compaction install, and restore. A
// relation's own write state — base, overlay, maintained cardinality,
// overlay generation and WAL watermark — lives on the exec.Relation the
// DB holds (see exec.NewOverlayRelation), not here.
type updState struct {
	mu     sync.Mutex
	wal    *wal.Log
	walCfg WALConfig

	compactRatio float64
	compactMin   int
	// compacting names the relations with a compaction in flight.
	compacting map[string]bool
	// compactWG tracks in-flight background compactions so Close (and
	// tests) can wait for them.
	compactWG sync.WaitGroup

	replay ReplayStats

	updates     atomic.Uint64
	updateRows  atomic.Uint64
	compactions atomic.Uint64
	compactNS   atomic.Uint64

	// obs holds the latency observers wired by the serving layer
	// (histograms); both optional.
	obs Observers
}

// Observers are latency-event callbacks the serving layer installs to
// feed its histograms without coupling core to a metrics package. All
// fields are optional; callbacks must be cheap and non-blocking (they
// run inside subsystem critical sections).
type Observers struct {
	// WALFsync receives every WAL fsync's wall duration.
	WALFsync func(time.Duration)
	// Compaction receives every finished compaction's wall duration.
	Compaction func(time.Duration)
	// Event receives structured subsystem events (wal_rotate,
	// compaction, snapshot, restore, wal_replay) for the serving
	// layer's unified event log, keeping core metrics-free the same way
	// the latency callbacks do. Emissions are ordered with the state
	// changes they describe: each fires under (or captured from) the
	// update mutex, so the event sequence is an admissible serialization
	// of the subsystem's history.
	Event func(kind string, fields map[string]any)
}

// SetObservers installs latency observers. Call it once at startup;
// installing after the WAL is open still takes effect.
func (e *Engine) SetObservers(o Observers) {
	e.upd.mu.Lock()
	e.upd.obs = o
	if e.upd.wal != nil {
		e.upd.wal.SetFsyncObserver(o.WALFsync)
	}
	e.upd.mu.Unlock()
}

// UpdateBatch is one streaming update: columnar inserts (optionally
// annotated) and full-tuple deletes against one relation. Deletes apply
// before inserts. The engine takes ownership of the column slices.
type UpdateBatch struct {
	// Rel names the target relation. A batch whose relation doesn't
	// exist creates it (arity from the columns, semiring from Op).
	Rel string
	// InsCols holds inserted tuples column-wise; InsAnns their
	// annotations (required exactly when the relation is annotated).
	InsCols [][]uint32
	InsAnns []float64
	// DelCols holds deleted tuples column-wise (full-tuple tombstones;
	// deleting an absent tuple is a no-op).
	DelCols [][]uint32
	// Op is the semiring for a newly created annotated relation;
	// ignored when the relation exists.
	Op semiring.Op
}

// UpdateResult reports one applied batch.
type UpdateResult struct {
	Rel string `json:"name"`
	// Seq is the WAL sequence number (0 when no WAL is configured).
	Seq uint64 `json:"seq,omitempty"`
	// Inserted / Deleted are the batch's row counts as submitted.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// Cardinality is the relation's tuple count after the batch.
	Cardinality int `json:"cardinality"`
	// OverlayRows is the live overlay size after the batch (inserts +
	// tombstones not yet compacted into the base).
	OverlayRows int `json:"overlay_rows"`
}

// Update validates, journals (when a WAL is open) and applies one
// update batch. The batch is acknowledged only after it is durable
// under the configured fsync policy and visible to new queries.
// Concurrent updates serialize; queries never block on updates (they
// run on forks of immutable tries).
func (e *Engine) Update(b UpdateBatch) (UpdateResult, error) {
	return e.UpdateTraced(b, nil)
}

// UpdateTraced is Update with query-lifecycle tracing: the WAL append
// (annotated with the fsyncs it absorbed and their wall time) and the
// overlay apply record spans on tr. A nil tr is the untraced path —
// every site degrades to a nil check.
func (e *Engine) UpdateTraced(b UpdateBatch, tr *trace.Trace) (UpdateResult, error) {
	e.upd.mu.Lock()
	defer e.upd.mu.Unlock()
	rec, err := e.recordForLocked(&b)
	if err != nil {
		return UpdateResult{}, err
	}
	if e.upd.wal != nil {
		sp := tr.Begin("wal_append")
		f0, n0 := e.upd.wal.FsyncTotals()
		_, err := e.upd.wal.Append(rec)
		if f1, n1 := e.upd.wal.FsyncTotals(); f1 > f0 {
			tr.SpanAttrInt(sp, "fsyncs", int64(f1-f0))
			tr.SpanAttrInt(sp, "fsync_us", int64((n1-n0)/1e3))
		}
		tr.End(sp)
		if err != nil {
			return UpdateResult{}, fmt.Errorf("%w: %w", ErrDurability, err)
		}
	}
	res, err := e.applyRecordLocked(rec, tr)
	if err != nil {
		return UpdateResult{}, err
	}
	e.maybeCompactLocked(b.Rel)
	return res, nil
}

// recordForLocked validates a batch against the live catalog and shapes
// it as a WAL record.
func (e *Engine) recordForLocked(b *UpdateBatch) (*wal.Record, error) {
	if b.Rel == "" {
		return nil, fmt.Errorf("core: update without relation name")
	}
	arity := len(b.InsCols)
	if arity == 0 {
		arity = len(b.DelCols)
	}
	if arity == 0 {
		return nil, fmt.Errorf("core: update %s: no insert or delete columns", b.Rel)
	}
	if len(b.InsCols) != 0 && len(b.DelCols) != 0 && len(b.InsCols) != len(b.DelCols) {
		return nil, fmt.Errorf("core: update %s: insert arity %d, delete arity %d", b.Rel, len(b.InsCols), len(b.DelCols))
	}
	op := b.Op
	annotated := b.InsAnns != nil
	if rel, ok := e.DB.Relation(b.Rel); ok {
		if rel.Arity != arity {
			return nil, fmt.Errorf("core: update %s: batch arity %d, relation arity %d", b.Rel, arity, rel.Arity)
		}
		if rel.Arity == 0 {
			return nil, fmt.Errorf("core: update %s: scalar relations are not updatable", b.Rel)
		}
		op = rel.Op
		if rel.Annotated && b.InsAnns == nil && insRows(b.InsCols) > 0 {
			// Un-annotated inserts into an annotated relation default to
			// the ⊗-identity, matching the loader's convention.
			b.InsAnns = fillOnes(op, insRows(b.InsCols))
		}
		if !rel.Annotated && b.InsAnns != nil {
			return nil, fmt.Errorf("core: update %s: annotations for un-annotated relation", b.Rel)
		}
		annotated = rel.Annotated
	} else if annotated && op == semiring.None {
		return nil, fmt.Errorf("core: update %s: annotated batch for a new relation needs an op", b.Rel)
	}
	rec := &wal.Record{
		Rel:     b.Rel,
		Arity:   arity,
		Op:      op,
		InsCols: b.InsCols,
		DelCols: b.DelCols,
	}
	if annotated {
		if rec.InsAnns = b.InsAnns; rec.InsAnns == nil {
			rec.InsAnns = []float64{}
		}
	}
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("core: update %s: %w", b.Rel, err)
	}
	return rec, nil
}

func insRows(cols [][]uint32) int {
	if len(cols) == 0 {
		return 0
	}
	return len(cols[0])
}

// RowsToColumns transposes row-major tuples into the column-major shape
// UpdateBatch takes, validating that every row shares one arity. The
// server's /update handler and the library facade both feed through it.
func RowsToColumns(rows [][]uint32) ([][]uint32, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("core: empty update batch")
	}
	arity := len(rows[0])
	cols := make([][]uint32, arity)
	for c := range cols {
		cols[c] = make([]uint32, len(rows))
	}
	for i, row := range rows {
		if len(row) != arity {
			return nil, fmt.Errorf("core: tuple %v does not match arity %d", row, arity)
		}
		for c, v := range row {
			cols[c][i] = v
		}
	}
	return cols, nil
}

func fillOnes(op semiring.Op, n int) []float64 {
	out := make([]float64, n)
	one := op.One()
	for i := range out {
		out[i] = one
	}
	return out
}

// applyRecordLocked folds one record into the relation's overlay and
// installs the next relation, built from the one the DB holds now: a
// plain relation becomes the base (its index cache is kept), an overlay
// relation keeps its base and extends its overlay. The only failure
// mode is a shape conflict with a relation that was concurrently
// replaced under a different arity (recordForLocked validated against
// the catalog as of entry).
func (e *Engine) applyRecordLocked(rec *wal.Record, tr *trace.Trace) (UpdateResult, error) {
	cur, ok := e.DB.Relation(rec.Rel)
	if !ok {
		cur = exec.NewRelation(rec.Rel, trie.NewEmpty(rec.Arity, rec.Annotated(), rec.Op, e.Opts.Layout))
	} else if cur.Arity != rec.Arity {
		return UpdateResult{}, fmt.Errorf("core: update %s: record arity %d, relation arity %d", rec.Rel, rec.Arity, cur.Arity)
	}
	// The batch extends the relation under the policy that built it.
	layout := cur.Canonical().Policy
	ov := cur.Overlay()
	if ov == nil {
		ov = delta.NewOverlay(cur.Arity, cur.Annotated, cur.Op, layout)
	}
	insT, delT := miniTries(rec, cur, layout)

	// Maintain the merged cardinality against the pre-batch view:
	// deletes apply first, so a delete counts iff the tuple was visible,
	// and an insert counts iff it was absent or deleted by this batch.
	// This replaces the full merged-trie walk the response used to pay.
	sp := tr.Begin("cardinality")
	card := cur.Cardinality()
	prev := cur.Canonical()
	if delT != nil {
		delT.ForEachTuple(func(tp []uint32, _ float64) {
			if prev.Contains(tp) {
				card--
			}
		})
	}
	if insT != nil {
		insT.ForEachTuple(func(tp []uint32, _ float64) {
			if !prev.Contains(tp) || (delT != nil && delT.Contains(tp)) {
				card++
			}
		})
	}
	tr.End(sp)

	sp = tr.Begin("overlay_merge")
	ov = ov.Apply(insT, delT)
	// A journaled record advances the watermark (replay's synthesized
	// records carry the scan's maximum); it never moves backwards.
	e.DB.Install(exec.NewOverlayRelation(cur.Base(), ov, card, cur.OverlayGen()+1, max(cur.WALSeq(), rec.Seq)))
	tr.SpanAttrInt(sp, "overlay_rows", int64(ov.Rows()))
	tr.End(sp)
	e.upd.updates.Add(1)
	e.upd.updateRows.Add(uint64(rec.InsRows() + rec.DelRows()))
	return UpdateResult{
		Rel:         rec.Rel,
		Seq:         rec.Seq,
		Inserted:    rec.InsRows(),
		Deleted:     rec.DelRows(),
		Cardinality: card,
		OverlayRows: ov.Rows(),
	}, nil
}

// miniTries builds the batch's insert and tombstone mini-tries (nil
// when the respective side is empty). The record's column slices are
// consumed.
func miniTries(rec *wal.Record, rel *exec.Relation, layout *trie.Policy) (insT, delT *trie.Trie) {
	if rec.InsRows() > 0 {
		var anns []float64
		if rel.Annotated {
			anns = rec.InsAnns
		}
		insT = trie.FromColumns(rec.InsCols, anns, rel.Op, layout)
	}
	if rec.DelRows() > 0 {
		delT = trie.FromColumns(rec.DelCols, nil, semiring.None, layout)
	}
	return insT, delT
}

// SetAutoCompact tunes the background compactor: the overlay/base row
// ratio that triggers compaction and the minimum overlay row count.
// ratio <= 0 disables automatic compaction (Compact still works).
func (e *Engine) SetAutoCompact(ratio float64, minRows int) {
	e.upd.mu.Lock()
	e.upd.compactRatio = ratio
	if minRows > 0 {
		e.upd.compactMin = minRows
	}
	e.upd.mu.Unlock()
}

// maybeCompactLocked spawns a background compaction when the overlay
// outgrew the configured ratio of the base.
func (e *Engine) maybeCompactLocked(name string) {
	cur, ok := e.DB.Relation(name)
	if !ok || !cur.HasOverlay() || e.upd.compacting[name] || e.upd.compactRatio <= 0 {
		return
	}
	rows := cur.Overlay().Rows()
	if rows < e.upd.compactMin {
		return
	}
	if float64(rows) < e.upd.compactRatio*float64(cur.Base().Cardinality()) {
		return
	}
	e.upd.compactWG.Add(1)
	go func() {
		defer e.upd.compactWG.Done()
		_, _ = e.Compact(name)
	}()
}

// Compact folds the relation's overlay into a fresh compacted base and
// installs it. The heavy rebuild runs outside the update mutex, so
// updates keep flowing. There is one install path: the current
// relation's overlay is trimmed against the compacted trie — empty when
// no update landed meanwhile, exactly the updates that landed otherwise
// — and the result swaps in if the relation still sits on the captured
// base. Returns false when there was nothing to compact, a compaction
// was already in flight, or a load or restore replaced the relation.
func (e *Engine) Compact(name string) (bool, error) {
	e.upd.mu.Lock()
	cur, ok := e.DB.Relation(name)
	if !ok || !cur.HasOverlay() || e.upd.compacting[name] {
		e.upd.mu.Unlock()
		return false, nil
	}
	e.upd.compacting[name] = true
	e.upd.mu.Unlock()

	// Chaos hook: Latency here widens the rebuild/install race window,
	// Err aborts before anything is installed — either way the relation
	// keeps serving its pre-compaction state.
	err := fault.Hit("core.compact")
	t0 := time.Now()
	var compacted *trie.Trie
	if err == nil {
		compacted = delta.Compact(cur.Canonical())
	}

	e.upd.mu.Lock()
	defer e.upd.mu.Unlock()
	delete(e.upd.compacting, name)
	if err != nil {
		return false, err
	}
	now, ok := e.DB.Relation(name)
	if !ok || now.Base() != cur.Base() {
		return false, nil // replaced by a load or restore: the work is obsolete
	}
	// The install carries exactly the current logical content, so it
	// goes through Swap: no epoch bump, and every epoch-keyed cached
	// result over the relation stays valid — compaction is invisible to
	// clients. Cardinality, overlay generation and watermark carry over.
	ov := now.Overlay().TrimAgainst(compacted)
	next := exec.NewOverlayRelation(exec.NewRelation(name, compacted), ov, now.Cardinality(), now.OverlayGen(), now.WALSeq())
	if !e.DB.Swap(now, next) {
		return false, nil
	}
	dur := time.Since(t0)
	e.upd.compactions.Add(1)
	e.upd.compactNS.Add(uint64(dur))
	if e.upd.obs.Compaction != nil {
		e.upd.obs.Compaction(dur)
	}
	if e.upd.obs.Event != nil {
		e.upd.obs.Event("compaction", map[string]any{
			"relation":     name,
			"duration_us":  dur.Microseconds(),
			"base_rows":    next.Base().Cardinality(),
			"overlay_rows": ov.Rows(),
			"raced":        now != cur,
		})
	}
	return true, nil
}

// WaitCompactions blocks until in-flight background compactions finish
// (shutdown and test hook).
func (e *Engine) WaitCompactions() { e.upd.compactWG.Wait() }

// WALConfig configures the engine's write-ahead log.
type WALConfig struct {
	// Dir is the WAL segment directory.
	Dir string
	// Sync is the fsync policy (always / interval / off).
	Sync wal.SyncPolicy
	// SyncInterval paces interval fsyncs (default 50ms).
	SyncInterval time.Duration
	// SnapshotDir pairs the WAL with one snapshot directory: only a
	// successful snapshot to it truncates replayed segments. Empty
	// means snapshots never truncate — without a paired directory there
	// is no guarantee the next boot restores the state that absorbed
	// the records, so they are conservatively kept (replay is
	// idempotent; segments can be removed manually once snapshotted).
	SnapshotDir string
	// FS overrides the log's file operations — fault injection in
	// chaos tests. Nil selects the real filesystem.
	FS fault.FS
}

// ReplayStats reports what OpenWAL recovered on boot.
type ReplayStats struct {
	Segments  int   `json:"segments"`
	Records   int   `json:"records"`
	Rows      int64 `json:"rows"`
	Bytes     int64 `json:"bytes"`
	Truncated bool  `json:"truncated,omitempty"`
	// DurationUS is the wall time of the scan+apply, microseconds.
	DurationUS int64 `json:"duration_us"`
	// Relations is the number of distinct relations the replay touched.
	Relations int `json:"relations,omitempty"`
	// SkippedRelations counts relations whose accumulated records could
	// not apply (arity conflict with the restored catalog — e.g. an
	// unjournaled load replaced the relation mid-log). Their records
	// are dropped rather than failing the boot; the restored snapshot
	// wins.
	SkippedRelations int `json:"skipped_relations,omitempty"`
}

// OpenWAL opens (creating if needed) the write-ahead log and replays
// its records on top of the engine's current state — call it on boot
// after Restore. Records accumulate per relation during the scan and
// install once at the end (one merged view per relation, not one per
// record), so replaying 100k single-row updates costs one overlay
// fold, not 100k. After OpenWAL returns, every Update appends to the
// log before applying.
func (e *Engine) OpenWAL(cfg WALConfig) (ReplayStats, error) {
	e.upd.mu.Lock()
	defer e.upd.mu.Unlock()
	if e.upd.wal != nil {
		return ReplayStats{}, fmt.Errorf("core: WAL already open")
	}
	acc := newReplayAcc()
	l, info, err := wal.Open(wal.Options{Dir: cfg.Dir, Sync: cfg.Sync, SyncInterval: cfg.SyncInterval, FS: cfg.FS},
		func(rec *wal.Record) error { return acc.add(rec, e) })
	if err != nil {
		return ReplayStats{}, err
	}
	skipped, err := acc.installLocked(e)
	if err != nil {
		l.Close()
		return ReplayStats{}, err
	}
	e.upd.wal = l
	e.upd.walCfg = cfg
	if e.upd.obs.WALFsync != nil {
		l.SetFsyncObserver(e.upd.obs.WALFsync)
	}
	st := ReplayStats{
		Segments:         info.Segments,
		Records:          info.Records,
		Rows:             info.Rows,
		Bytes:            info.Bytes,
		Truncated:        info.Truncated,
		DurationUS:       info.Duration.Microseconds(),
		Relations:        len(acc.rels),
		SkippedRelations: skipped,
	}
	e.upd.replay = st
	if e.upd.obs.Event != nil {
		e.upd.obs.Event("wal_replay", map[string]any{
			"segments":    st.Segments,
			"records":     st.Records,
			"rows":        st.Rows,
			"relations":   st.Relations,
			"truncated":   st.Truncated,
			"duration_us": st.DurationUS,
		})
	}
	for name := range acc.rels {
		e.maybeCompactLocked(name)
	}
	return st, nil
}

// CloseWAL fsyncs and closes the log (further updates apply in memory
// only). It waits for in-flight compactions first.
func (e *Engine) CloseWAL() error {
	e.upd.compactWG.Wait()
	e.upd.mu.Lock()
	defer e.upd.mu.Unlock()
	if e.upd.wal == nil {
		return nil
	}
	err := e.upd.wal.Close()
	e.upd.wal = nil
	return err
}

// ProbeDurability checks whether durable WAL appends can succeed right
// now: it writes, fsyncs, and removes a scratch file in the log
// directory (repairing a log poisoned by an unrollbackable append — see
// wal.Log.Probe). With no WAL open it reports success. The server's
// durability circuit breaker polls it to leave degraded read-only mode.
func (e *Engine) ProbeDurability() error {
	e.upd.mu.Lock()
	l := e.upd.wal
	e.upd.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Probe()
}

// replayAcc folds WAL records into per-relation "last action per tuple"
// state, the exact semantics of sequential overlay application, so the
// final install is one batch per relation.
type replayAcc struct {
	rels map[string]*replayRel
	// maxSeq tracks, per relation, the highest WAL sequence number seen
	// during the scan; installLocked stamps it on the relation's
	// synthesized install record, so the apply advances the watermark.
	maxSeq map[string]uint64
}

type replayRel struct {
	arity     int
	op        semiring.Op
	annotated bool
	last      map[string]replayTuple
}

type replayTuple struct {
	row []uint32
	ins bool
	ann float64
}

func newReplayAcc() *replayAcc {
	return &replayAcc{rels: map[string]*replayRel{}, maxSeq: map[string]uint64{}}
}

func (a *replayAcc) add(rec *wal.Record, e *Engine) error {
	if rec.Seq > a.maxSeq[rec.Rel] {
		a.maxSeq[rec.Rel] = rec.Seq
	}
	rr := a.rels[rec.Rel]
	if rr != nil && rr.arity != rec.Arity {
		// The relation changed shape mid-log (an unjournaled load
		// replaced it between journaled updates). Later records win, the
		// way the live apply path resets the overlay on external
		// replacement: restart the accumulator at the new shape.
		rr = nil
	}
	if rr == nil {
		annotated := rec.Annotated()
		op := rec.Op
		if rel, ok := e.DB.Relation(rec.Rel); ok && rel.Arity == rec.Arity {
			annotated = rel.Annotated
			op = rel.Op
		}
		rr = &replayRel{arity: rec.Arity, op: op, annotated: annotated, last: map[string]replayTuple{}}
		a.rels[rec.Rel] = rr
	}
	// Deletes first, then inserts (batch semantics). Inserts go through
	// the same mini-trie build as the live path so duplicate tuples
	// within one record ⊕-combine identically.
	row := make([]uint32, rec.Arity)
	for i := 0; i < rec.DelRows(); i++ {
		for c := range row {
			row[c] = rec.DelCols[c][i]
		}
		rr.last[string(packRow(row))] = replayTuple{ins: false}
	}
	if rec.InsRows() > 0 {
		var anns []float64
		if rr.annotated {
			anns = rec.InsAnns
			if len(anns) != rec.InsRows() {
				anns = fillOnes(rr.op, rec.InsRows())
			}
		}
		mini := trie.FromColumns(rec.InsCols, anns, rr.op, nil)
		mini.ForEachTuple(func(tp []uint32, ann float64) {
			rr.last[string(packRow(tp))] = replayTuple{row: append([]uint32(nil), tp...), ins: true, ann: ann}
		})
	}
	return nil
}

func packRow(row []uint32) []byte {
	out := make([]byte, 4*len(row))
	for i, v := range row {
		out[4*i] = byte(v)
		out[4*i+1] = byte(v >> 8)
		out[4*i+2] = byte(v >> 16)
		out[4*i+3] = byte(v >> 24)
	}
	return out
}

func unpackRow(key string, arity int) []uint32 {
	row := make([]uint32, arity)
	for i := range row {
		row[i] = uint32(key[4*i]) | uint32(key[4*i+1])<<8 | uint32(key[4*i+2])<<16 | uint32(key[4*i+3])<<24
	}
	return row
}

// installLocked folds each accumulated relation's net effect as one
// overlay apply + merged-view install. Relations whose records cannot
// apply (arity conflict with the restored catalog) are skipped and
// counted rather than failing the boot — availability beats replaying
// records the snapshot has already superseded.
func (a *replayAcc) installLocked(e *Engine) (skipped int, err error) {
	for name, rr := range a.rels {
		insCols := make([][]uint32, rr.arity)
		delCols := make([][]uint32, rr.arity)
		var insAnns []float64
		for key, tp := range rr.last {
			if tp.ins {
				for c, v := range tp.row {
					insCols[c] = append(insCols[c], v)
				}
				if rr.annotated {
					insAnns = append(insAnns, tp.ann)
				}
			} else {
				row := unpackRow(key, rr.arity)
				for c, v := range row {
					delCols[c] = append(delCols[c], v)
				}
			}
		}
		rec := &wal.Record{Rel: name, Arity: rr.arity, Op: rr.op, Seq: a.maxSeq[name]}
		if insRows(insCols) > 0 {
			rec.InsCols = insCols
			if rr.annotated {
				rec.InsAnns = insAnns
			}
		}
		if insRows(delCols) > 0 {
			rec.DelCols = delCols
		}
		if rec.InsRows() == 0 && rec.DelRows() == 0 {
			continue
		}
		if rr.annotated && rec.InsAnns == nil {
			rec.InsAnns = []float64{}
		}
		if _, err := e.applyRecordLocked(rec, nil); err != nil {
			skipped++
		}
	}
	return skipped, nil
}

// OverlayStat describes one relation's live overlay for metrics.
type OverlayStat struct {
	Relation string `json:"relation"`
	// Rows is the overlay size (pending inserts + tombstones).
	Rows int `json:"rows"`
	// BaseRows is the compacted base's cardinality.
	BaseRows int `json:"base_rows"`
	// InsBytes / DelBytes are the estimated payload sizes of the insert
	// and tombstone mini-tries (cached at overlay construction, so a
	// scrape never walks them).
	InsBytes int `json:"ins_bytes"`
	DelBytes int `json:"del_bytes"`
	// Compacting reports an in-flight background compaction.
	Compacting bool `json:"compacting,omitempty"`
}

// DurabilityStats is the streaming-update subsystem's metrics document.
type DurabilityStats struct {
	WAL      wal.Stats     `json:"wal"`
	Replay   ReplayStats   `json:"replay"`
	Overlays []OverlayStat `json:"overlays,omitempty"`
	// Updates / UpdateRows count applied batches and their rows.
	Updates    uint64 `json:"updates"`
	UpdateRows uint64 `json:"update_rows"`
	// Compactions counts finished compactions; CompactTotalUS their
	// total wall time.
	Compactions    uint64 `json:"compactions"`
	CompactTotalUS int64  `json:"compact_total_us"`
}

// Durability returns a point-in-time snapshot of the streaming-update
// subsystem's counters. The WAL's own stats (which stat the segment
// directory) are read after the update mutex is released, so a metrics
// scrape never blocks updates on filesystem I/O.
func (e *Engine) Durability() DurabilityStats {
	e.upd.mu.Lock()
	st := DurabilityStats{
		Replay:         e.upd.replay,
		Updates:        e.upd.updates.Load(),
		UpdateRows:     e.upd.updateRows.Load(),
		Compactions:    e.upd.compactions.Load(),
		CompactTotalUS: int64(e.upd.compactNS.Load() / 1e3),
	}
	walHandle := e.upd.wal
	for _, name := range e.DB.Names() {
		rel, ok := e.DB.Relation(name)
		if !ok || (!rel.HasOverlay() && !e.upd.compacting[name]) {
			continue
		}
		row := OverlayStat{Relation: name, BaseRows: rel.Base().Cardinality(), Compacting: e.upd.compacting[name]}
		if ov := rel.Overlay(); ov != nil {
			row.Rows = ov.Rows()
			row.InsBytes, row.DelBytes = ov.MemBytes()
		}
		st.Overlays = append(st.Overlays, row)
	}
	e.upd.mu.Unlock()
	if walHandle != nil {
		st.WAL = walHandle.StatsSnapshot()
	}
	return st
}

// RelProv is one relation's live determination-provenance coordinates
// (see internal/prov and docs/PROVENANCE.md).
type RelProv struct {
	// OverlayGen counts the update batches folded into the relation
	// since it was loaded or restored (compaction carries it).
	OverlayGen uint64
	// WALSeq is the relation's WAL applied-seq watermark (0 = epoch-only
	// lineage: no WAL, or no journaled update since a load).
	WALSeq uint64
	// OverlayRows is the live overlay size (pending inserts + tombstones).
	OverlayRows int
}

// Lineage returns the provenance coordinates of the named relations as
// db holds them; unknown relations report zeros. The coordinates live on
// the relations, so a fork's are exactly the ones its queries read, and
// they are one admissible point in the update order together with the
// fork's epochs.
func Lineage(db *exec.DB, names []string) map[string]RelProv {
	out := make(map[string]RelProv, len(names))
	for _, name := range names {
		var p RelProv
		if rel, ok := db.Relation(name); ok {
			p = RelProv{OverlayGen: rel.OverlayGen(), WALSeq: rel.WALSeq()}
			if ov := rel.Overlay(); ov != nil {
				p.OverlayRows = ov.Rows()
			}
		}
		out[name] = p
	}
	return out
}

// walSnapshotDirMatches reports whether a snapshot to dir may truncate
// the WAL (see WALConfig.SnapshotDir). An unpaired WAL is never
// truncated by snapshots: nothing guarantees the next boot restores
// from the directory that absorbed the records, so deleting them could
// orphan acknowledged batches.
func (e *Engine) walSnapshotDirMatches(dir string) bool {
	if e.upd.walCfg.SnapshotDir == "" {
		return false
	}
	a, err1 := filepath.Abs(e.upd.walCfg.SnapshotDir)
	b, err2 := filepath.Abs(dir)
	if err1 != nil || err2 != nil {
		return e.upd.walCfg.SnapshotDir == dir
	}
	return a == b
}
