package core

import (
	"fmt"
	"path/filepath"

	"emptyheaded/internal/storage"
)

// Snapshot writes the engine's entire database — every relation's trie,
// the per-relation epochs, and the identifier dictionary — to dir as a
// checksummed binary snapshot (see internal/storage). The state is
// captured through one Fork, so a snapshot taken under concurrent loads
// is a consistent point-in-time image. Returns the written catalog.
//
// Snapshots are incremental: the engine remembers the catalog it last
// wrote to (or restored from) each directory, and relations whose
// epoch hasn't advanced since reuse their existing checksummed
// segments instead of re-serializing — an update-heavy workload only
// rewrites the relations that actually changed.
//
// With a WAL open, the snapshot is also the log's truncation point:
// the log rotates inside the update mutex (so the sealed segments hold
// exactly the records the fork absorbed), and once the snapshot
// commits, the sealed segments are deleted. If the snapshot fails the
// segments survive, and replay-on-boot remains correct because update
// replay is idempotent across a snapshot boundary.
func (e *Engine) Snapshot(dir string) (*storage.Catalog, error) {
	// Fork and rotate under the update mutex: no update can land between
	// the two, so "records at or below the sealed generation" and
	// "updates visible in the fork" are the same set.
	e.upd.mu.Lock()
	var sealed uint64
	truncate := false
	rotated := false
	if e.upd.wal != nil {
		g, err := e.upd.wal.Rotate()
		if err != nil {
			e.upd.mu.Unlock()
			return nil, fmt.Errorf("snapshot %s: wal rotate: %w", dir, err)
		}
		sealed = g
		truncate = e.walSnapshotDirMatches(dir)
		rotated = true
	}
	// The fork's relations carry their watermarks, so the catalog's
	// (epoch, wal_seq) pairs describe exactly the state the segments
	// serialize.
	fork := e.DB.Fork()
	walHandle := e.upd.wal
	event := e.upd.obs.Event
	e.upd.mu.Unlock()
	if rotated && event != nil {
		event("wal_rotate", map[string]any{"sealed_seq": sealed, "reason": "snapshot", "dir": dir})
	}

	snap := &storage.Snapshot{
		Dict:      fork.Dict(),
		DictEpoch: fork.DictEpoch(),
	}
	for _, name := range fork.Names() {
		rel, ok := fork.Relation(name)
		if !ok {
			continue
		}
		snap.Relations = append(snap.Relations, storage.Relation{
			Name:   name,
			Trie:   rel.Canonical(),
			Epoch:  fork.EpochOf(name),
			WALSeq: rel.WALSeq(),
		})
	}
	key := snapKey(dir)
	e.mu.RLock()
	prev := e.lastSnaps[key]
	e.mu.RUnlock()
	cat, err := storage.WriteIncremental(dir, snap, prev)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.lastSnaps[key] = cat
	e.mu.Unlock()
	if walHandle != nil && truncate {
		// Best effort: a survived segment replays idempotently.
		_ = walHandle.TruncateThrough(sealed)
	}
	if event != nil {
		event("snapshot", map[string]any{
			"dir":           dir,
			"relations":     len(cat.Relations),
			"tuples":        cat.CardinalityTotal(),
			"bytes":         cat.BytesTotal(),
			"truncated_wal": truncate,
		})
	}
	return cat, nil
}

// snapKey canonicalizes a snapshot directory for the incremental
// catalog map.
func snapKey(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return filepath.Clean(dir)
}

// Restore replaces the engine's database with the snapshot in dir. The
// restored tries alias mmap'd segment files (zero copy — the segments
// are paged in lazily by the kernel), so restore of a multi-gigabyte
// database costs checksum verification plus node linking, not a parse
// and rebuild. The mappings live for the remaining process lifetime.
//
// The snapshot's epochs are adopted into the database; embedders serving
// epoch-keyed caches must flush them around a restore (the query service
// advances a generation counter). Graphs registered through LoadGraph
// are engine-side conveniences (benchmark harness); they do not survive
// a restore — the relations themselves do. Streaming-update overlays
// reset: the restored state replaces any pending overlay wholesale, and
// an open WAL is NOT re-replayed (replay happens once, at OpenWAL).
//
// Each restore retains its storage handle on the engine: the mappings
// cannot be unmapped while any fork, cached result, or in-flight query
// may still alias the previous restore's tries (there is no refcount on
// trie buffers), so a server that restores repeatedly accumulates one
// set of file mappings per restore. They are virtual mappings of
// page-cache data — cheap, but not free; a future mapping lifecycle can
// close the retained handles once trie aliasing is refcounted.
func (e *Engine) Restore(dir string) (*storage.Catalog, error) {
	db, err := storage.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("restore %s: %w", dir, err)
	}
	// Install and reset overlay state under the update mutex, so no
	// update interleaves between the new database appearing and the old
	// overlays vanishing. An open WAL rotates and drops its sealed
	// segments: the restore just discarded every pre-restore update, so
	// replaying those records on the next boot would resurrect state
	// clients observed as rolled back. (To re-anchor the recovery chain
	// fully, follow a runtime restore with a snapshot to the WAL's
	// paired directory — eh-server's SIGTERM path does.)
	e.upd.mu.Lock()
	// The restored relations adopt the catalog's watermarks: the state
	// reflects exactly the WAL prefixes it recorded.
	e.DB.InstallSnapshot(db.Tries, db.Epochs, db.Watermarks, db.Dict, db.Catalog.DictEpoch)
	var sealed uint64
	walHandle := e.upd.wal
	if walHandle != nil {
		if sealed, err = walHandle.Rotate(); err != nil {
			e.upd.mu.Unlock()
			return nil, fmt.Errorf("restore %s: wal rotate: %w", dir, err)
		}
	}
	event := e.upd.obs.Event
	e.upd.mu.Unlock()
	if walHandle != nil {
		_ = walHandle.TruncateThrough(sealed)
		if event != nil {
			event("wal_rotate", map[string]any{"sealed_seq": sealed, "reason": "restore", "dir": dir})
		}
	}
	if event != nil {
		event("restore", map[string]any{
			"dir":       dir,
			"relations": len(db.Catalog.Relations),
			"tuples":    db.Catalog.CardinalityTotal(),
		})
	}
	e.mu.Lock()
	e.restored = append(e.restored, db)
	e.lastSnaps[snapKey(dir)] = db.Catalog
	e.mu.Unlock()
	return db.Catalog, nil
}
