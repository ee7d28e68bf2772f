// Package storage is EmptyHeaded's persistent storage engine: a
// versioned binary snapshot format for the whole database, designed
// around the same flat-buffer discipline as the in-memory tries so a
// restore is an mmap, not a rebuild.
//
// A snapshot is a directory:
//
//	catalog.eh          checksummed catalog: relations, arities, semiring
//	                    ops, per-relation epochs, per-segment checksums,
//	                    and a reference to the identifier dictionary
//	rel-NNNNN-CRC.seg   one segment per relation: the trie's flat buffers
//	                    (per-level set data, node offsets, annotation
//	                    columns) in fixed little-endian framing (see
//	                    trie.AppendTo); the name embeds the payload CRC
//	                    so re-snapshots never clobber referenced files
//	dict-CRC.seg        the identifier dictionary (code → original ids)
//
// Restore mmaps each segment and aliases []uint32 / []uint64 / []float64
// slices directly into the page cache (trie.FromBuffers); only the trie
// node structs are rebuilt, so a multi-gigabyte database is queryable in
// milliseconds. Every payload is covered by a CRC-32C recorded in the
// catalog, and the catalog itself is checksummed, so a torn or corrupted
// snapshot fails restore cleanly instead of aliasing garbage.
//
// docs/STORAGE.md specifies the format normatively.
package storage

import (
	"fmt"
	"hash/crc32"

	"emptyheaded/internal/graph"
	"emptyheaded/internal/trie"
)

const (
	// FormatVersion is bumped on incompatible changes to the segment or
	// catalog framing; readers reject snapshots from other major versions.
	FormatVersion = 1

	// CatalogFile is the catalog's file name inside a snapshot directory.
	CatalogFile = "catalog.eh"
	// DictPrefix prefixes the identifier dictionary's segment file name
	// (the full name embeds the payload checksum, like relation segments,
	// so successive snapshots never overwrite a referenced file with
	// different bytes).
	DictPrefix = "dict-"

	catalogMagic = "EHCATALOG"
	// segMagic / dictMagic are 8-byte file headers, keeping the payload
	// that follows 8-byte aligned for zero-copy aliasing.
	segMagic  = "EHSEGv1\n"
	dictMagic = "EHDICT1\n"
)

// castagnoli is the CRC-32C table used for every snapshot checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of a payload.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Catalog describes a snapshot: one row per relation plus the dictionary
// reference. It doubles as the stats document printed by eh-snap.
type Catalog struct {
	FormatVersion int            `json:"format_version"`
	Relations     []RelationMeta `json:"relations"`
	Dict          *DictMeta      `json:"dict,omitempty"`
	// DictEpoch is the dictionary mutation epoch at snapshot time.
	DictEpoch uint64 `json:"dict_epoch,omitempty"`
}

// RelationMeta is one catalog row.
type RelationMeta struct {
	Name        string `json:"name"`
	Segment     string `json:"segment"`
	Arity       int    `json:"arity"`
	Annotated   bool   `json:"annotated,omitempty"`
	Op          string `json:"op,omitempty"`
	Cardinality int    `json:"cardinality"`
	// Epoch is the relation's mutation epoch at snapshot time.
	Epoch uint64 `json:"epoch"`
	// WALSeq is the relation's WAL applied-seq watermark at snapshot
	// time: the highest WAL sequence number reflected in the segment's
	// content. 0 in pre-provenance catalogs and for relations never
	// touched by a journaled update (epoch-only lineage).
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Policy names the layout policy the trie's sets were built under
	// (trie.Policy.String); empty for the set-level optimizer, which is
	// how catalogs written before the field restore.
	Policy string `json:"policy,omitempty"`
	// Bytes is the segment payload length (excluding the 8-byte magic).
	Bytes int64 `json:"bytes"`
	// Checksum is the CRC-32C of the segment payload.
	Checksum uint32 `json:"checksum"`
}

// DictMeta references the identifier dictionary segment.
type DictMeta struct {
	Segment  string `json:"segment"`
	Count    int    `json:"count"`
	Bytes    int64  `json:"bytes"`
	Checksum uint32 `json:"checksum"`
}

// Relation pairs a named trie with its mutation epoch and WAL
// applied-seq watermark for writing.
type Relation struct {
	Name   string
	Trie   *trie.Trie
	Epoch  uint64
	WALSeq uint64
}

// Snapshot is the write-side input: the full database state.
type Snapshot struct {
	Relations []Relation
	Dict      *graph.Dictionary
	DictEpoch uint64
}

// Database is the read-side result of Open: restored tries aliasing the
// mmap'd segments, plus the catalog they came from. Close unmaps the
// segments — only call it after every alias into them is dropped.
type Database struct {
	Tries  map[string]*trie.Trie
	Epochs map[string]uint64
	// Watermarks holds each relation's WAL applied-seq watermark from the
	// catalog; a catalog without wal_seq fields restores zeros
	// (epoch-only lineage).
	Watermarks map[string]uint64
	Dict       *graph.Dictionary
	Catalog    *Catalog

	mappings []mapping
}

// Close releases the segment mappings. The restored tries (and the
// dictionary) alias them, so Close is only safe once those are
// unreachable; a long-lived engine simply never calls it.
func (db *Database) Close() error {
	var first error
	for _, m := range db.mappings {
		if err := m.close(); err != nil && first == nil {
			first = err
		}
	}
	db.mappings = nil
	return first
}

// CorruptionError marks restore failures caused by on-disk damage
// (checksum mismatch, truncation, bad magic) as opposed to I/O errors.
type CorruptionError struct {
	File   string
	Reason string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("storage: %s: %s", e.File, e.Reason)
}

func corrupt(file, format string, args ...any) error {
	return &CorruptionError{File: file, Reason: fmt.Sprintf(format, args...)}
}
