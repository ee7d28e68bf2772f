package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"emptyheaded/internal/fault"
)

// fsys routes the snapshot write path's file operations; SetFS swaps in
// a fault-injecting implementation. The read/mmap path is untouched.
var fsys fault.FS = fault.OS

// SetFS overrides the filesystem behind the snapshot write path (fault
// injection in chaos tests) and returns a restore function. Not safe
// to call with writes in flight.
func SetFS(fs fault.FS) (restore func()) {
	old := fsys
	if fs == nil {
		fs = fault.OS
	}
	fsys = fs
	return func() { fsys = old }
}

// Write serializes snap into dir (created if absent) and returns the
// catalog. Segment file names embed the payload checksum, so a new
// snapshot over an existing directory never overwrites a file the old
// catalog references unless the content is byte-identical; the
// checksummed catalog is renamed into place last and stale segments are
// removed only after that. A crash or write error at any point
// therefore leaves the directory restorable: either the old catalog
// with all its segments intact, or the new one with all of its.
//
// The encoding is deterministic: the same database state always produces
// byte-identical files under identical names (relations are ordered by
// name, names derive from content, and no timestamps are recorded),
// which is what makes snapshot → restore → re-snapshot byte-identity
// testable.
func Write(dir string, snap *Snapshot) (*Catalog, error) {
	return WriteIncremental(dir, snap, nil)
}

// WriteIncremental is Write with segment reuse: relations whose epoch
// equals their row in prev (the catalog a previous Write to the same
// directory returned, or Open read from it) keep their existing
// segment file — the new catalog references it verbatim and the trie is
// not re-serialized. Epochs are only meaningful within one engine
// lifetime (restores adopt them, mutations strictly advance them), so
// callers must pass a prev catalog they themselves wrote to or restored
// from this directory; a foreign catalog could alias unrelated content
// behind a coincidentally equal epoch.
func WriteIncremental(dir string, snap *Snapshot, prev *Catalog) (*Catalog, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rels := append([]Relation(nil), snap.Relations...)
	sort.Slice(rels, func(i, j int) bool { return rels[i].Name < rels[j].Name })

	prevRels := map[string]RelationMeta{}
	if prev != nil {
		for _, rm := range prev.Relations {
			prevRels[rm.Name] = rm
		}
	}

	cat := &Catalog{FormatVersion: FormatVersion, DictEpoch: snap.DictEpoch}
	written := map[string]bool{CatalogFile: true}
	for i, rel := range rels {
		if rel.Trie == nil {
			return nil, fmt.Errorf("storage: relation %s has no trie", rel.Name)
		}
		if pm, ok := prevRels[rel.Name]; ok && pm.Epoch == rel.Epoch && segmentIntact(dir, pm.Segment, pm.Bytes) {
			// Epoch unchanged since the prev catalog: the relation was
			// not replaced, so its segment bytes are still its state. The
			// watermark is reused too — it only advances through journaled
			// updates, each of which also bumps the epoch.
			written[pm.Segment] = true
			cat.Relations = append(cat.Relations, pm)
			continue
		}
		payload := rel.Trie.AppendTo(nil)
		crc := Checksum(payload)
		seg := fmt.Sprintf("rel-%05d-%08x.seg", i, crc)
		if err := writeSegment(filepath.Join(dir, seg), segMagic, payload); err != nil {
			return nil, err
		}
		written[seg] = true
		var policy string
		if rel.Trie.Policy != nil {
			policy = rel.Trie.Policy.String()
		}
		cat.Relations = append(cat.Relations, RelationMeta{
			Name:        rel.Name,
			Segment:     seg,
			Arity:       rel.Trie.Arity,
			Annotated:   rel.Trie.Annotated,
			Op:          rel.Trie.Op.String(),
			Policy:      policy,
			Cardinality: rel.Trie.Cardinality(),
			Epoch:       rel.Epoch,
			WALSeq:      rel.WALSeq,
			Bytes:       int64(len(payload)),
			Checksum:    crc,
		})
	}
	if snap.Dict != nil && prev != nil && prev.Dict != nil &&
		prev.DictEpoch == snap.DictEpoch && prev.Dict.Count == snap.Dict.Len() &&
		segmentIntact(dir, prev.Dict.Segment, prev.Dict.Bytes) {
		written[prev.Dict.Segment] = true
		cat.Dict = prev.Dict
	} else if snap.Dict != nil {
		origs := snap.Dict.Origs()
		payload := make([]byte, 0, 8+8*len(origs))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(len(origs)))
		for _, o := range origs {
			payload = binary.LittleEndian.AppendUint64(payload, uint64(o))
		}
		crc := Checksum(payload)
		seg := fmt.Sprintf("%s%08x.seg", DictPrefix, crc)
		if err := writeSegment(filepath.Join(dir, seg), dictMagic, payload); err != nil {
			return nil, err
		}
		written[seg] = true
		cat.Dict = &DictMeta{
			Segment:  seg,
			Count:    len(origs),
			Bytes:    int64(len(payload)),
			Checksum: crc,
		}
	}

	if err := writeCatalog(filepath.Join(dir, CatalogFile), cat); err != nil {
		return nil, err
	}
	removeStaleSegments(dir, written)
	return cat, nil
}

// segmentIntact reports whether a reusable segment file is present with
// the expected payload size. Content integrity is already pinned by the
// name-embedded checksum discipline (a segment is never overwritten
// with different bytes) and verified again at restore.
func segmentIntact(dir, name string, payloadBytes int64) bool {
	st, err := os.Stat(filepath.Join(dir, name))
	return err == nil && st.Size() == payloadBytes+int64(len(segMagic))
}

// writeSegment writes magic + payload atomically (temp file + rename).
func writeSegment(path, magic string, payload []byte) error {
	buf := make([]byte, 0, len(magic)+len(payload))
	buf = append(buf, magic...)
	buf = append(buf, payload...)
	return atomicWrite(path, buf)
}

// writeCatalog renders the catalog as a checksummed header line plus a
// JSON payload:
//
//	EHCATALOG v1 crc32=XXXXXXXX len=N
//	{ ...json... }
func writeCatalog(path string, cat *Catalog) error {
	payload, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		return err
	}
	header := fmt.Sprintf("%s v%d crc32=%08x len=%d\n", catalogMagic, FormatVersion, Checksum(payload), len(payload))
	return atomicWrite(path, append([]byte(header), payload...))
}

func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, data, 0o644); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}

// removeStaleSegments deletes segment files left behind by an earlier
// snapshot of the same directory, after the new catalog is in place
// (best effort — the new catalog never references them, so a failed
// removal is dead weight, not a correctness issue).
func removeStaleSegments(dir string, written map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if written[name] || e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".seg") &&
			(strings.HasPrefix(name, "rel-") || strings.HasPrefix(name, DictPrefix)) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
