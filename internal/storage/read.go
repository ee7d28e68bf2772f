package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"unsafe"

	"emptyheaded/internal/graph"
	"emptyheaded/internal/trie"
)

// ReadCatalog reads and verifies just the catalog of a snapshot
// directory (the cheap metadata pass used by eh-snap -stats and by boot
// probing).
func ReadCatalog(dir string) (*Catalog, error) {
	path := filepath.Join(dir, CatalogFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, corrupt(CatalogFile, "missing header line")
	}
	header, payload := string(raw[:nl]), raw[nl+1:]
	var version int
	var crc uint32
	var plen int
	if _, err := fmt.Sscanf(header, catalogMagic+" v%d crc32=%x len=%d", &version, &crc, &plen); err != nil ||
		!strings.HasPrefix(header, catalogMagic+" ") {
		return nil, corrupt(CatalogFile, "bad header %q", header)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("storage: %s: format version %d, this build reads v%d", CatalogFile, version, FormatVersion)
	}
	if plen != len(payload) {
		return nil, corrupt(CatalogFile, "payload length %d, header says %d", len(payload), plen)
	}
	if got := Checksum(payload); got != crc {
		return nil, corrupt(CatalogFile, "checksum %08x, header says %08x", got, crc)
	}
	cat := &Catalog{}
	if err := json.Unmarshal(payload, cat); err != nil {
		return nil, corrupt(CatalogFile, "catalog JSON: %v", err)
	}
	return cat, nil
}

// Exists reports whether dir holds a snapshot (a catalog file).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, CatalogFile))
	return err == nil
}

// Open restores a snapshot directory: the catalog is read and verified,
// every segment is mmap'd, its payload checksum verified (one sequential
// pass that also warms the page cache), and the tries are rebuilt with
// their flat buffers aliasing the mappings — zero copy. The returned
// Database keeps the mappings alive; see Database.Close.
func Open(dir string) (*Database, error) {
	cat, err := ReadCatalog(dir)
	if err != nil {
		return nil, err
	}
	db := &Database{
		Tries:      make(map[string]*trie.Trie, len(cat.Relations)),
		Epochs:     make(map[string]uint64, len(cat.Relations)),
		Watermarks: make(map[string]uint64, len(cat.Relations)),
		Catalog:    cat,
	}
	fail := func(err error) (*Database, error) {
		db.Close()
		return nil, err
	}
	for _, rm := range cat.Relations {
		payload, err := db.mapSegment(dir, rm.Segment, segMagic, rm.Bytes, rm.Checksum)
		if err != nil {
			return fail(err)
		}
		t, err := trie.FromBuffers(payload)
		if err != nil {
			return fail(corrupt(rm.Segment, "decode: %v", err))
		}
		if t.Arity != rm.Arity || t.Annotated != rm.Annotated {
			return fail(corrupt(rm.Segment, "segment shape (arity=%d ann=%v) disagrees with catalog (arity=%d ann=%v)",
				t.Arity, t.Annotated, rm.Arity, rm.Annotated))
		}
		if rm.Policy != "" {
			if t.Policy, err = trie.ParsePolicy(rm.Policy); err != nil {
				return fail(corrupt(CatalogFile, "relation %q: %v", rm.Name, err))
			}
		}
		if _, dup := db.Tries[rm.Name]; dup {
			return fail(corrupt(CatalogFile, "duplicate relation %q", rm.Name))
		}
		db.Tries[rm.Name] = t
		db.Epochs[rm.Name] = rm.Epoch
		db.Watermarks[rm.Name] = rm.WALSeq
	}
	if cat.Dict != nil {
		payload, err := db.mapSegment(dir, cat.Dict.Segment, dictMagic, cat.Dict.Bytes, cat.Dict.Checksum)
		if err != nil {
			return fail(err)
		}
		if len(payload) < 8 {
			return fail(corrupt(cat.Dict.Segment, "truncated dictionary header"))
		}
		count := int(binary.LittleEndian.Uint64(payload))
		if count != cat.Dict.Count || len(payload) < 8+8*count {
			return fail(corrupt(cat.Dict.Segment, "dictionary count %d disagrees with payload/catalog", count))
		}
		origs, err := aliasInt64s(payload[8:], count)
		if err != nil {
			return fail(corrupt(cat.Dict.Segment, "%v", err))
		}
		db.Dict = graph.DictFromOrigs(origs)
	}
	return db, nil
}

// mapSegment maps one segment file, validates magic + length + checksum,
// and returns the payload (the bytes after the magic), which aliases the
// mapping.
func (db *Database) mapSegment(dir, name, magic string, wantBytes int64, wantCRC uint32) ([]byte, error) {
	m, err := mapFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	db.mappings = append(db.mappings, m)
	data := m.data
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, corrupt(name, "bad segment magic")
	}
	payload := data[len(magic):]
	if int64(len(payload)) != wantBytes {
		return nil, corrupt(name, "payload is %d bytes, catalog says %d (truncated?)", len(payload), wantBytes)
	}
	if got := Checksum(payload); got != wantCRC {
		return nil, corrupt(name, "checksum %08x, catalog says %08x", got, wantCRC)
	}
	return payload, nil
}

// aliasInt64s views 8n bytes as []int64 without copying (with a copying
// fallback for misaligned buffers, which mmap never produces).
func aliasInt64s(b []byte, n int) ([]int64, error) {
	if n == 0 {
		return nil, nil
	}
	if len(b) < 8*n {
		return nil, fmt.Errorf("buffer too short for %d int64s", n)
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 != 0 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out, nil
	}
	return unsafe.Slice((*int64)(p), n), nil
}

// CardinalityTotal sums the catalog's relation cardinalities (stat line
// helper for eh-snap and the server's snapshot endpoints).
func (c *Catalog) CardinalityTotal() int {
	total := 0
	for _, r := range c.Relations {
		total += r.Cardinality
	}
	return total
}

// BytesTotal sums segment payload sizes.
func (c *Catalog) BytesTotal() int64 {
	var total int64
	for _, r := range c.Relations {
		total += r.Bytes
	}
	if c.Dict != nil {
		total += c.Dict.Bytes
	}
	return total
}

// String renders a short human-readable catalog summary.
func (c *Catalog) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "snapshot v%d: %d relations, %d tuples, %d bytes",
		c.FormatVersion, len(c.Relations), c.CardinalityTotal(), c.BytesTotal())
	if c.Dict != nil {
		fmt.Fprintf(&sb, ", dict %d ids", c.Dict.Count)
	}
	return sb.String()
}
