package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// testSnapshot builds a small multi-relation database: a binary edge
// relation, an annotated unary relation, a ternary relation, a scalar,
// and a dictionary.
func testSnapshot(t *testing.T, layout *trie.Policy) *Snapshot {
	t.Helper()
	g := gen.PowerLaw(500, 4000, 2.2, 7)
	edge := trie.FromAdjacency(g.Adj, layout)

	rb := trie.NewColumnarBuilder(1, semiring.Sum, layout)
	for i := 0; i < 300; i++ {
		rb.AddAnn(float64(i)*0.5, uint32(i*3))
	}
	ranks := rb.Build()

	tb := trie.NewColumnarBuilder(3, semiring.None, layout)
	for i := 0; i < 1000; i++ {
		tb.Add(uint32(i%17), uint32(i%39), uint32(i%71))
	}
	triples := tb.Build()

	dict := graph.NewDictionary()
	for i := 0; i < g.N; i++ {
		dict.Encode(int64(i * 10))
	}

	return &Snapshot{
		Relations: []Relation{
			{Name: "Edge", Trie: edge, Epoch: 3},
			{Name: "Rank", Trie: ranks, Epoch: 7},
			{Name: "Triple", Trie: triples, Epoch: 1},
			{Name: "N", Trie: trie.NewScalar(float64(g.N), semiring.Sum), Epoch: 2},
		},
		Dict:      dict,
		DictEpoch: 5,
	}
}

func tupleDump(t *trie.Trie) string {
	var sb bytes.Buffer
	t.ForEachTuple(func(tp []uint32, ann float64) {
		fmt.Fprintf(&sb, "%v:%g;", tp, ann)
	})
	return sb.String()
}

func TestWriteOpenRoundTrip(t *testing.T) {
	for _, lc := range []struct {
		name   string
		layout *trie.Policy
	}{{"auto", nil}, {"uint", trie.UintLayout}, {"bitset", trie.BitsetLayout}, {"composite", trie.CompositeLayout}} {
		t.Run(lc.name, func(t *testing.T) {
			dir := t.TempDir()
			snap := testSnapshot(t, lc.layout)
			cat, err := Write(dir, snap)
			if err != nil {
				t.Fatalf("Write: %v", err)
			}
			if len(cat.Relations) != 4 || cat.Dict == nil {
				t.Fatalf("catalog: %+v", cat)
			}

			db, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer db.Close()
			for _, rel := range snap.Relations {
				got, ok := db.Tries[rel.Name]
				if !ok {
					t.Fatalf("relation %s missing after restore", rel.Name)
				}
				if tupleDump(got) != tupleDump(rel.Trie) {
					t.Fatalf("relation %s: tuples differ after restore", rel.Name)
				}
				if got.Policy != rel.Trie.Policy {
					t.Fatalf("relation %s: policy %v after restore, built under %v", rel.Name, got.Policy, rel.Trie.Policy)
				}
				if db.Epochs[rel.Name] != rel.Epoch {
					t.Fatalf("relation %s: epoch %d, want %d", rel.Name, db.Epochs[rel.Name], rel.Epoch)
				}
			}
			if db.Dict == nil || db.Dict.Len() != snap.Dict.Len() {
				t.Fatal("dictionary lost")
			}
			if db.Dict.Decode(3) != 30 {
				t.Fatalf("dict decode(3)=%d want 30", db.Dict.Decode(3))
			}
			if c, ok := db.Dict.Lookup(30); !ok || c != 3 {
				t.Fatalf("dict lookup(30)=%d,%v want 3,true", c, ok)
			}
			if db.Catalog.DictEpoch != 5 {
				t.Fatalf("dict epoch %d want 5", db.Catalog.DictEpoch)
			}
		})
	}
}

// TestReSnapshotByteIdentical: restore then re-snapshot must reproduce
// every file byte for byte.
func TestReSnapshotByteIdentical(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	snap := testSnapshot(t, nil)
	if _, err := Write(dir1, snap); err != nil {
		t.Fatalf("Write: %v", err)
	}
	db, err := Open(dir1)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	var rels []Relation
	for name, tr := range db.Tries {
		rels = append(rels, Relation{Name: name, Trie: tr, Epoch: db.Epochs[name]})
	}
	if _, err := Write(dir2, &Snapshot{Relations: rels, Dict: db.Dict, DictEpoch: db.Catalog.DictEpoch}); err != nil {
		t.Fatalf("re-Write: %v", err)
	}

	files1, _ := os.ReadDir(dir1)
	for _, f := range files1 {
		b1, err := os.ReadFile(filepath.Join(dir1, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(dir2, f.Name()))
		if err != nil {
			t.Fatalf("file %s missing from re-snapshot: %v", f.Name(), err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("file %s differs between snapshot and re-snapshot", f.Name())
		}
	}
}

func TestOverwriteRemovesStaleSegments(t *testing.T) {
	dir := t.TempDir()
	snap := testSnapshot(t, nil)
	if _, err := Write(dir, snap); err != nil {
		t.Fatal(err)
	}
	// Second snapshot with fewer relations into the same directory.
	small := &Snapshot{Relations: snap.Relations[:1], Dict: snap.Dict}
	if _, err := Write(dir, small); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "rel-") && filepath.Ext(e.Name()) == ".seg" {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d relation segments after overwrite, want 1", segs)
	}
	if db, err := Open(dir); err != nil {
		t.Fatalf("Open after overwrite: %v", err)
	} else {
		db.Close()
	}
}

// segmentPath returns the on-disk path of the i'th catalog relation's
// segment.
func segmentPath(t *testing.T, dir string, i int) string {
	t.Helper()
	cat, err := ReadCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, cat.Relations[i].Segment)
}

// TestOverwriteNeverClobbersReferencedFiles: a snapshot over an existing
// directory must not rewrite any file the old catalog references with
// different bytes (changed payloads get new, checksum-derived names), so
// a crash before the new catalog lands leaves the old snapshot whole.
func TestOverwriteNeverClobbersReferencedFiles(t *testing.T) {
	dir := t.TempDir()
	snapA := testSnapshot(t, nil)
	catA, err := Write(dir, snapA)
	if err != nil {
		t.Fatal(err)
	}
	oldFiles := map[string][]byte{}
	for _, rm := range catA.Relations {
		b, err := os.ReadFile(filepath.Join(dir, rm.Segment))
		if err != nil {
			t.Fatal(err)
		}
		oldFiles[rm.Segment] = b
	}

	// Different data under the same relation names.
	snapB := testSnapshot(t, trie.UintLayout)
	catB, err := Write(dir, snapB)
	if err != nil {
		t.Fatal(err)
	}
	for _, rm := range catB.Relations {
		if old, clash := oldFiles[rm.Segment]; clash {
			b, err := os.ReadFile(filepath.Join(dir, rm.Segment))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(old, b) {
				t.Fatalf("segment %s reused for different bytes — a crash mid-snapshot would corrupt the old catalog", rm.Segment)
			}
		}
	}
	if db, err := Open(dir); err != nil {
		t.Fatalf("Open after overwrite: %v", err)
	} else {
		db.Close()
	}
}

// TestCorruptedSegment flips bytes across a segment and requires restore
// to fail with a checksum CorruptionError rather than aliasing garbage.
func TestCorruptedSegment(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, testSnapshot(t, nil)); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(t, dir, 0)
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []int{9, len(orig) / 3, len(orig) / 2, len(orig) - 2} {
		bad := append([]byte(nil), orig...)
		bad[pos] ^= 0xff
		if err := os.WriteFile(seg, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("corruption at byte %d: Open returned %v, want CorruptionError", pos, err)
		}
	}
}

// TestTruncatedSegment cuts a segment short; the catalog size check must
// catch it before any aliasing happens.
func TestTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, testSnapshot(t, nil)); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(t, dir, 1)
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 4, len(orig) / 2, len(orig) - 1} {
		if err := os.WriteFile(seg, orig[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		var ce *CorruptionError
		if !errors.As(err, &ce) {
			t.Fatalf("truncation to %d bytes: Open returned %v, want CorruptionError", keep, err)
		}
	}
}

func TestCorruptedCatalog(t *testing.T) {
	dir := t.TempDir()
	if _, err := Write(dir, testSnapshot(t, nil)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CatalogFile)
	orig, _ := os.ReadFile(path)

	// Flip a byte inside the JSON payload.
	bad := append([]byte(nil), orig...)
	bad[len(bad)-3] ^= 0x20
	os.WriteFile(path, bad, 0o644)
	if _, err := ReadCatalog(dir); err == nil {
		t.Fatal("corrupted catalog accepted")
	}

	// Unsupported version.
	os.WriteFile(path, bytes.Replace(orig, []byte(" v1 "), []byte(" v9 "), 1), 0o644)
	if _, err := ReadCatalog(dir); err == nil {
		t.Fatal("future-version catalog accepted")
	}

	// A policy name no build defines.
	os.WriteFile(path, orig, 0o644)
	cat, err := ReadCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat.Relations[0].Policy = "varint"
	if err := writeCatalog(path, cat); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptionError
	if _, err := Open(dir); !errors.As(err, &ce) {
		t.Fatalf("unknown policy: Open returned %v, want CorruptionError", err)
	}

	// Missing catalog.
	os.Remove(path)
	if Exists(dir) {
		t.Fatal("Exists true without catalog")
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open without catalog succeeded")
	}
}
