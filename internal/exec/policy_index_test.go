package exec_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emptyheaded/internal/core"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/storage"
	"emptyheaded/internal/trie"
)

var policies = []*trie.Policy{nil, trie.UintLayout, trie.BitsetLayout, trie.CompositeLayout}

// checkServesCanonical asserts the index rule on one relation built under
// policy p: the canonical trie records p and is the identity index for p,
// and every other policy q reads a distinct trie with the same tuples,
// every set of it in q's layout when q pins one.
func checkServesCanonical(t *testing.T, r *exec.Relation, p *trie.Policy) {
	t.Helper()
	identity := []int{0, 1}
	canon := r.Canonical()
	if canon.Policy != p {
		t.Errorf("%s: canonical trie records policy %v, built under %v", r.Name, canon.Policy, p)
	}
	if idx := r.Index(identity, p); idx != canon {
		t.Errorf("%s: identity index under its own policy %v is a copy, not the canonical trie", r.Name, p)
	}
	for _, q := range policies {
		if q == p {
			continue
		}
		idx := r.Index(identity, q)
		if idx == canon {
			t.Errorf("%s (built %v): identity index under %v serves the canonical trie", r.Name, p, q)
			continue
		}
		if idx.Policy != q || idx.Cardinality() != canon.Cardinality() {
			t.Errorf("%s (built %v): index under %v records %v with %d tuples, want %d",
				r.Name, p, q, idx.Policy, idx.Cardinality(), canon.Cardinality())
		}
		if q == nil {
			continue
		}
		for _, lv := range idx.LayoutProfile() {
			for name, n := range lv.Sets {
				if name != q.String() {
					t.Errorf("%s (built %v): index under %v stores %d level-%d sets as %s", r.Name, p, q, n, lv.Level, name)
				}
			}
		}
	}
}

// TestIndexPolicyServesCanonical: a trie records the layout policy that
// built it, and Relation.Index serves it at the identity permutation for
// exactly that policy — for a loaded graph, a registered trie, a
// relation serving through an overlay, one an update created, and each
// of them restored from a snapshot into an engine of another policy.
// Under every other policy the identity index is a rebuilt copy.
func TestIndexPolicyServesCanonical(t *testing.T) {
	g := gen.PowerLaw(400, 3000, 2.2, 3)
	for _, p := range policies {
		t.Run(p.String(), func(t *testing.T) {
			eng := core.NewWithOptions(exec.Options{Layout: p})
			eng.SetAutoCompact(0, 0)
			eng.LoadGraph("G", g)
			eng.DB.AddTrie("C", trie.FromColumns([][]uint32{{1, 1, 2, 7}, {2, 5, 3, 9}}, nil, semiring.None, p))
			eng.LoadGraph("U", g)
			del := [][]uint32{{1}, {g.Adj[1][0]}}
			if _, err := eng.Update(core.UpdateBatch{Rel: "U", InsCols: [][]uint32{{1, 500}, {900, 501}}, DelCols: del}); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Update(core.UpdateBatch{Rel: "N", InsCols: [][]uint32{{4, 4}, {5, 6}}}); err != nil {
				t.Fatal(err)
			}
			names := []string{"G", "C", "U", "N"}
			for _, name := range names {
				r, _ := eng.DB.Relation(name)
				if wantOverlay := name == "U" || name == "N"; r.HasOverlay() != wantOverlay {
					t.Fatalf("%s: HasOverlay %v", name, r.HasOverlay())
				}
				checkServesCanonical(t, r, p)
			}

			dir := t.TempDir()
			if _, err := eng.Snapshot(dir); err != nil {
				t.Fatal(err)
			}
			other := core.NewWithOptions(exec.Options{Layout: trie.UintLayout})
			if p == trie.UintLayout {
				other = core.New()
			}
			if _, err := other.Restore(dir); err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				r, _ := other.DB.Relation(name)
				checkServesCanonical(t, r, p)
			}
		})
	}

	// A catalog written before relations recorded their policy restores
	// under nil, and re-snapshots to the same segment bytes.
	t.Run("catalog_without_policy", func(t *testing.T) {
		dir := t.TempDir()
		payload := trie.FromColumns([][]uint32{{1, 1, 2}, {2, 3, 3}}, nil, semiring.None, nil).AppendTo(nil)
		crc := storage.Checksum(payload)
		seg := fmt.Sprintf("rel-00000-%08x.seg", crc)
		if err := os.WriteFile(filepath.Join(dir, seg), append([]byte("EHSEGv1\n"), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		cat := fmt.Sprintf(`{"format_version": 1, "relations": [{"name": "E", "segment": %q, "arity": 2, "op": "none", "cardinality": 3, "epoch": 1, "bytes": %d, "checksum": %d}]}`,
			seg, len(payload), crc)
		header := fmt.Sprintf("EHCATALOG v1 crc32=%08x len=%d\n", storage.Checksum([]byte(cat)), len(cat))
		if err := os.WriteFile(filepath.Join(dir, storage.CatalogFile), []byte(header+cat), 0o644); err != nil {
			t.Fatal(err)
		}
		eng := core.NewWithOptions(exec.Options{Layout: trie.BitsetLayout})
		if _, err := eng.Restore(dir); err != nil {
			t.Fatal(err)
		}
		r, _ := eng.DB.Relation("E")
		checkServesCanonical(t, r, nil)

		again := t.TempDir()
		cat2, err := eng.Snapshot(again)
		if err != nil {
			t.Fatal(err)
		}
		if len(cat2.Relations) != 1 || cat2.Relations[0].Segment != seg || cat2.Relations[0].Policy != "" {
			t.Fatalf("re-snapshot catalog rows %+v, want one nil-policy row over %s", cat2.Relations, seg)
		}
		want, _ := os.ReadFile(filepath.Join(dir, seg))
		got, err := os.ReadFile(filepath.Join(again, seg))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("re-snapshot segment differs from the hand-written one (err %v)", err)
		}
		if raw, _ := os.ReadFile(filepath.Join(again, storage.CatalogFile)); strings.Contains(string(raw), `"policy"`) {
			t.Fatalf("nil policy written to the catalog:\n%s", raw)
		}
	})
}
