package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"emptyheaded/internal/delta"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// TestOverlayIndexEveryPermutation: a permuted index is one relation
// however it is assembled. For an arity-3 relation serving through an
// overlay, Index(perm) — the base's cached index merged with the permuted
// overlay — equals delta.Permute of the merged view (what a relation
// without an overlay builds) and a trie built from scratch out of a map
// model's tuples, tuple for tuple and annotation for annotation, for all
// six permutations, annotated or not, under the auto and a pinned layout.
func TestOverlayIndexEveryPermutation(t *testing.T) {
	type tuple [3]uint32
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	layouts := []struct {
		name string
		fn   *trie.Policy
	}{{"auto", nil}, {"bitset", trie.BitsetLayout}}

	for _, annotated := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		op := semiring.None
		if annotated {
			op = semiring.Sum
		}
		randTuple := func() tuple {
			return tuple{uint32(rng.Intn(9)), uint32(rng.Intn(9)), uint32(rng.Intn(9))}
		}
		build := func(rows map[tuple]float64, perm []int, withAnns bool, layout *trie.Policy) *trie.Trie {
			cols := make([][]uint32, 3)
			var anns []float64
			if withAnns {
				anns = []float64{}
			}
			for tp, ann := range rows {
				for i, p := range perm {
					cols[i] = append(cols[i], tp[p])
				}
				if withAnns {
					anns = append(anns, ann)
				}
			}
			return trie.FromColumns(cols, anns, op, layout)
		}

		model := map[tuple]float64{}
		for len(model) < 250 {
			model[randTuple()] = float64(1 + rng.Intn(50))
		}
		base := build(model, perms[0], annotated, nil)

		// One batch: tombstones aimed half at live tuples, inserts that
		// half replace a live tuple's annotation, and every eighth
		// tombstoned tuple inserted again.
		var live []tuple
		base.ForEachTuple(func(tp []uint32, _ float64) { live = append(live, tuple{tp[0], tp[1], tp[2]}) })
		del, ins := map[tuple]float64{}, map[tuple]float64{}
		for i := 0; i < 40; i++ {
			d := live[rng.Intn(len(live))]
			del[d], del[randTuple()] = 1, 1
			ins[live[rng.Intn(len(live))]] = float64(100 + i)
			ins[randTuple()] = float64(200 + i)
			if i%8 == 0 {
				ins[d] = 300
			}
		}
		for tp := range del {
			delete(model, tp)
		}
		for tp, ann := range ins {
			model[tp] = ann
		}
		if !annotated {
			for tp := range model {
				model[tp] = 1
			}
		}
		ov := delta.NewOverlay(3, annotated, op, nil).Apply(
			build(ins, perms[0], annotated, nil), build(del, perms[0], false, nil))
		rel := NewOverlayRelation(NewRelation("R", base), ov, len(model), 1, 0)
		merged := rel.Canonical()

		db := NewDB()
		db.Install(rel)
		plain := db.AddTrie("P", delta.Compact(merged))
		if !rel.HasOverlay() || plain.HasOverlay() {
			t.Fatalf("fixture: overlay flags %v / %v", rel.HasOverlay(), plain.HasOverlay())
		}
		for _, l := range layouts {
			for _, perm := range perms {
				tag := fmt.Sprintf("annotated=%v layout=%s perm=%v", annotated, l.name, perm)
				want := build(model, perm, annotated, l.fn)
				if want.Cardinality() != len(model) {
					t.Fatalf("%s: reference holds %d tuples, model %d", tag, want.Cardinality(), len(model))
				}
				for how, got := range map[string]*trie.Trie{
					"overlay Index":         rel.Index(perm, l.fn),
					"Permute of the view":   delta.Permute(merged, perm, l.fn),
					"Index without overlay": plain.Index(perm, l.fn),
				} {
					if got.Annotated != annotated || !triesEqual(got, want) {
						t.Fatalf("%s: %s is not the from-scratch build (%d tuples, want %d)",
							tag, how, got.Cardinality(), want.Cardinality())
					}
				}
			}
		}
	}
}
