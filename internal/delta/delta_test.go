package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// buildTrie materializes tuples (with optional anns) into a trie.
func buildTrie(t *testing.T, arity int, op semiring.Op, rows [][]uint32, anns []float64) *trie.Trie {
	t.Helper()
	return buildTrieLayout(t, arity, op, rows, anns, nil)
}

// buildTrieLayout is buildTrie with a pinned per-set layout.
func buildTrieLayout(t *testing.T, arity int, op semiring.Op, rows [][]uint32, anns []float64, layout *trie.Policy) *trie.Trie {
	t.Helper()
	cols := make([][]uint32, arity)
	for c := range cols {
		cols[c] = make([]uint32, len(rows))
		for i, r := range rows {
			cols[c][i] = r[c]
		}
	}
	return trie.FromColumns(cols, anns, op, layout)
}

// tupleKey packs a tuple for map-model bookkeeping.
func tupleKey(tp []uint32) string { return fmt.Sprint(tp) }

// dump enumerates a trie into a map key→ann.
func dump(tr *trie.Trie) map[string]float64 {
	out := map[string]float64{}
	tr.ForEachTuple(func(tp []uint32, ann float64) {
		out[tupleKey(tp)] = ann
	})
	return out
}

func TestMergedViewBasic(t *testing.T) {
	base := buildTrie(t, 2, semiring.None, [][]uint32{{1, 2}, {1, 3}, {2, 5}, {4, 1}}, nil)
	ins := buildTrie(t, 2, semiring.None, [][]uint32{{1, 4}, {3, 3}}, nil)
	del := buildTrie(t, 2, semiring.None, [][]uint32{{1, 2}, {4, 1}, {9, 9}}, nil)

	view := MergedView(base, ins, del, nil)
	got := dump(view)
	want := map[string]float64{
		tupleKey([]uint32{1, 3}): 1, tupleKey([]uint32{1, 4}): 1,
		tupleKey([]uint32{2, 5}): 1, tupleKey([]uint32{3, 3}): 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged view %v, want %v", got, want)
	}
	if view.Cardinality() != 4 {
		t.Fatalf("cardinality %d, want 4", view.Cardinality())
	}
	// Untouched subtree is shared, not copied: source 2 has no overlay.
	r, _ := view.Root.Set.Rank(2)
	br, _ := base.Root.Set.Rank(2)
	if view.Root.Children[r] != base.Root.Children[br] {
		t.Fatalf("untouched subtree was copied instead of shared")
	}
}

func TestMergedViewEmptyOverlayIsBase(t *testing.T) {
	base := buildTrie(t, 2, semiring.None, [][]uint32{{1, 2}}, nil)
	if MergedView(base, nil, nil, nil) != base {
		t.Fatalf("empty overlay should return base unchanged")
	}
	ov := NewOverlay(2, false, semiring.None, nil)
	if MergedView(base, ov.Ins, ov.Del, nil) != base {
		t.Fatalf("empty overlay tries should return base unchanged")
	}
}

func TestMergedViewAnnotationsReplace(t *testing.T) {
	base := buildTrie(t, 1, semiring.Sum, [][]uint32{{1}, {2}, {3}}, []float64{10, 20, 30})
	ins := buildTrie(t, 1, semiring.Sum, [][]uint32{{2}, {4}}, []float64{99, 44})
	view := MergedView(base, ins, nil, nil)
	got := dump(view)
	want := map[string]float64{
		tupleKey([]uint32{1}): 10, tupleKey([]uint32{2}): 99,
		tupleKey([]uint32{3}): 30, tupleKey([]uint32{4}): 44,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("annotated view %v, want %v", got, want)
	}
}

func TestOverlayApplyInvariant(t *testing.T) {
	ov := NewOverlay(2, false, semiring.None, nil)
	ins1 := buildTrie(t, 2, semiring.None, [][]uint32{{1, 1}, {2, 2}}, nil)
	ov = ov.Apply(ins1, nil)
	if ov.Rows() != 2 {
		t.Fatalf("rows %d, want 2", ov.Rows())
	}
	// Delete one inserted tuple and one unrelated tuple.
	del := buildTrie(t, 2, semiring.None, [][]uint32{{2, 2}, {7, 7}}, nil)
	ov = ov.Apply(nil, del)
	if got := dump(ov.Ins); !reflect.DeepEqual(got, map[string]float64{tupleKey([]uint32{1, 1}): 1}) {
		t.Fatalf("ins after delete: %v", got)
	}
	if got := dump(ov.Del); len(got) != 2 {
		t.Fatalf("del after delete: %v", got)
	}
	// Re-insert a tombstoned tuple: tombstone must clear.
	ins2 := buildTrie(t, 2, semiring.None, [][]uint32{{7, 7}}, nil)
	ov = ov.Apply(ins2, nil)
	if _, dead := dump(ov.Del)[tupleKey([]uint32{7, 7})]; dead {
		t.Fatalf("tombstone survived re-insert")
	}
	if ov.Rows() != 3 { // ins {1,1},{7,7} + del {2,2}
		t.Fatalf("rows %d, want 3", ov.Rows())
	}
}

func TestOverlaySameBatchDeleteThenInsert(t *testing.T) {
	// A tuple both deleted and inserted in one batch ends present.
	ov := NewOverlay(2, false, semiring.None, nil)
	ins := buildTrie(t, 2, semiring.None, [][]uint32{{5, 5}}, nil)
	del := buildTrie(t, 2, semiring.None, [][]uint32{{5, 5}}, nil)
	ov = ov.Apply(ins, del)
	if _, alive := dump(ov.Ins)[tupleKey([]uint32{5, 5})]; !alive {
		t.Fatalf("tuple deleted+inserted in one batch should be present")
	}
	if _, dead := dump(ov.Del)[tupleKey([]uint32{5, 5})]; dead {
		t.Fatalf("tombstone should not survive same-batch insert")
	}
}

func TestCompactEqualsView(t *testing.T) {
	base := buildTrie(t, 3, semiring.None, [][]uint32{{1, 2, 3}, {1, 2, 4}, {2, 1, 1}, {3, 3, 3}}, nil)
	ins := buildTrie(t, 3, semiring.None, [][]uint32{{1, 2, 5}, {9, 9, 9}}, nil)
	del := buildTrie(t, 3, semiring.None, [][]uint32{{2, 1, 1}, {1, 2, 3}}, nil)
	view := MergedView(base, ins, del, nil)
	compacted := Compact(view)
	if !reflect.DeepEqual(dump(view), dump(compacted)) {
		t.Fatalf("compacted trie differs from merged view")
	}
	if compacted.Cardinality() != view.Cardinality() {
		t.Fatalf("compacted cardinality %d, view %d", compacted.Cardinality(), view.Cardinality())
	}
}

// TestTrimAgainst: trimming an overlay against a base that absorbed
// part of it (a compacted trie) keeps exactly the changes the base
// lacks, keeps the relation's shape, and never changes the merged view.
// Every compaction installs through it; an overlay the base absorbed
// whole trims to empty.
func TestTrimAgainst(t *testing.T) {
	base := buildTrie(t, 2, semiring.Sum, [][]uint32{{1, 1}, {2, 2}, {3, 3}}, []float64{10, 20, 30})
	key := func(a, b uint32) string { return tupleKey([]uint32{a, b}) }
	for _, tc := range []struct {
		name             string
		ins              [][]uint32
		insAnns          []float64
		del              [][]uint32
		wantIns, wantDel map[string]float64
	}{
		{name: "absorbed insert dropped",
			ins: [][]uint32{{1, 1}, {5, 5}}, insAnns: []float64{10, 50},
			wantIns: map[string]float64{key(5, 5): 50}, wantDel: map[string]float64{}},
		{name: "changed annotation kept",
			ins: [][]uint32{{1, 1}}, insAnns: []float64{11},
			wantIns: map[string]float64{key(1, 1): 11}, wantDel: map[string]float64{}},
		{name: "tombstone for absent tuple dropped",
			del:     [][]uint32{{9, 9}},
			wantIns: map[string]float64{}, wantDel: map[string]float64{}},
		{name: "tombstone for present tuple kept",
			del:     [][]uint32{{2, 2}, {9, 9}},
			wantIns: map[string]float64{}, wantDel: map[string]float64{key(2, 2): 1}},
		{name: "fully absorbed overlay is empty",
			ins: [][]uint32{{1, 1}, {3, 3}}, insAnns: []float64{10, 30}, del: [][]uint32{{8, 8}, {9, 9}},
			wantIns: map[string]float64{}, wantDel: map[string]float64{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ins, del *trie.Trie
			if tc.ins != nil {
				ins = buildTrie(t, 2, semiring.Sum, tc.ins, tc.insAnns)
			}
			if tc.del != nil {
				del = buildTrie(t, 2, semiring.None, tc.del, nil)
			}
			ov := NewOverlay(2, true, semiring.Sum, nil).Apply(ins, del)
			trimmed := ov.TrimAgainst(base)
			if got := dump(trimmed.Ins); !reflect.DeepEqual(got, tc.wantIns) {
				t.Fatalf("trimmed inserts %v, want %v", got, tc.wantIns)
			}
			if got := dump(trimmed.Del); !reflect.DeepEqual(got, tc.wantDel) {
				t.Fatalf("trimmed tombstones %v, want %v", got, tc.wantDel)
			}
			if want := len(tc.wantIns) + len(tc.wantDel); trimmed.Rows() != want || trimmed.IsEmpty() != (want == 0) {
				t.Fatalf("trimmed rows %d (empty %v), want %d", trimmed.Rows(), trimmed.IsEmpty(), want)
			}
			if !trimmed.Ins.Annotated || trimmed.Ins.Op != semiring.Sum || trimmed.Del.Annotated {
				t.Fatalf("trim lost the overlay's shape: ins annotated=%v op=%v, del annotated=%v",
					trimmed.Ins.Annotated, trimmed.Ins.Op, trimmed.Del.Annotated)
			}
			if a, b := dump(MergedView(base, ov.Ins, ov.Del, nil)), dump(MergedView(base, trimmed.Ins, trimmed.Del, nil)); !reflect.DeepEqual(a, b) {
				t.Fatalf("trim changed the merged view: %v vs %v", a, b)
			}
		})
	}
}

func TestPermute(t *testing.T) {
	tr := buildTrie(t, 2, semiring.Sum, [][]uint32{{1, 9}, {2, 8}}, []float64{0.5, 0.25})
	p := Permute(tr, []int{1, 0}, nil)
	got := dump(p)
	want := map[string]float64{
		tupleKey([]uint32{9, 1}): 0.5, tupleKey([]uint32{8, 2}): 0.25,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("permuted %v, want %v", got, want)
	}
	if Permute(nil, []int{0, 1}, nil) != nil {
		t.Fatalf("Permute(nil) should be nil")
	}
}

// TestDifferentialRandom drives random batched inserts/deletes through
// the overlay machinery and checks the merged view (and its compaction)
// against a naive map model after every batch — the property that
// base+overlay is indistinguishable from a from-scratch rebuild.
func TestDifferentialRandom(t *testing.T) {
	for _, annotated := range []bool{false, true} {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("ann=%v/seed=%d", annotated, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				arity := 2 + rng.Intn(2)
				op := semiring.None
				if annotated {
					op = semiring.Sum
				}

				randRow := func() []uint32 {
					row := make([]uint32, arity)
					for i := range row {
						row[i] = uint32(rng.Intn(12))
					}
					return row
				}

				// Random base.
				model := map[string]float64{}
				modelRows := map[string][]uint32{}
				var baseRows [][]uint32
				var baseAnns []float64
				for i := 0; i < 60; i++ {
					r := randRow()
					baseRows = append(baseRows, r)
					a := 1.0
					if annotated {
						a = float64(rng.Intn(100))
						baseAnns = append(baseAnns, a)
					}
					k := tupleKey(r)
					if annotated {
						if old, dup := model[k]; dup {
							a = op.Add(old, a) // builder ⊕-combines duplicates
						}
					}
					model[k] = a
					modelRows[k] = r
				}
				var anns []float64
				if annotated {
					anns = baseAnns
				}
				base := buildTrie(t, arity, op, baseRows, anns)

				ov := NewOverlay(arity, annotated, op, nil)
				for batch := 0; batch < 15; batch++ {
					// Deletes first (half aimed at live tuples), then inserts.
					var delRows [][]uint32
					for i := 0; i < rng.Intn(6); i++ {
						if len(model) > 0 && rng.Intn(2) == 0 {
							keys := make([]string, 0, len(model))
							for k := range model {
								keys = append(keys, k)
							}
							sort.Strings(keys)
							delRows = append(delRows, modelRows[keys[rng.Intn(len(keys))]])
						} else {
							delRows = append(delRows, randRow())
						}
					}
					var insRows [][]uint32
					var insAnns []float64
					for i := 0; i < rng.Intn(6); i++ {
						insRows = append(insRows, randRow())
						if annotated {
							insAnns = append(insAnns, float64(rng.Intn(100)))
						}
					}

					// Model: delete-then-insert, last insert wins per tuple
					// within a batch is ⊕-combined by the mini-trie build,
					// so mirror that by building the mini tries first and
					// folding their post-dedup tuples into the model.
					var insT, delT *trie.Trie
					if len(delRows) > 0 {
						delT = buildTrie(t, arity, semiring.None, delRows, nil)
					}
					if len(insRows) > 0 {
						insT = buildTrie(t, arity, op, insRows, insAnns)
					}
					if delT != nil {
						delT.ForEachTuple(func(tp []uint32, _ float64) {
							delete(model, tupleKey(tp))
						})
					}
					if insT != nil {
						insT.ForEachTuple(func(tp []uint32, ann float64) {
							k := tupleKey(tp)
							model[k] = ann
							modelRows[k] = append([]uint32(nil), tp...)
						})
					}

					ov = ov.Apply(insT, delT)
					view := MergedView(base, ov.Ins, ov.Del, nil)
					got := dump(view)
					want := model
					if !annotated {
						want = map[string]float64{}
						for k := range model {
							want[k] = 1
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("batch %d: view %v, want %v", batch, got, want)
					}
					// Compaction must be invisible.
					if cd := dump(Compact(view)); !reflect.DeepEqual(cd, want) {
						t.Fatalf("batch %d: compacted %v, want %v", batch, cd, want)
					}
					// Idempotent re-fold: applying the current overlay onto
					// an already-folded base is a no-op (the compaction
					// install race and WAL-replay-after-snapshot property).
					refold := MergedView(Compact(view), ov.Ins, ov.Del, nil)
					if rd := dump(refold); !reflect.DeepEqual(rd, want) {
						t.Fatalf("batch %d: re-folded %v, want %v", batch, rd, want)
					}
				}
			})
		}
	}
}

// TestMergedViewMixedLayouts pins the base, insert and delete tries to
// every combination of set layout and checks the path-copying merge —
// including the word-parallel bitset Merge3 path — against a map model.
// Dense value runs make the bitset/composite layouts load-bearing
// rather than degenerate.
func TestMergedViewMixedLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var baseRows, insRows, delRows [][]uint32
	// Dense block of destinations under a few sources, plus noise.
	for src := uint32(0); src < 4; src++ {
		for d := uint32(0); d < 300; d++ {
			if rng.Intn(4) > 0 {
				baseRows = append(baseRows, []uint32{src, d})
			}
		}
	}
	for i := 0; i < 200; i++ {
		baseRows = append(baseRows, []uint32{uint32(rng.Intn(50)), uint32(rng.Intn(1 << 16))})
	}
	for i := 0; i < 150; i++ {
		r := baseRows[rng.Intn(len(baseRows))]
		delRows = append(delRows, []uint32{r[0], r[1]})
	}
	for src := uint32(0); src < 4; src++ {
		for d := uint32(300); d < 400; d++ {
			insRows = append(insRows, []uint32{src, d})
		}
	}

	model := map[string]float64{}
	for _, r := range baseRows {
		model[tupleKey(r)] = 1
	}
	for _, r := range delRows {
		delete(model, tupleKey(r))
	}
	for _, r := range insRows {
		model[tupleKey(r)] = 1
	}

	layouts := map[string]*trie.Policy{
		"uint":      trie.UintLayout,
		"bitset":    trie.BitsetLayout,
		"composite": trie.CompositeLayout,
		"auto":      nil,
	}
	names := []string{"uint", "bitset", "composite", "auto"}
	for _, bn := range names {
		for _, on := range names {
			base := buildTrieLayout(t, 2, semiring.None, baseRows, nil, layouts[bn])
			ins := buildTrieLayout(t, 2, semiring.None, insRows, nil, layouts[on])
			del := buildTrieLayout(t, 2, semiring.None, delRows, nil, layouts[on])
			for _, vn := range names {
				view := MergedView(base, ins, del, layouts[vn])
				if got := dump(view); !reflect.DeepEqual(got, model) {
					t.Fatalf("base=%s overlay=%s view=%s: %d tuples, want %d",
						bn, on, vn, len(got), len(model))
				}
			}
		}
	}
}

// TestApplyMixedLayouts drives an annotated relation through batches that
// hit every rule of state = (base \ Del) ∪ Ins — same-batch
// delete-then-insert, re-insert after delete, annotation replacement, a
// subtree deleted whole, a tombstone for an absent tuple — with the base,
// the batches and the merge pinned to every combination of set layout,
// and checks both overlay sides and the merged view against map models
// after each batch. Dense runs make bitset / composite load-bearing.
func TestApplyMixedLayouts(t *testing.T) {
	type row struct {
		tp  []uint32
		ann float64
	}
	var baseRows []row
	for d := uint32(0); d < 280; d++ {
		baseRows = append(baseRows, row{[]uint32{1, d}, float64(d)})
	}
	for d := uint32(0); d < 100; d++ {
		baseRows = append(baseRows, row{[]uint32{3, d}, 0.5})
	}
	baseRows = append(baseRows, row{[]uint32{2, 9}, 29})

	type batch struct{ del, ins []row }
	var batches [3]batch
	// 1: tombstone every third destination of source 1 plus {2,9} and an
	// absent tuple; insert 270..299 under source 1 — 270..279 replace
	// base annotations, and 270/273/276/279 are deleted and inserted in
	// this one batch.
	for d := uint32(0); d < 280; d += 3 {
		batches[0].del = append(batches[0].del, row{tp: []uint32{1, d}})
	}
	batches[0].del = append(batches[0].del, row{tp: []uint32{2, 9}}, row{tp: []uint32{7, 7}})
	for d := uint32(270); d < 300; d++ {
		batches[0].ins = append(batches[0].ins, row{[]uint32{1, d}, 1000 + float64(d)})
	}
	batches[0].ins = append(batches[0].ins, row{[]uint32{5, 5}, 55})
	// 2: re-insert tombstoned tuples with new annotations; delete an
	// overlay-only tuple and all of source 3.
	batches[1].ins = []row{{[]uint32{1, 0}, -1}, {[]uint32{1, 3}, -3}, {[]uint32{2, 9}, -29}}
	batches[1].del = []row{{tp: []uint32{5, 5}}}
	for d := uint32(0); d < 100; d++ {
		batches[1].del = append(batches[1].del, row{tp: []uint32{3, d}})
	}
	// 3: delete a re-inserted tuple again; bring one of source 3 back.
	batches[2].del = []row{{tp: []uint32{1, 0}}}
	batches[2].ins = []row{{[]uint32{3, 50}, 350}}

	split := func(rows []row) (tps [][]uint32, anns []float64) {
		for _, r := range rows {
			tps = append(tps, r.tp)
			anns = append(anns, r.ann)
		}
		return tps, anns
	}
	layouts := []*trie.Policy{trie.UintLayout, trie.BitsetLayout, trie.CompositeLayout, nil}
	for bi, bl := range layouts {
		for oi, ol := range layouts {
			for mi, ml := range layouts {
				tag := fmt.Sprintf("base=%d batch=%d merge=%d", bi, oi, mi)
				tps, anns := split(baseRows)
				base := buildTrieLayout(t, 2, semiring.Sum, tps, anns, bl)
				model, modelIns, modelDel := dump(base), map[string]float64{}, map[string]float64{}
				ov := NewOverlay(2, true, semiring.Sum, ml)
				for n, b := range batches {
					delTps, _ := split(b.del)
					insTps, insAnns := split(b.ins)
					ov = ov.Apply(
						buildTrieLayout(t, 2, semiring.Sum, insTps, insAnns, ol),
						buildTrieLayout(t, 2, semiring.None, delTps, nil, ol))
					for _, r := range b.del {
						k := tupleKey(r.tp)
						delete(model, k)
						delete(modelIns, k)
						modelDel[k] = 1
					}
					for _, r := range b.ins {
						k := tupleKey(r.tp)
						model[k] = r.ann
						modelIns[k] = r.ann
						delete(modelDel, k)
					}
					if got := dump(ov.Ins); !reflect.DeepEqual(got, modelIns) {
						t.Fatalf("%s batch %d: Ins %v, want %v", tag, n+1, got, modelIns)
					}
					if got := dump(ov.Del); !reflect.DeepEqual(got, modelDel) {
						t.Fatalf("%s batch %d: Del %v, want %v", tag, n+1, got, modelDel)
					}
					if ov.Rows() != len(modelIns)+len(modelDel) {
						t.Fatalf("%s batch %d: rows %d, want %d", tag, n+1, ov.Rows(), len(modelIns)+len(modelDel))
					}
					view := MergedView(base, ov.Ins, ov.Del, ml)
					if got := dump(view); !reflect.DeepEqual(got, model) {
						t.Fatalf("%s batch %d: view has %d tuples, want %d", tag, n+1, len(got), len(model))
					}
					if view.Cardinality() != len(model) {
						t.Fatalf("%s batch %d: cardinality %d, want %d", tag, n+1, view.Cardinality(), len(model))
					}
				}
			}
		}
	}
}

// TestMergeSharesInsertSubtrees pins the sharing cases of the merge: where
// the base holds nothing under a prefix and no tombstone reaches it, the
// insert side's subtree is linked, not rebuilt — down to the whole trie
// over an empty base, which is how the first batch of an overlay installs.
func TestMergeSharesInsertSubtrees(t *testing.T) {
	ins := buildTrie(t, 2, semiring.Sum, [][]uint32{{4, 1}, {4, 2}, {9, 9}}, []float64{1, 2, 3})
	del := buildTrie(t, 2, semiring.None, [][]uint32{{1, 2}}, nil)

	empty := NewOverlay(2, true, semiring.Sum, nil)
	ov := empty.Apply(ins, del)
	if ov.Ins.Root != ins.Root || ov.Del.Root.Child(1) != del.Root.Child(1) {
		t.Fatalf("first batch over an empty overlay was rebuilt instead of shared")
	}
	if empty.Apply(nil, del).Del.Root != del.Root {
		t.Fatalf("delete-only first batch was rebuilt instead of shared")
	}
	if !ov.Ins.Annotated || ov.Del.Annotated {
		t.Fatalf("overlay sides lost their shape: ins annotated %v, del annotated %v", ov.Ins.Annotated, ov.Del.Annotated)
	}
	if again := ov.Apply(nil, nil); again.Ins != ov.Ins || again.Del != ov.Del {
		t.Fatalf("an empty batch should keep both sides")
	}
	if view := MergedView(trie.NewEmpty(2, true, semiring.Sum, nil), ins, nil, nil); view.Root != ins.Root {
		t.Fatalf("insert-only view over an empty base was rebuilt instead of shared")
	}

	// Node level: source 1 is base-only and tombstoned, 4 is in both, 9 is
	// insert-only — only 9's subtree can be the insert side's own.
	base := buildTrie(t, 2, semiring.Sum, [][]uint32{{1, 2}, {1, 3}, {4, 1}}, []float64{10, 20, 30})
	view := MergedView(base, ins, del, nil)
	if got, want := dump(view), map[string]float64{
		tupleKey([]uint32{1, 3}): 20, tupleKey([]uint32{4, 1}): 1,
		tupleKey([]uint32{4, 2}): 2, tupleKey([]uint32{9, 9}): 3,
	}; !reflect.DeepEqual(got, want) {
		t.Fatalf("view %v, want %v", got, want)
	}
	if view.Root.Child(9) != ins.Root.Child(9) {
		t.Fatalf("insert-only subtree was rebuilt instead of shared")
	}
	if view.Root.Child(4) == ins.Root.Child(4) || view.Root.Child(4) == base.Root.Child(4) {
		t.Fatalf("a subtree present on both sides must be a fresh merge")
	}
}
