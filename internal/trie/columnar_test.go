package trie

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"emptyheaded/internal/semiring"
)

// --- reference implementation ------------------------------------------
//
// refBuild is the pre-columnar row-at-a-time builder (sort.Slice over row
// pointers, recursive build with copied annotation slices), kept verbatim
// as the differential-testing oracle for ColumnarBuilder.

type refRow struct {
	tuple []uint32
	ann   float64
}

func refBuild(arity int, op semiring.Op, layout *Policy, annotated bool, rows []refRow) *Trie {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b []uint32) bool {
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return less(rows[idx[x]].tuple, rows[idx[y]].tuple)
	})
	var srows [][]uint32
	var sanns []float64
	for _, i := range idx {
		r := rows[i]
		if n := len(srows); n > 0 && !less(srows[n-1], r.tuple) && !less(r.tuple, srows[n-1]) {
			if annotated {
				sanns[n-1] = op.Add(sanns[n-1], r.ann)
			}
			continue
		}
		srows = append(srows, r.tuple)
		if annotated {
			sanns = append(sanns, r.ann)
		}
	}
	t := &Trie{Arity: arity, Annotated: annotated, Op: op}
	if arity == 0 {
		t.Scalar = op.Zero()
		for _, a := range sanns {
			t.Scalar = op.Add(t.Scalar, a)
		}
		return t
	}
	t.Root = refBuildLevel(srows, sanns, 0, arity, layout)
	return t
}

func refBuildLevel(rows [][]uint32, anns []float64, level, arity int, layout *Policy) *Node {
	if len(rows) == 0 {
		return &Node{}
	}
	var vals []uint32
	var starts []int
	for i := 0; i < len(rows); i++ {
		v := rows[i][level]
		if len(vals) == 0 || vals[len(vals)-1] != v {
			vals = append(vals, v)
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(rows))
	n := &Node{Set: layout.Build(vals)}
	if level == arity-1 {
		if anns != nil {
			n.Ann = make([]float64, len(vals))
			copy(n.Ann, anns)
		}
		return n
	}
	n.Children = make([]*Node, len(vals))
	for gi := range vals {
		lo, hi := starts[gi], starts[gi+1]
		var sub []float64
		if anns != nil {
			sub = anns[lo:hi]
		}
		n.Children[gi] = refBuildLevel(rows[lo:hi], sub, level+1, arity, layout)
	}
	return n
}

// requireSameTrie asserts two tries are structurally identical: same
// arity/annotation/scalar, and node-by-node the same values, the same
// chosen set layouts, and the same annotations.
func requireSameTrie(t *testing.T, got, want *Trie) {
	t.Helper()
	if got.Arity != want.Arity || got.Annotated != want.Annotated {
		t.Fatalf("shape: got arity=%d ann=%v, want arity=%d ann=%v",
			got.Arity, got.Annotated, want.Arity, want.Annotated)
	}
	if got.Arity == 0 {
		if got.Scalar != want.Scalar {
			t.Fatalf("scalar: got %v want %v", got.Scalar, want.Scalar)
		}
		return
	}
	requireSameNode(t, got.Root, want.Root, "root")
}

func requireSameNode(t *testing.T, got, want *Node, path string) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got nil=%v want nil=%v", path, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	gv, wv := got.Set.Slice(), want.Set.Slice()
	if len(gv) != len(wv) {
		t.Fatalf("%s: card %d want %d", path, len(gv), len(wv))
	}
	for i := range gv {
		if gv[i] != wv[i] {
			t.Fatalf("%s: value[%d]=%d want %d", path, i, gv[i], wv[i])
		}
	}
	if got.Set.Layout() != want.Set.Layout() {
		t.Fatalf("%s: layout %v want %v", path, got.Set.Layout(), want.Set.Layout())
	}
	if (got.Ann == nil) != (want.Ann == nil) || len(got.Ann) != len(want.Ann) {
		t.Fatalf("%s: ann shape %d/%v want %d/%v", path, len(got.Ann), got.Ann == nil, len(want.Ann), want.Ann == nil)
	}
	for i := range got.Ann {
		if got.Ann[i] != want.Ann[i] {
			t.Fatalf("%s: ann[%d]=%v want %v", path, i, got.Ann[i], want.Ann[i])
		}
	}
	if len(got.Children) != len(want.Children) {
		t.Fatalf("%s: %d children want %d", path, len(got.Children), len(want.Children))
	}
	for i := range got.Children {
		requireSameNode(t, got.Children[i], want.Children[i], fmt.Sprintf("%s/%d", path, gv[i]))
	}
}

// genRows draws n tuples. skewed inputs use a power-law-ish distribution
// with heavy duplication (the adversarial case for both the radix sort's
// partitioning and the work-stealing build); uniform inputs stress wide
// byte histograms including values crossing all four byte lanes.
func genRows(rng *rand.Rand, n, arity int, skewed bool) []refRow {
	rows := make([]refRow, n)
	for i := range rows {
		tp := make([]uint32, arity)
		for k := range tp {
			if skewed {
				// Mostly tiny values (hot vertices), occasionally huge.
				switch rng.Intn(10) {
				case 0:
					tp[k] = rng.Uint32()
				case 1, 2:
					tp[k] = uint32(rng.Intn(1 << 16))
				default:
					tp[k] = uint32(rng.Intn(8))
				}
			} else {
				tp[k] = rng.Uint32() >> uint(rng.Intn(24))
			}
		}
		// Integer-valued annotations keep ⊕ exact under any combine order
		// (sort order among duplicate tuples is unspecified in both
		// implementations).
		rows[i] = refRow{tuple: tp, ann: float64(rng.Intn(7))}
	}
	return rows
}

func TestColumnarDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := []semiring.Op{semiring.Sum, semiring.Count, semiring.Min, semiring.Max}
	// Forced-bitset layouts are exercised separately on a bounded value
	// range (a bitset over full-range uint32 values would span gigabytes).
	layouts := []struct {
		name string
		fn   *Policy
	}{
		{"auto", nil},
		{"uint", UintLayout},
	}
	for _, arity := range []int{1, 2, 3, 4} {
		for _, skewed := range []bool{false, true} {
			for _, annotated := range []bool{false, true} {
				for ci, n := range []int{0, 1, 3, 100, 5000} {
					op := ops[ci%len(ops)]
					lay := layouts[ci%len(layouts)]
					name := fmt.Sprintf("a%d_skew%v_ann%v_n%d_%s_%s", arity, skewed, annotated, n, op, lay.name)
					t.Run(name, func(t *testing.T) {
						rows := genRows(rng, n, arity, skewed)
						// A builder that saw no AddAnn stays un-annotated.
						want := refBuild(arity, op, lay.fn, annotated && n > 0, rows)

						cb := NewColumnarBuilder(arity, op, lay.fn)
						for _, r := range rows {
							if annotated {
								cb.AddAnn(r.ann, r.tuple...)
							} else {
								cb.Add(r.tuple...)
							}
						}
						requireSameTrie(t, cb.Build(), want)
					})
				}
			}
		}
	}
}

// TestColumnarDifferentialLarge pushes row counts past the parallel sort
// and parallel build thresholds so the goroutine paths run (and, under
// -race, are checked for races).
func TestColumnarDifferentialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, skewed := range []bool{false, true} {
		n := parallelBuildMin + 1234
		rows := genRows(rng, n, 2, skewed)
		want := refBuild(2, semiring.Sum, nil, true, rows)

		cols := [][]uint32{make([]uint32, n), make([]uint32, n)}
		anns := make([]float64, n)
		for i, r := range rows {
			cols[0][i], cols[1][i] = r.tuple[0], r.tuple[1]
			anns[i] = r.ann
		}
		got := FromColumns(cols, anns, semiring.Sum, nil)
		requireSameTrie(t, got, want)
	}
}

func TestColumnarBitsetLayout(t *testing.T) {
	// Dense small-range values under a forced bitset layout.
	rng := rand.New(rand.NewSource(3))
	rows := make([]refRow, 4000)
	for i := range rows {
		rows[i] = refRow{tuple: []uint32{uint32(rng.Intn(64)), uint32(rng.Intn(512))}, ann: float64(rng.Intn(5))}
	}
	want := refBuild(2, semiring.Sum, BitsetLayout, true, rows)
	cb := NewColumnarBuilder(2, semiring.Sum, BitsetLayout)
	for _, r := range rows {
		cb.AddAnn(r.ann, r.tuple...)
	}
	requireSameTrie(t, cb.Build(), want)
}

func TestColumnarSetColumnsPresorted(t *testing.T) {
	// Already sorted columns skip the sort; the trie must alias-build
	// correctly either way.
	cols := [][]uint32{{1, 1, 2, 5}, {3, 8, 0, 9}}
	tr := FromColumns(cols, nil, semiring.None, nil)
	if tr.Cardinality() != 4 {
		t.Fatalf("card=%d", tr.Cardinality())
	}
	want := refBuild(2, semiring.None, nil, false, []refRow{
		{tuple: []uint32{1, 3}}, {tuple: []uint32{1, 8}}, {tuple: []uint32{2, 0}}, {tuple: []uint32{5, 9}},
	})
	requireSameTrie(t, tr, want)
}

func TestColumnarAppendColumns(t *testing.T) {
	cb := NewColumnarBuilder(2, semiring.Sum, nil)
	cb.AppendColumns([][]uint32{{9, 2}, {1, 1}}, []float64{2, 3})
	cb.AppendColumns([][]uint32{{2}, {1}}, []float64{5})
	tr := cb.Build()
	if tr.Cardinality() != 2 {
		t.Fatalf("card=%d", tr.Cardinality())
	}
	if ann, ok := tr.Root.Child(2).AnnOf(1, tr.Op); !ok || ann != 8 {
		t.Fatalf("dedup ann=%v ok=%v want 8", ann, ok)
	}
}

func TestColumnarScalar(t *testing.T) {
	cb := NewColumnarBuilder(0, semiring.Sum, nil)
	cb.AddAnn(2)
	cb.AddAnn(3.5)
	tr := cb.Build()
	if tr.Arity != 0 || tr.Scalar != 5.5 {
		t.Fatalf("scalar=%v", tr.Scalar)
	}
}

// FuzzColumnarDifferential feeds arbitrary byte strings as tuple data to
// both builders. Run with `go test -fuzz FuzzColumnarDifferential` for
// open-ended exploration; the seed corpus runs as a regular test.
func FuzzColumnarDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(2), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255}, uint8(1), false)
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8}, uint8(3), true)
	f.Fuzz(func(t *testing.T, data []byte, ar uint8, annotated bool) {
		arity := int(ar%4) + 1
		stride := arity + 1 // last byte of each record is the annotation
		var rows []refRow
		for i := 0; i+stride <= len(data); i += stride {
			tp := make([]uint32, arity)
			for k := 0; k < arity; k++ {
				// Spread the byte across lanes so single-byte fuzz input
				// still produces multi-byte keys.
				b := uint32(data[i+k])
				tp[k] = b | b<<(8*(int(b)%4))
			}
			rows = append(rows, refRow{tuple: tp, ann: float64(data[i+arity] % 16)})
		}
		want := refBuild(arity, semiring.Sum, nil, annotated && len(rows) > 0, rows)
		cb := NewColumnarBuilder(arity, semiring.Sum, nil)
		for _, r := range rows {
			if annotated {
				cb.AddAnn(r.ann, r.tuple...)
			} else {
				cb.Add(r.tuple...)
			}
		}
		requireSameTrie(t, cb.Build(), want)
	})
}

func TestColumnarRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged SetColumns did not panic")
		}
	}()
	cb := NewColumnarBuilder(2, semiring.None, nil)
	cb.SetColumns([][]uint32{{1, 2}, {3}}, nil)
}

// TestBuildFoldsDuplicatesInInputOrder: duplicates of a tuple fold under
// ⊕ in the order they were added, whichever sort path orders the rows —
// insertion sort below insertionMin, the LSD radix passes above it, the
// parallel MSD partition from parallelSortMin rows on with several
// workers. The annotations are floats whose sum depends on order (1e16 +
// 1 − 1e16 is 0, 1e16 − 1e16 + 1 is 1), so any reordering of equal keys
// shows in the bits. One column takes each path in a single pass; two
// columns re-sort runs of an equal first value by the second.
func TestBuildFoldsDuplicatesInInputOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	terms := []float64{1e16, 1, -1e16, 3, -7e15}
	for _, arity := range []int{1, 2} {
		for _, n := range []int{insertionMin - 8, 1000, 4 * parallelSortMin} {
			t.Run(fmt.Sprintf("arity%d/%d", arity, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				keys := min(max(n/16, 2), 256) // every tuple repeats
				b := NewColumnarBuilder(arity, semiring.Sum, nil)
				want := map[[2]uint32]float64{}
				for range n {
					k := uint32(rng.Intn(keys))
					tp := [2]uint32{k, 0}
					if arity == 2 {
						tp = [2]uint32{k % 7 * 1000003, k}
					}
					a := terms[rng.Intn(len(terms))]
					b.AddAnn(a, tp[:arity]...)
					if old, ok := want[tp]; ok {
						a = old + a
					}
					want[tp] = a
				}
				got := b.Build()
				if got.Cardinality() != len(want) {
					t.Fatalf("%d tuples, want %d", got.Cardinality(), len(want))
				}
				got.ForEachTuple(func(tp []uint32, ann float64) {
					var key [2]uint32
					copy(key[:], tp)
					if w := want[key]; math.Float64bits(ann) != math.Float64bits(w) {
						t.Fatalf("%v: folded to %v, in input order %v", tp, ann, w)
					}
				})
			})
		}
	}
}
