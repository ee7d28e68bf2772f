package trie

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
)

func TestBuildAndLookup(t *testing.T) {
	// The Fig. 2 example: (managerID, employeeID) annotated with ratings,
	// after dictionary encoding.
	b := NewColumnarBuilder(2, semiring.Sum, nil)
	b.AddAnn(1.7, 0, 4)
	b.AddAnn(3.8, 1, 0)
	b.AddAnn(9.5, 0, 3)
	b.AddAnn(6.4, 2, 1)
	tr := b.Build()

	if tr.Arity != 2 || !tr.Annotated {
		t.Fatalf("arity=%d annotated=%v", tr.Arity, tr.Annotated)
	}
	if got := tr.Cardinality(); got != 4 {
		t.Fatalf("card=%d want 4", got)
	}
	if got := tr.Root.Set.Slice(); !reflect.DeepEqual(got, []uint32{0, 1, 2}) {
		t.Fatalf("level0 = %v", got)
	}
	c0 := tr.Root.Child(0)
	if c0 == nil || !reflect.DeepEqual(c0.Set.Slice(), []uint32{3, 4}) {
		t.Fatalf("children of 0 = %v", c0)
	}
	if ann, ok := c0.AnnOf(3, tr.Op); !ok || ann != 9.5 {
		t.Fatalf("ann(0,3) = %v,%v", ann, ok)
	}
	if ann, ok := c0.AnnOf(4, tr.Op); !ok || ann != 1.7 {
		t.Fatalf("ann(0,4) = %v,%v", ann, ok)
	}
	if tr.Root.Child(3) != nil {
		t.Fatal("Child(3) should be nil")
	}
}

func TestDuplicateAnnotationsCombine(t *testing.T) {
	b := NewColumnarBuilder(1, semiring.Sum, nil)
	b.AddAnn(2, 7)
	b.AddAnn(5, 7)
	b.AddAnn(1, 9)
	tr := b.Build()
	if tr.Cardinality() != 2 {
		t.Fatalf("card=%d", tr.Cardinality())
	}
	if ann, _ := tr.Root.AnnOf(7, tr.Op); ann != 7 {
		t.Fatalf("SUM dedup ann=%v want 7", ann)
	}

	bm := NewColumnarBuilder(1, semiring.Min, nil)
	bm.AddAnn(5, 7)
	bm.AddAnn(2, 7)
	trm := bm.Build()
	if ann, _ := trm.Root.AnnOf(7, trm.Op); ann != 2 {
		t.Fatalf("MIN dedup ann=%v want 2", ann)
	}
}

func TestScalarTrie(t *testing.T) {
	s := NewScalar(42, semiring.Sum)
	if s.Arity != 0 || s.Scalar != 42 || s.Cardinality() != 1 {
		t.Fatalf("scalar trie wrong: %+v", s)
	}
	b := NewColumnarBuilder(0, semiring.Count, nil)
	b.AddAnn(1)
	b.AddAnn(1)
	b.AddAnn(1)
	tr := b.Build()
	if tr.Scalar != 3 {
		t.Fatalf("count scalar = %v", tr.Scalar)
	}
}

// Lookup answers a full tuple's annotation and membership at every
// arity, annotated or not, and Contains agrees with it.
func TestLookup(t *testing.T) {
	build := func(op semiring.Op, arity int, rows map[float64][]uint32) *Trie {
		b := NewColumnarBuilder(arity, op, nil)
		for ann, tp := range rows {
			if op == semiring.None {
				b.Add(tp...)
			} else {
				b.AddAnn(ann, tp...)
			}
		}
		return b.Build()
	}
	scalar := NewScalar(42, semiring.Sum)
	ann1 := build(semiring.Min, 1, map[float64][]uint32{4: {7}, 9: {3}})
	plain1 := build(semiring.None, 1, map[float64][]uint32{1: {7}, 2: {3}})
	ann2 := build(semiring.Sum, 2, map[float64][]uint32{1.7: {0, 4}, 3.8: {1, 0}, 9.5: {0, 3}})
	plain2 := build(semiring.None, 2, map[float64][]uint32{1: {0, 4}, 2: {1, 0}})
	one := semiring.None.One()
	cases := []struct {
		name  string
		tr    *Trie
		tuple []uint32
		ann   float64
		ok    bool
	}{
		{"arity0", scalar, nil, 42, true},
		{"arity0_wrong_length", scalar, []uint32{1}, 0, false},
		{"arity1_annotated", ann1, []uint32{7}, 4, true},
		{"arity1_annotated_absent", ann1, []uint32{5}, 0, false},
		{"arity1_plain", plain1, []uint32{3}, one, true},
		{"arity1_plain_absent", plain1, []uint32{4}, 0, false},
		{"arity2_annotated", ann2, []uint32{0, 3}, 9.5, true},
		{"arity2_plain", plain2, []uint32{1, 0}, one, true},
		{"arity2_absent_prefix", ann2, []uint32{5, 3}, 0, false},
		{"arity2_absent_leaf", ann2, []uint32{0, 5}, 0, false},
		{"arity2_plain_absent_leaf", plain2, []uint32{0, 3}, 0, false},
		{"arity2_wrong_length", ann2, []uint32{0}, 0, false},
	}
	for _, c := range cases {
		ann, ok := c.tr.Lookup(c.tuple)
		if ann != c.ann || ok != c.ok {
			t.Errorf("%s: Lookup(%v) = %v, %v; want %v, %v", c.name, c.tuple, ann, ok, c.ann, c.ok)
		}
		if got := c.tr.Contains(c.tuple); got != c.ok {
			t.Errorf("%s: Contains(%v) = %v, want %v", c.name, c.tuple, got, c.ok)
		}
	}
}

func TestForEachTupleOrder(t *testing.T) {
	b := NewColumnarBuilder(3, semiring.None, nil)
	tuples := [][]uint32{{2, 1, 1}, {0, 0, 0}, {0, 1, 5}, {0, 1, 2}, {2, 0, 9}}
	for _, tp := range tuples {
		b.Add(tp...)
	}
	tr := b.Build()
	var got [][]uint32
	tr.ForEachTuple(func(tp []uint32, _ float64) {
		got = append(got, append([]uint32(nil), tp...))
	})
	want := [][]uint32{{0, 0, 0}, {0, 1, 2}, {0, 1, 5}, {2, 0, 9}, {2, 1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestFromAdjacency(t *testing.T) {
	adj := [][]uint32{
		0: {1, 2},
		1: {2},
		2: nil,
		3: {0, 1, 2},
	}
	tr := FromAdjacency(adj, nil)
	if tr.Cardinality() != 6 {
		t.Fatalf("card=%d want 6", tr.Cardinality())
	}
	if got := tr.Root.Set.Slice(); !reflect.DeepEqual(got, []uint32{0, 1, 3}) {
		t.Fatalf("sources = %v", got)
	}
	if c := tr.Root.Child(3); c == nil || c.Set.Card() != 3 {
		t.Fatal("adjacency of 3 wrong")
	}
	if tr.Root.Child(2) != nil {
		t.Fatal("vertex with no out-edges should be absent")
	}
}

func TestLayoutPolicies(t *testing.T) {
	adj := make([][]uint32, 2)
	dense := make([]uint32, 512)
	for i := range dense {
		dense[i] = uint32(i)
	}
	adj[0] = dense
	adj[1] = []uint32{0, 100000, 200000, 3000000}

	auto := FromAdjacency(adj, nil)
	if got := auto.Root.Child(0).Set.Layout(); got != set.Bitset {
		t.Fatalf("auto dense layout = %s want bitset", got)
	}
	if got := auto.Root.Child(1).Set.Layout(); got != set.Uint {
		t.Fatalf("auto sparse layout = %s want uint", got)
	}

	allU := FromAdjacency(adj, UintLayout)
	if got := allU.Root.Child(0).Set.Layout(); got != set.Uint {
		t.Fatalf("uint policy layout = %s", got)
	}
	comp := FromAdjacency(adj, CompositeLayout)
	if got := comp.Root.Child(0).Set.Layout(); got != set.Composite {
		t.Fatalf("composite policy layout = %s", got)
	}
}

func TestMemBytesGrowsWithData(t *testing.T) {
	small := NewColumnarBuilder(2, semiring.None, nil)
	small.Add(0, 1)
	st := small.Build()
	big := NewColumnarBuilder(2, semiring.None, nil)
	for i := uint32(0); i < 100; i++ {
		big.Add(i, i+1)
	}
	bt := big.Build()
	if bt.MemBytes() <= st.MemBytes() {
		t.Fatalf("MemBytes: big=%d small=%d", bt.MemBytes(), st.MemBytes())
	}
}

// Property: a trie built from random tuples contains exactly the distinct
// tuples, in sorted order.
func TestQuickTrieRoundTrip(t *testing.T) {
	type pair struct{ A, B uint8 }
	f := func(ps []pair) bool {
		b := NewColumnarBuilder(2, semiring.None, nil)
		seen := map[[2]uint32]bool{}
		for _, p := range ps {
			tp := [2]uint32{uint32(p.A), uint32(p.B)}
			seen[tp] = true
			b.Add(tp[0], tp[1])
		}
		tr := b.Build()
		if tr.Cardinality() != len(seen) {
			return false
		}
		var got [][2]uint32
		tr.ForEachTuple(func(tp []uint32, _ float64) {
			got = append(got, [2]uint32{tp[0], tp[1]})
		})
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i][0] != got[j][0] {
				return got[i][0] < got[j][0]
			}
			return got[i][1] < got[j][1]
		}) {
			return false
		}
		for _, tp := range got {
			if !seen[tp] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandomTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewColumnarBuilder(2, semiring.None, nil)
	ref := map[[2]uint32]bool{}
	for i := 0; i < 20000; i++ {
		x, y := uint32(rng.Intn(500)), uint32(rng.Intn(500))
		b.Add(x, y)
		ref[[2]uint32{x, y}] = true
	}
	tr := b.Build()
	if tr.Cardinality() != len(ref) {
		t.Fatalf("card=%d want %d", tr.Cardinality(), len(ref))
	}
	n := 0
	tr.ForEachTuple(func(tp []uint32, _ float64) {
		if !ref[[2]uint32{tp[0], tp[1]}] {
			t.Fatalf("spurious tuple %v", tp)
		}
		n++
	})
	if n != len(ref) {
		t.Fatalf("visited %d want %d", n, len(ref))
	}
}
