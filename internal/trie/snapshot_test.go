package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"emptyheaded/internal/semiring"
)

// randomTuples returns n random arity-k tuples (with duplicates).
func randomTuples(n, arity int, span uint32, seed int64) [][]uint32 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]uint32, n)
	for i := range out {
		tp := make([]uint32, arity)
		for j := range tp {
			tp[j] = uint32(r.Intn(int(span)))
		}
		out[i] = tp
	}
	return out
}

func buildTrie(tuples [][]uint32, anns []float64, op semiring.Op, layout *Policy) *Trie {
	arity := len(tuples[0])
	b := NewColumnarBuilder(arity, op, layout)
	for i, tp := range tuples {
		if anns != nil {
			b.AddAnn(anns[i], tp...)
		} else {
			b.Add(tp...)
		}
	}
	return b.Build()
}

func trieTuplesKey(t *Trie) string {
	var sb bytes.Buffer
	t.ForEachTuple(func(tp []uint32, ann float64) {
		fmt.Fprintf(&sb, "%v:%g;", tp, ann)
	})
	return sb.String()
}

func roundTripTrie(t *testing.T, tr *Trie) *Trie {
	t.Helper()
	enc := tr.AppendTo(nil)
	got, err := FromBuffers(enc)
	if err != nil {
		t.Fatalf("FromBuffers: %v", err)
	}
	if got.Arity != tr.Arity || got.Annotated != tr.Annotated || got.Op != tr.Op {
		t.Fatalf("metadata mismatch: got (%d,%v,%v) want (%d,%v,%v)",
			got.Arity, got.Annotated, got.Op, tr.Arity, tr.Annotated, tr.Op)
	}
	if got.Cardinality() != tr.Cardinality() {
		t.Fatalf("cardinality %d, want %d", got.Cardinality(), tr.Cardinality())
	}
	if k1, k2 := trieTuplesKey(tr), trieTuplesKey(got); k1 != k2 {
		t.Fatalf("tuple streams differ") // keys can be megabytes; don't print
	}
	re := got.AppendTo(nil)
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encoding not byte-identical (%d vs %d bytes)", len(enc), len(re))
	}
	return got
}

func TestTrieSnapshotRoundTrip(t *testing.T) {
	layouts := map[string]*Policy{
		"auto":   nil,
		"uint":   UintLayout,
		"bitset": BitsetLayout,
	}
	for name, layout := range layouts {
		t.Run(name, func(t *testing.T) {
			// Binary relation, skewed.
			tr := buildTrie(randomTuples(20000, 2, 300, 1), nil, semiring.None, layout)
			roundTripTrie(t, tr)
			// Ternary annotated under SUM.
			tuples := randomTuples(5000, 3, 40, 2)
			anns := make([]float64, len(tuples))
			for i := range anns {
				anns[i] = float64(i%7) + 0.5
			}
			roundTripTrie(t, buildTrie(tuples, anns, semiring.Sum, layout))
			// Unary.
			roundTripTrie(t, buildTrie(randomTuples(999, 1, 5000, 3), nil, semiring.None, layout))
		})
	}
}

func TestTrieSnapshotScalarAndEmpty(t *testing.T) {
	roundTripTrie(t, NewScalar(42.5, semiring.Sum))
	roundTripTrie(t, NewScalar(0, semiring.Min))
	// Empty relation of arity 2.
	b := NewColumnarBuilder(2, semiring.None, nil)
	roundTripTrie(t, b.Build())
}

func TestTrieSnapshotRandomAccess(t *testing.T) {
	tuples := randomTuples(10000, 2, 500, 4)
	tr := buildTrie(tuples, nil, semiring.None, nil)
	got := roundTripTrie(t, tr)
	// Every original tuple must be reachable by trie descent.
	for _, tp := range tuples {
		child := got.Root.Child(tp[0])
		if child == nil || !child.Set.Contains(tp[1]) {
			t.Fatalf("tuple %v lost after round trip", tp)
		}
	}
}

func TestTrieSnapshotCorruption(t *testing.T) {
	tr := buildTrie(randomTuples(3000, 2, 100, 5), nil, semiring.None, nil)
	enc := tr.AppendTo(nil)
	// Truncations at every section boundary neighborhood must error, not
	// panic or alias garbage.
	for _, cut := range []int{0, 8, 15, 16, 17, 40, len(enc) / 2, len(enc) - 1} {
		if cut >= len(enc) {
			continue
		}
		if _, err := FromBuffers(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(enc))
		}
	}
}

func TestTrieColumns(t *testing.T) {
	tuples := randomTuples(8000, 3, 60, 6)
	anns := make([]float64, len(tuples))
	for i := range anns {
		anns[i] = float64(i % 13)
	}
	tr := buildTrie(tuples, anns, semiring.Sum, nil)

	cols, colAnns := tr.Columns(0)
	var wantCols [][]uint32
	var wantAnns []float64
	wantCols = make([][]uint32, tr.Arity)
	tr.ForEachTuple(func(tp []uint32, ann float64) {
		for i, v := range tp {
			wantCols[i] = append(wantCols[i], v)
		}
		wantAnns = append(wantAnns, ann)
	})
	for c := range cols {
		if len(cols[c]) != len(wantCols[c]) {
			t.Fatalf("column %d: %d rows, want %d", c, len(cols[c]), len(wantCols[c]))
		}
		for i := range cols[c] {
			if cols[c][i] != wantCols[c][i] {
				t.Fatalf("column %d row %d: %d want %d", c, i, cols[c][i], wantCols[c][i])
			}
		}
	}
	for i := range colAnns {
		if colAnns[i] != wantAnns[i] {
			t.Fatalf("ann %d: %g want %g", i, colAnns[i], wantAnns[i])
		}
	}

	// Limited extraction returns exactly the first max rows.
	max := 137
	lcols, lanns := tr.Columns(max)
	for c := range lcols {
		if len(lcols[c]) != max {
			t.Fatalf("limited column %d: %d rows, want %d", c, len(lcols[c]), max)
		}
		for i := 0; i < max; i++ {
			if lcols[c][i] != wantCols[c][i] {
				t.Fatalf("limited column %d row %d mismatch", c, i)
			}
		}
	}
	if len(lanns) != max {
		t.Fatalf("limited anns: %d want %d", len(lanns), max)
	}
}
