package set

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func refIntersect(a, b []uint32) []uint32 {
	m := make(map[uint32]bool, len(a))
	for _, v := range a {
		m[v] = true
	}
	var out []uint32
	for _, v := range b {
		if m[v] {
			out = append(out, v)
		}
	}
	return sortedUnique(out)
}

func sliceEq(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomSet(rng *rand.Rand, n, span int) []uint32 {
	if n > span {
		n = span
	}
	m := map[uint32]bool{}
	for len(m) < n {
		m[uint32(rng.Intn(span))] = true
	}
	var vals []uint32
	for v := range m {
		vals = append(vals, v)
	}
	return sortedUnique(vals)
}

// TestIntersectAllLayoutPairs checks a∩b across every layout combination
// against the map-based reference.
func TestIntersectAllLayoutPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		av := randomSet(rng, 1+rng.Intn(300), 1+rng.Intn(4000))
		bv := randomSet(rng, 1+rng.Intn(300), 1+rng.Intn(4000))
		want := refIntersect(av, bv)
		for _, sa := range allLayouts(av) {
			for _, sb := range allLayouts(bv) {
				got := Intersect(sa, sb)
				if !sliceEq(got.Slice(), want) {
					t.Fatalf("trial %d %s∩%s:\n got %v\nwant %v",
						trial, sa.Layout(), sb.Layout(), got.Slice(), want)
				}
				if n := IntersectCount(sa, sb); n != len(want) {
					t.Fatalf("trial %d %s∩%s count=%d want %d",
						trial, sa.Layout(), sb.Layout(), n, len(want))
				}
			}
		}
	}
}

// TestIntersectAlgorithmsAgree checks merge/shuffle/galloping give the same
// answer on uint inputs.
func TestIntersectAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	algos := []Algo{AlgoAuto, AlgoMerge, AlgoShuffle, AlgoGalloping}
	for trial := 0; trial < 40; trial++ {
		// Include heavy cardinality skew to exercise galloping.
		na := 1 + rng.Intn(20)
		nb := 1 + rng.Intn(3000)
		av := randomSet(rng, na, 10000)
		bv := randomSet(rng, nb, 10000)
		want := refIntersect(av, bv)
		sa, sb := FromSorted(av), FromSorted(bv)
		for _, algo := range algos {
			got := NewKernel(Config{Algo: algo}).Intersect(sa, sb)
			if !sliceEq(got.Slice(), want) {
				t.Fatalf("algo %s: got %v want %v", algo, got.Slice(), want)
			}
			if n := NewKernel(Config{Algo: algo}).Count(sa, sb); n != len(want) {
				t.Fatalf("algo %s: count %d want %d", algo, n, len(want))
			}
		}
	}
}

// TestBitByBitMatchesWordParallel validates the "-S" ablation path.
func TestBitByBitMatchesWordParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		av := randomSet(rng, 200, 2000)
		bv := randomSet(rng, 200, 2000)
		sa, sb := NewBitset(av), NewBitset(bv)
		fast := Intersect(sa, sb)
		slow := NewKernel(Config{BitByBit: true}).Intersect(sa, sb)
		if !Equal(fast, slow) {
			t.Fatalf("bit-by-bit mismatch: %v vs %v", fast.Slice(), slow.Slice())
		}
		if NewKernel(Config{BitByBit: true}).Count(sa, sb) != fast.Card() {
			t.Fatal("bit-by-bit count mismatch")
		}
	}
}

func TestIntersectEmpty(t *testing.T) {
	s := FromSorted([]uint32{1, 2, 3})
	if got := Intersect(s, Empty()); !got.IsEmpty() {
		t.Fatalf("s∩∅ = %v", got.Slice())
	}
	if got := Intersect(Empty(), s); !got.IsEmpty() {
		t.Fatalf("∅∩s = %v", got.Slice())
	}
	if IntersectCount(s, Empty()) != 0 {
		t.Fatal("count(s∩∅) != 0")
	}
}

func TestIntersectDisjointRanges(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	b := []uint32{1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007}
	for _, sa := range allLayouts(a) {
		for _, sb := range allLayouts(b) {
			if got := Intersect(sa, sb); !got.IsEmpty() {
				t.Fatalf("%s∩%s nonempty: %v", sa.Layout(), sb.Layout(), got.Slice())
			}
		}
	}
}

func TestIntersectResultLayouts(t *testing.T) {
	dense := make([]uint32, 512)
	for i := range dense {
		dense[i] = uint32(i)
	}
	bb := Intersect(NewBitset(dense), NewBitset(dense))
	if bb.Layout() != Bitset {
		t.Fatalf("bitset∩bitset layout = %s", bb.Layout())
	}
	ub := Intersect(FromSorted(dense), NewBitset(dense))
	if ub.Layout() != Uint {
		t.Fatalf("uint∩bitset layout = %s (paper stores it as uint)", ub.Layout())
	}
	cc := Intersect(NewComposite(dense), NewComposite(dense))
	if cc.Layout() != Composite {
		t.Fatalf("composite∩composite layout = %s", cc.Layout())
	}
}

// Property test: intersection is commutative, idempotent and bounded by
// the min cardinality across all layout pairings.
func TestQuickIntersectLaws(t *testing.T) {
	f := func(rawA, rawB []uint32) bool {
		av, bv := clampForLayouts(rawA), clampForLayouts(rawB)
		for _, sa := range allLayouts(av) {
			for _, sb := range allLayouts(bv) {
				ab := Intersect(sa, sb)
				ba := Intersect(sb, sa)
				if !Equal(ab, ba) {
					return false
				}
				if ab.Card() > sa.Card() || ab.Card() > sb.Card() {
					return false
				}
				// a∩a == a
				if !Equal(Intersect(sa, sa), sa) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGallopSearch(t *testing.T) {
	b := []uint32{2, 4, 6, 8, 10, 12, 14, 16, 100, 1000}
	cases := []struct {
		lo   int
		v    uint32
		want int
	}{
		{0, 0, 0}, {0, 2, 0}, {0, 3, 1}, {0, 16, 7}, {0, 17, 8},
		{0, 1000, 9}, {0, 1001, 10}, {5, 12, 5}, {5, 13, 6}, {9, 2000, 10},
	}
	for _, c := range cases {
		if got := gallopSearch(b, c.lo, c.v); got != c.want {
			t.Fatalf("gallopSearch(lo=%d,v=%d)=%d want %d", c.lo, c.v, got, c.want)
		}
	}
}
