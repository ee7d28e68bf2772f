package set

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func sortedUnique(vals []uint32) []uint32 {
	if len(vals) == 0 {
		return nil
	}
	cp := append([]uint32(nil), vals...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:1]
	for _, v := range cp[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// clampForLayouts bounds quick-generated values: a bitset over the raw
// uint32 range would allocate range/8 bytes, so property tests restrict
// the universe to 22 bits.
func clampForLayouts(vals []uint32) []uint32 {
	cp := make([]uint32, len(vals))
	for i, v := range vals {
		cp[i] = v & ((1 << 22) - 1)
	}
	return sortedUnique(cp)
}

func allLayouts(vals []uint32) []Set {
	return []Set{
		FromSorted(vals),
		NewBitset(vals),
		NewComposite(vals),
	}
}

func TestEmptySet(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() || e.Card() != 0 {
		t.Fatalf("empty set: card=%d", e.Card())
	}
	if e.Contains(0) || e.Contains(42) {
		t.Fatal("empty set contains elements")
	}
	if got := e.Slice(); len(got) != 0 {
		t.Fatalf("empty slice = %v", got)
	}
}

func TestLayoutsAgreeOnBasics(t *testing.T) {
	vals := []uint32{0, 1, 7, 63, 64, 65, 255, 256, 300, 1000, 4095, 4096, 70000}
	for _, s := range allLayouts(vals) {
		t.Run(s.Layout().String(), func(t *testing.T) {
			if s.Card() != len(vals) {
				t.Fatalf("card=%d want %d", s.Card(), len(vals))
			}
			if s.Min() != 0 || s.Max() != 70000 {
				t.Fatalf("min/max = %d/%d", s.Min(), s.Max())
			}
			for i, v := range vals {
				r, ok := s.Rank(v)
				if !ok || r != i {
					t.Fatalf("Rank(%d)=(%d,%v) want (%d,true)", v, r, ok, i)
				}
				if !s.Contains(v) {
					t.Fatalf("missing %d", v)
				}
			}
			for _, v := range []uint32{2, 62, 66, 257, 4097, 99999} {
				if s.Contains(v) {
					t.Fatalf("spurious %d", v)
				}
			}
			got := s.Slice()
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("Slice mismatch at %d: %d vs %d", i, got[i], vals[i])
				}
			}
		})
	}
}

func TestForEachRanks(t *testing.T) {
	vals := []uint32{3, 64, 128, 129, 1000}
	for _, s := range allLayouts(vals) {
		i := 0
		s.ForEach(func(rank int, v uint32) {
			if rank != i {
				t.Fatalf("%s: rank %d want %d", s.Layout(), rank, i)
			}
			if v != vals[i] {
				t.Fatalf("%s: val %d want %d", s.Layout(), v, vals[i])
			}
			i++
		})
		if i != len(vals) {
			t.Fatalf("%s: visited %d of %d", s.Layout(), i, len(vals))
		}
	}
}

func TestForEachUntilStops(t *testing.T) {
	vals := []uint32{1, 2, 3, 4, 5, 6, 7, 8}
	for _, s := range allLayouts(vals) {
		n := 0
		s.ForEachUntil(func(_ int, _ uint32) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Fatalf("%s: visited %d want 3", s.Layout(), n)
		}
	}
}

func TestChooseLayout(t *testing.T) {
	// Dense: range == card → bitset.
	dense := make([]uint32, 1000)
	for i := range dense {
		dense[i] = uint32(i)
	}
	if got := ChooseLayout(dense); got != Bitset {
		t.Fatalf("dense → %s, want bitset", got)
	}
	// Sparse: range = 10^6 × card → uint.
	sparse := []uint32{0, 1e6, 2e6, 3e6, 4e6, 5e6}
	if got := ChooseLayout(sparse); got != Uint {
		t.Fatalf("sparse → %s, want uint", got)
	}
	// Tiny sets stay uint regardless of density.
	if got := ChooseLayout([]uint32{1, 2}); got != Uint {
		t.Fatalf("tiny → %s, want uint", got)
	}
	// Exactly at the threshold: range = 256·card → bitset.
	border := []uint32{0, 255, 511, 1023} // card 4, range 1024 = 4·256
	if got := ChooseLayout(border); got != Bitset {
		t.Fatalf("border → %s, want bitset", got)
	}
}

func TestBitsetRankAcrossWords(t *testing.T) {
	// Values spread over many words exercise the cum[] prefix table.
	var vals []uint32
	for i := uint32(0); i < 100; i++ {
		vals = append(vals, i*97)
	}
	s := NewBitset(vals)
	for i, v := range vals {
		r, ok := s.Rank(v)
		if !ok || r != i {
			t.Fatalf("Rank(%d)=(%d,%v) want (%d,true)", v, r, ok, i)
		}
	}
	if _, ok := s.Rank(1); ok {
		t.Fatal("Rank(1) should be absent")
	}
}

func TestMemBytes(t *testing.T) {
	dense := make([]uint32, 256)
	for i := range dense {
		dense[i] = uint32(i)
	}
	u := FromSorted(dense)
	b := NewBitset(dense)
	if u.MemBytes() != 1024 {
		t.Fatalf("uint mem=%d want 1024", u.MemBytes())
	}
	if b.MemBytes() >= u.MemBytes() {
		t.Fatalf("bitset (%dB) should beat uint (%dB) on dense data",
			b.MemBytes(), u.MemBytes())
	}
}

func TestEqualAcrossLayouts(t *testing.T) {
	vals := []uint32{10, 20, 30, 400, 5000}
	ls := allLayouts(vals)
	for _, a := range ls {
		for _, b := range ls {
			if !Equal(a, b) {
				t.Fatalf("Equal(%s,%s)=false", a.Layout(), b.Layout())
			}
		}
	}
	other := FromSorted([]uint32{10, 20, 30, 400, 5001})
	if Equal(ls[0], other) {
		t.Fatal("Equal on different sets")
	}
}

// Property: every layout round-trips arbitrary value sets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		vals := clampForLayouts(raw)
		for _, s := range allLayouts(vals) {
			got := s.Slice()
			if len(got) != len(vals) {
				return false
			}
			for i := range vals {
				if got[i] != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Contains agrees with a map across layouts.
func TestQuickContains(t *testing.T) {
	f := func(raw []uint32, probes []uint32) bool {
		vals := clampForLayouts(raw)
		ref := make(map[uint32]bool, len(vals))
		for _, v := range vals {
			ref[v] = true
		}
		for _, s := range allLayouts(vals) {
			for _, p := range probes {
				if s.Contains(p) != ref[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAutoMatchesChooseLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		span := 1 + rng.Intn(1<<20)
		m := map[uint32]bool{}
		for len(m) < n {
			m[uint32(rng.Intn(span))] = true
		}
		var vals []uint32
		for v := range m {
			vals = append(vals, v)
		}
		vals = sortedUnique(vals)
		s := BuildAuto(vals)
		if s.Layout() != ChooseLayout(vals) {
			t.Fatalf("BuildAuto layout %s != ChooseLayout %s", s.Layout(), ChooseLayout(vals))
		}
		if !Equal(s, FromSorted(vals)) {
			t.Fatal("BuildAuto lost values")
		}
	}
}
