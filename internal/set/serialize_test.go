package set

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"emptyheaded/internal/gen"
)

func roundTripSet(t *testing.T, s Set) Set {
	t.Helper()
	enc := s.AppendTo(nil)
	if len(enc) != s.EncodedSize() {
		t.Fatalf("EncodedSize=%d, encoded %d bytes", s.EncodedSize(), len(enc))
	}
	if len(enc)%8 != 0 {
		t.Fatalf("encoding not 8-byte padded: %d bytes", len(enc))
	}
	got, n, err := FromBuffers(enc)
	if err != nil {
		t.Fatalf("FromBuffers: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if !Equal(s, got) {
		t.Fatalf("round trip mismatch:\n in  %v\n out %v", s, got)
	}
	if got.Layout() != s.Layout() {
		t.Fatalf("layout changed: %v -> %v", s.Layout(), got.Layout())
	}
	// Re-encoding the decoded set must be byte-identical (snapshot →
	// restore → re-snapshot determinism).
	re := got.AppendTo(nil)
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encoding differs (%d vs %d bytes)", len(enc), len(re))
	}
	return got
}

func TestSetSerializeRoundTrip(t *testing.T) {
	// wide spans 2³¹ values: the interesting case for the offset-based
	// layouts, but a forced bitset of it is 256 MB of words. The bitset
	// leg gets wideBounded instead: a non-zero base and a span just under
	// 2²² bits, with members on both sides of word (64) and block (256)
	// boundaries.
	wide := []uint32{5, 1000, 2000, 1 << 20, 1<<31 + 3}
	const base = 1<<20 + 5
	wideBounded := []uint32{base, base + 58, base + 59, base + 250, base + 251, base + 1000, base + 1<<22 - 7}
	inputs := []struct {
		vals     []uint32
		noBitset bool
	}{
		{vals: nil},
		{vals: []uint32{7}},
		{vals: []uint32{0, 1, 2, 3, 63, 64, 65, 127, 128}},
		{vals: wide, noBitset: true},
		{vals: wideBounded},
		{vals: gen.UniformSet(500, 4096, 3)},  // dense-ish
		{vals: gen.UniformSet(300, 1<<24, 4)}, // sparse
		{vals: gen.DenseSparseSet(256, 64, 1<<22, 5)},
	}
	for _, in := range inputs {
		for _, layout := range []Layout{Uint, Bitset, Composite} {
			if len(in.vals) == 0 && layout != Uint {
				continue // empty set always stores as Uint
			}
			if layout == Bitset && in.noBitset {
				continue
			}
			roundTripSet(t, BuildLayout(in.vals, layout))
		}
		roundTripSet(t, BuildAuto(in.vals))
	}
}

func TestSetSerializeTransientBitset(t *testing.T) {
	// An intersection-result bitset has no cum array; the encoder must
	// synthesize it so the restored set ranks in O(1).
	a := NewBitset([]uint32{64, 65, 130, 200, 210, 260, 600})
	b := NewBitset([]uint32{64, 130, 131, 210, 600, 601})
	inter := Intersect(a, b)
	if inter.Layout() != Bitset {
		t.Skipf("intersection produced %v, wanted a transient bitset", inter.Layout())
	}
	got := roundTripSet(t, inter)
	if got.cum == nil {
		t.Fatal("restored bitset lacks cum array")
	}
	// inter = {64, 130, 210, 600}: 210 sits at rank 2.
	if r, ok := got.Rank(210); !ok || r != 2 {
		t.Fatalf("Rank(210)=%d,%v want 2,true", r, ok)
	}
}

func TestSetSerializeRankAndIter(t *testing.T) {
	vals := gen.UniformSet(2000, 6000, 9)
	for _, layout := range []Layout{Uint, Bitset, Composite} {
		s := BuildLayout(vals, layout)
		enc := s.AppendTo(nil)
		got, _, err := FromBuffers(enc)
		if err != nil {
			t.Fatalf("FromBuffers(%v): %v", layout, err)
		}
		for i, v := range vals {
			r, ok := got.Rank(v)
			if !ok || r != i {
				t.Fatalf("layout %v: Rank(%d)=%d,%v want %d,true", layout, v, r, ok, i)
			}
		}
		if got.Contains(vals[len(vals)-1] + 1) {
			t.Fatalf("layout %v: spurious member", layout)
		}
	}
}

func TestSetSerializeTruncated(t *testing.T) {
	s := BuildLayout(gen.UniformSet(100, 1000, 1), Bitset)
	enc := s.AppendTo(nil)
	for cut := 0; cut < len(enc); cut += 3 {
		if _, _, err := FromBuffers(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(enc))
		}
	}
	// Unknown layout tags; 2 is the in-memory Composite value, which no
	// writer emits (composites travel as tag 3).
	for _, tag := range []byte{0x7f, byte(Composite)} {
		bad := append([]byte(nil), enc...)
		bad[0] = tag
		if _, _, err := FromBuffers(bad); err == nil || !strings.Contains(err.Error(), "unknown layout tag") {
			t.Fatalf("layout tag %d: err = %v, want an unknown-tag error", tag, err)
		}
	}
}

func TestSetSerializeCompositeCorrupt(t *testing.T) {
	s := BuildLayout(gen.DenseSparseSet(256, 64, 1<<22, 12), Composite)
	enc := s.AppendTo(nil)
	for cut := 0; cut < len(enc); cut += 5 {
		if _, _, err := FromBuffers(enc[:cut]); err == nil {
			t.Fatalf("composite truncation at %d/%d bytes not detected", cut, len(enc))
		}
	}
	// Dense-count header inconsistent with the block headers.
	bad := append([]byte(nil), enc...)
	bad[12]++
	if _, _, err := FromBuffers(bad); err == nil {
		t.Fatal("dense count mismatch not detected")
	}
	// Sparse block length exceeding the block size.
	bad = append([]byte(nil), enc...)
	for k := 0; ; k++ {
		off := 16 + 8*k + 4
		if off+4 > len(bad) {
			t.Fatal("test set has no sparse block")
		}
		info := binary.LittleEndian.Uint32(bad[off:])
		if info&(1<<31) == 0 {
			binary.LittleEndian.PutUint32(bad[off:], 257)
			break
		}
	}
	if _, _, err := FromBuffers(bad); err == nil {
		t.Fatal("oversized sparse block not detected")
	}
}

func TestAppendValues(t *testing.T) {
	vals := gen.UniformSet(777, 5000, 2)
	for _, layout := range []Layout{Uint, Bitset, Composite} {
		s := BuildLayout(vals, layout)
		full := s.AppendValues(nil, 0)
		if len(full) != len(vals) {
			t.Fatalf("layout %v: %d values, want %d", layout, len(full), len(vals))
		}
		for i := range vals {
			if full[i] != vals[i] {
				t.Fatalf("layout %v: value %d = %d, want %d", layout, i, full[i], vals[i])
			}
		}
		head := s.AppendValues(nil, 10)
		if len(head) != 10 {
			t.Fatalf("layout %v: AppendValues(max=10) returned %d", layout, len(head))
		}
		// Appends, not overwrites.
		pre := []uint32{42}
		both := s.AppendValues(pre, 3)
		if len(both) != 4 || both[0] != 42 {
			t.Fatalf("layout %v: AppendValues clobbered prefix: %v", layout, both)
		}
	}
}
