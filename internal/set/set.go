// Package set implements the skew-aware set layouts at the heart of the
// EmptyHeaded execution engine (§4 of the paper).
//
// A Set is an immutable, sorted collection of uint32 keys stored in one of
// three layouts:
//
//   - Uint: a sorted array of 32-bit unsigned integers (sparse data).
//   - Bitset: a single bit-vector spanning [base, base+64·len(words)),
//     the paper's range-sized bitset (block size = range of the set).
//   - Composite: a sequence of 256-value blocks, each stored sparse or
//     dense depending on the block's own density (the block-level layout
//     of §4.3 used in Table 4 and Figure 6). Only a pinned policy builds
//     it: the set-level optimizer, ChooseLayout, picks uint or bitset.
//
// The paper exploits 256-bit AVX registers; Go has no stable SIMD
// intrinsics, so dense operations here are word-parallel over uint64
// (64 lanes per op instead of 256 — same algorithmic shape, smaller
// constant; see docs/KERNELS.md).
package set

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Layout identifies the physical representation of a Set.
type Layout uint8

const (
	// Uint is the sorted 32-bit unsigned integer array layout.
	Uint Layout = iota
	// Bitset is the range-sized bit-vector layout.
	Bitset
	// Composite is the block-level hybrid layout (256-value blocks).
	Composite
)

// String returns the lower-case layout name used in the paper.
func (l Layout) String() string {
	switch l {
	case Uint:
		return "uint"
	case Bitset:
		return "bitset"
	case Composite:
		return "composite"
	}
	return fmt.Sprintf("Layout(%d)", uint8(l))
}

// BlockBits is the dense block width in bits. The paper defaults to 256
// (one AVX register); we keep the same block size, realized as four
// 64-bit words.
const BlockBits = 256

const blockWords = BlockBits / 64

// block is one 256-value aligned region of a Composite set.
// Values in a block lie in [id*BlockBits, (id+1)*BlockBits).
type block struct {
	id     uint32   // block index
	dense  bool     // true → words payload, false → sparse payload
	words  []uint64 // dense payload, blockWords words
	sparse []uint16 // sparse payload: value - id*BlockBits, sorted
}

func (b *block) card() int {
	if !b.dense {
		return len(b.sparse)
	}
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Set is an immutable sorted set of uint32 keys.
// The zero value is the empty set (Uint layout). The struct is 120 bytes,
// so the methods the loop nest calls per probe (Card, IsEmpty, Contains,
// Rank, RankNext, ForEach, ForEachUntil) and the decodes (Values,
// AppendValues, Slice, Words) take pointer receivers: callers hold a *Set
// into the trie node instead of copying it (docs/KERNELS.md, "Calling
// convention").
type Set struct {
	layout Layout
	card   int

	// Uint layout.
	data []uint32

	// Bitset layout: bit i of words[i/64] set ⇔ base+i is a member.
	// base is a multiple of 64. cum[w] is the number of members strictly
	// before word w (used for O(1) rank during ordered iteration and
	// O(1) random-access rank).
	base  uint32
	words []uint64
	cum   []uint32

	// Composite layout.
	blocks []block
}

// Empty returns the empty set.
func Empty() Set { return Set{} }

// FromSorted builds a Uint-layout set from a strictly increasing slice.
// The slice is retained; callers must not modify it afterwards.
func FromSorted(vals []uint32) Set {
	if len(vals) == 0 {
		return Set{}
	}
	return Set{layout: Uint, card: len(vals), data: vals}
}

// FromUnsorted copies, sorts and deduplicates vals into a Uint-layout set.
func FromUnsorted(vals []uint32) Set {
	if len(vals) == 0 {
		return Set{}
	}
	cp := make([]uint32, len(vals))
	copy(cp, vals)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:1]
	for _, v := range cp[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return FromSorted(out)
}

// NewBitset builds a Bitset-layout set from a strictly increasing slice.
func NewBitset(vals []uint32) Set {
	if len(vals) == 0 {
		return Set{}
	}
	base := vals[0] &^ 63
	span := vals[len(vals)-1] - base + 1
	nw := int((span + 63) / 64)
	words := make([]uint64, nw)
	for _, v := range vals {
		off := v - base
		words[off/64] |= 1 << (off % 64)
	}
	s := Set{layout: Bitset, card: len(vals), base: base, words: words}
	s.buildCum()
	return s
}

// setBitsetWords wraps raw words (base must be 64-aligned) into s, which
// must be the zero Set.
func (s *Set) setBitsetWords(base uint32, words []uint64) {
	// Trim leading/trailing zero words so range reflects actual content.
	lo := 0
	for lo < len(words) && words[lo] == 0 {
		lo++
	}
	if lo == len(words) {
		return
	}
	hi := len(words)
	for words[hi-1] == 0 {
		hi--
	}
	// cum stays nil: intersection results are usually only iterated, and
	// Rank falls back to a word scan when cum is absent. Stored sets
	// (NewBitset) build cum eagerly.
	s.layout, s.base, s.words = Bitset, base+uint32(lo*64), words[lo:hi]
	for _, w := range s.words {
		s.card += bits.OnesCount64(w)
	}
}

func (s *Set) buildCum() {
	s.cum = make([]uint32, len(s.words))
	n := uint32(0)
	for i, w := range s.words {
		s.cum[i] = n
		n += uint32(bits.OnesCount64(w))
	}
}

// denseBlockThreshold is the per-block cardinality above which a Composite
// block is stored dense: a dense block costs 32 bytes, a sparse block costs
// 2 bytes per element, so 16 elements is the break-even point.
const denseBlockThreshold = 16

// NewComposite builds a Composite-layout set from a strictly increasing
// slice, choosing sparse or dense per 256-value block.
func NewComposite(vals []uint32) Set {
	if len(vals) == 0 {
		return Set{}
	}
	var blocks []block
	i := 0
	for i < len(vals) {
		id := vals[i] / BlockBits
		j := i
		for j < len(vals) && vals[j]/BlockBits == id {
			j++
		}
		n := j - i
		b := block{id: id}
		if n >= denseBlockThreshold {
			b.dense = true
			b.words = make([]uint64, blockWords)
			for _, v := range vals[i:j] {
				off := v - id*BlockBits
				b.words[off/64] |= 1 << (off % 64)
			}
		} else {
			b.sparse = make([]uint16, n)
			for k, v := range vals[i:j] {
				b.sparse[k] = uint16(v - id*BlockBits)
			}
		}
		blocks = append(blocks, b)
		i = j
	}
	return Set{layout: Composite, card: len(vals), blocks: blocks}
}

// BitsetCostRatio is the set-level optimizer threshold (§4.4): the bitset
// layout is selected when every member costs at most one SIMD register of
// bits, i.e. range(set) ≤ BitsetCostRatio × |set|.
const BitsetCostRatio = BlockBits

// minBitsetCard avoids pathological tiny bitsets.
const minBitsetCard = 4

// ChooseLayout implements the set-level layout optimizer (§4.4):
// bitset when the whole range is at most BlockBits bits per element,
// uint otherwise. The composite layout is never chosen here; it is built
// only when a policy pins it (trie.CompositeLayout).
func ChooseLayout(vals []uint32) Layout {
	n := len(vals)
	if n < minBitsetCard {
		return Uint
	}
	rng := uint64(vals[n-1]) - uint64(vals[0]) + 1
	if rng <= uint64(n)*BitsetCostRatio {
		return Bitset
	}
	return Uint
}

// BuildAuto builds a set from a strictly increasing slice using the
// set-level layout optimizer.
func BuildAuto(vals []uint32) Set {
	return BuildLayout(vals, ChooseLayout(vals))
}

// BuildLayout builds a set from a strictly increasing slice with an
// explicit layout (used by the relation-level and oracle optimizers).
func BuildLayout(vals []uint32, l Layout) Set {
	switch l {
	case Bitset:
		return NewBitset(vals)
	case Composite:
		return NewComposite(vals)
	default:
		return FromSorted(vals)
	}
}

// Layout reports the physical layout of s.
func (s Set) Layout() Layout { return s.layout }

// Card reports the number of members.
func (s *Set) Card() int { return s.card }

// IsEmpty reports whether the set has no members.
func (s *Set) IsEmpty() bool { return s.card == 0 }

// Min returns the smallest member. It panics on the empty set.
func (s Set) Min() uint32 {
	switch s.layout {
	case Uint:
		return s.data[0]
	case Bitset:
		for i, w := range s.words {
			if w != 0 {
				return s.base + uint32(i*64+bits.TrailingZeros64(w))
			}
		}
	case Composite:
		b := &s.blocks[0]
		if b.dense {
			for i, w := range b.words {
				if w != 0 {
					return b.id*BlockBits + uint32(i*64+bits.TrailingZeros64(w))
				}
			}
		}
		return b.id*BlockBits + uint32(b.sparse[0])
	}
	panic("set: Min of empty set")
}

// Max returns the largest member. It panics on the empty set.
func (s Set) Max() uint32 {
	switch s.layout {
	case Uint:
		return s.data[len(s.data)-1]
	case Bitset:
		for i := len(s.words) - 1; i >= 0; i-- {
			if w := s.words[i]; w != 0 {
				return s.base + uint32(i*64+63-bits.LeadingZeros64(w))
			}
		}
	case Composite:
		b := &s.blocks[len(s.blocks)-1]
		if b.dense {
			for i := len(b.words) - 1; i >= 0; i-- {
				if w := b.words[i]; w != 0 {
					return b.id*BlockBits + uint32(i*64+63-bits.LeadingZeros64(w))
				}
			}
		}
		return b.id*BlockBits + uint32(b.sparse[len(b.sparse)-1])
	}
	panic("set: Max of empty set")
}

// Contains reports whether v is a member.
func (s *Set) Contains(v uint32) bool {
	_, ok := s.Rank(v)
	return ok
}

// RankNext is Rank for callers probing ascending values: hint must be a
// lower bound on v's rank (e.g. the rank returned by the previous, smaller
// probe). Uint sets gallop from the hint, making a monotone probe sequence
// amortized O(1) per probe — the trie-descent fast path of the generated
// loop nests.
func (s *Set) RankNext(v uint32, hint int) (int, bool) {
	if s.layout == Uint {
		if hint < 0 {
			hint = 0
		}
		i := gallopSearch(s.data, hint, v)
		return i, i < len(s.data) && s.data[i] == v
	}
	return s.Rank(v)
}

// Rank returns the index of v in sorted order and whether v is a member.
func (s *Set) Rank(v uint32) (int, bool) {
	switch s.layout {
	case Uint:
		return slices.BinarySearch(s.data, v)
	case Bitset:
		if v < s.base {
			return 0, false
		}
		off := v - s.base
		w := int(off / 64)
		if w >= len(s.words) {
			return s.card, false
		}
		b := uint(off % 64)
		var prefix int
		if s.cum != nil {
			prefix = int(s.cum[w])
		} else {
			// cum is built for stored sets; transient intersection
			// results scan (rank on them is rare).
			for i := 0; i < w; i++ {
				prefix += bits.OnesCount64(s.words[i])
			}
		}
		before := prefix + bits.OnesCount64(s.words[w]&((1<<b)-1))
		if s.words[w]&(1<<b) != 0 {
			return before, true
		}
		return before, false
	case Composite:
		id := v / BlockBits
		// Binary search the block (blocks are sorted by id), then sum the
		// cardinalities of the blocks before it.
		bi := s.searchBlock(id)
		rank := 0
		for i := 0; i < bi; i++ {
			rank += s.blocks[i].card()
		}
		if bi == len(s.blocks) || s.blocks[bi].id != id {
			return rank, false
		}
		b := &s.blocks[bi]
		off := v - id*BlockBits
		if b.dense {
			w := off / 64
			bit := uint(off % 64)
			for j := uint32(0); j < w; j++ {
				rank += bits.OnesCount64(b.words[j])
			}
			rank += bits.OnesCount64(b.words[w] & ((1 << bit) - 1))
			return rank, b.words[w]&(1<<bit) != 0
		}
		k, ok := slices.BinarySearch(b.sparse, uint16(off))
		return rank + k, ok
	}
	return 0, false
}

// containsOnly is Contains without rank computation (fast membership for
// Composite, where rank needs a prefix scan).
func (s *Set) containsOnly(v uint32) bool {
	if s.layout != Composite {
		_, ok := s.Rank(v)
		return ok
	}
	id := v / BlockBits
	bi := s.searchBlock(id)
	if bi == len(s.blocks) || s.blocks[bi].id != id {
		return false
	}
	b := &s.blocks[bi]
	off := v - id*BlockBits
	if b.dense {
		return b.words[off/64]&(1<<(off%64)) != 0
	}
	_, ok := slices.BinarySearch(b.sparse, uint16(off))
	return ok
}

// searchBlock returns the index of the first block with an id >= id
// (len(s.blocks) if none): slices.BinarySearch over the block ids, and
// like it — unlike sort.Search — without a closure call per step on the
// probe path (preDescend, trie.Node.Child, bitset-side probes).
func (s *Set) searchBlock(id uint32) int {
	lo, hi := 0, len(s.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.blocks[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ForEach calls f for each member in increasing order with its rank.
func (s *Set) ForEach(f func(i int, v uint32)) {
	s.ForEachUntil(func(i int, v uint32) bool { f(i, v); return true })
}

// ForEachUntil calls f for each member in increasing order with its rank,
// stopping early if f returns false.
func (s *Set) ForEachUntil(f func(i int, v uint32) bool) {
	switch s.layout {
	case Uint:
		for i, v := range s.data {
			if !f(i, v) {
				return
			}
		}
	case Bitset:
		i := 0
		for wi, w := range s.words {
			vbase := s.base + uint32(wi*64)
			for w != 0 {
				t := bits.TrailingZeros64(w)
				if !f(i, vbase+uint32(t)) {
					return
				}
				i++
				w &= w - 1
			}
		}
	case Composite:
		i := 0
		for bi := range s.blocks {
			b := &s.blocks[bi]
			vbase := b.id * BlockBits
			if b.dense {
				for wi, w := range b.words {
					wb := vbase + uint32(wi*64)
					for w != 0 {
						t := bits.TrailingZeros64(w)
						if !f(i, wb+uint32(t)) {
							return
						}
						i++
						w &= w - 1
					}
				}
			} else {
				for _, o := range b.sparse {
					if !f(i, vbase+uint32(o)) {
						return
					}
					i++
				}
			}
		}
	}
}

// Values returns the members in increasing order for a flat loop over
// them: a uint set's own array (aliased, so read-only), any other layout
// decoded into *scratch, which grows as needed and is kept by the caller.
func (s *Set) Values(scratch *[]uint32) []uint32 {
	if s.layout == Uint {
		return s.data
	}
	*scratch = s.AppendValues((*scratch)[:0], 0)
	return *scratch
}

// Words returns a bitset's base and words for a kernel that loops over
// them, read-only; words is nil for any other layout.
func (s *Set) Words() (base uint32, words []uint64) {
	if s.layout != Bitset {
		return 0, nil
	}
	return s.base, s.words
}

// Slice decodes the set into a freshly allocated sorted slice.
func (s *Set) Slice() []uint32 {
	return s.AppendValues(make([]uint32, 0, s.card), 0)
}

// MemBytes estimates the payload memory footprint of the set in bytes.
// It is the quantity the layout optimizers trade off against access cost.
func (s Set) MemBytes() int {
	switch s.layout {
	case Uint:
		return 4 * len(s.data)
	case Bitset:
		return 8*len(s.words) + 4*len(s.cum)
	case Composite:
		n := 0
		for i := range s.blocks {
			b := &s.blocks[i]
			n += 4 // block header
			if b.dense {
				n += 8 * len(b.words)
			} else {
				n += 2 * len(b.sparse)
			}
		}
		return n
	}
	return 0
}

// String renders a short debug form.
func (s Set) String() string {
	if s.card <= 16 {
		return fmt.Sprintf("%s%v", s.layout, s.Slice())
	}
	return fmt.Sprintf("%s(card=%d,[%d..%d])", s.layout, s.card, s.Min(), s.Max())
}

// Equal reports whether two sets have identical members (layouts may differ).
func Equal(a, b Set) bool {
	if a.card != b.card {
		return false
	}
	eq := true
	av := a.Slice()
	b.ForEachUntil(func(i int, v uint32) bool {
		if av[i] != v {
			eq = false
			return false
		}
		return true
	})
	return eq
}
