package set

import "math/bits"

// merge3 computes (base \ del) ∪ ins as a sorted values slice — the
// per-level set operation of the delta-trie overlay merge: del carries
// tombstoned values, ins freshly inserted ones, and the result is the
// value set a query sees at that trie level. The returned slice is
// freshly allocated (except when it can alias one input wholesale) and
// safe to hand to BuildLayout. A bitset base takes the word-parallel
// path regardless of the overlay layouts.
func merge3(base, ins, del Set) []uint32 {
	if ins.card == 0 && del.card == 0 {
		return base.Slice()
	}
	if base.card == 0 {
		return ins.Slice()
	}
	if base.layout == Bitset {
		return merge3Bitset(base, ins, del)
	}
	b, i, d := base.Slice(), ins.Slice(), del.Slice()
	out := make([]uint32, 0, len(b)+len(i))
	bi, ii, di := 0, 0, 0
	for bi < len(b) || ii < len(i) {
		// Values present in ins always survive (ins ∩ del = ∅ by the
		// overlay invariant; even without it, insert-after-delete wins).
		if ii < len(i) && (bi >= len(b) || i[ii] <= b[bi]) {
			v := i[ii]
			ii++
			if bi < len(b) && b[bi] == v {
				bi++
			}
			out = append(out, v)
			continue
		}
		v := b[bi]
		bi++
		for di < len(d) && d[di] < v {
			di++
		}
		if di < len(d) && d[di] == v {
			continue // tombstoned
		}
		out = append(out, v)
	}
	return out
}

// merge3Bitset is the word-parallel merge3 for a bitset base: build the
// result bit-vector over the union span, clear tombstones (ANDNOT when
// del is also a bitset, per-bit otherwise), set inserts (OR when ins is
// a bitset), then decode. For a dense base with a small overlay this is
// O(words + |overlay|) instead of decoding the whole base through the
// three-way merge; clears happen before sets, so insert-after-delete
// wins even without the overlay disjointness invariant.
func merge3Bitset(base, ins, del Set) []uint32 {
	// Span arithmetic in uint64: members near 2^32 would wrap the
	// exclusive upper bound in 32 bits.
	lo64 := uint64(base.base)
	hi64 := uint64(base.base) + uint64(len(base.words))*64
	if ins.card > 0 {
		if m := uint64(ins.Min() &^ 63); m < lo64 {
			lo64 = m
		}
		if x := uint64(ins.Max())/64*64 + 64; x > hi64 {
			hi64 = x
		}
	}
	lo := uint32(lo64)
	words := make([]uint64, (hi64-lo64)/64)
	copy(words[(base.base-lo)/64:], base.words)
	if del.card > 0 {
		if del.layout == Bitset {
			dLo64 := uint64(del.base)
			from, to := dLo64, dLo64+uint64(len(del.words))*64
			if lo64 > from {
				from = lo64
			}
			if hi64 < to {
				to = hi64
			}
			for v := from; v < to; v += 64 {
				words[(v-lo64)/64] &^= del.words[(v-dLo64)/64]
			}
		} else {
			del.ForEach(func(_ int, v uint32) {
				if uint64(v) >= lo64 && uint64(v) < hi64 {
					words[(v-lo)/64] &^= 1 << ((v - lo) % 64)
				}
			})
		}
	}
	if ins.card > 0 {
		if ins.layout == Bitset {
			off := (ins.base - lo) / 64
			for i, w := range ins.words {
				words[off+uint32(i)] |= w
			}
		} else {
			ins.ForEach(func(_ int, v uint32) {
				words[(v-lo)/64] |= 1 << ((v - lo) % 64)
			})
		}
	}
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	out := make([]uint32, 0, n)
	for wi, w := range words {
		vbase := lo + uint32(wi*64)
		for w != 0 {
			out = append(out, vbase+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}
