package set

import "math/bits"

// Algo selects a uint∩uint intersection algorithm (§4.2).
type Algo uint8

const (
	// AlgoAuto is the paper's hybrid: galloping when the cardinality
	// ratio exceeds GallopRatio (cardinality skew), shuffle otherwise.
	AlgoAuto Algo = iota
	// AlgoMerge is the textbook scalar two-pointer merge.
	AlgoMerge
	// AlgoShuffle is the block-skipping merge standing in for the SIMD
	// shuffling algorithm (compares 4 keys per step, branch-free inner
	// window).
	AlgoShuffle
	// AlgoGalloping is exponential search from the smaller set into the
	// larger one; it satisfies the min property.
	AlgoGalloping
)

func (a Algo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoMerge:
		return "merge"
	case AlgoShuffle:
		return "shuffle"
	case AlgoGalloping:
		return "galloping"
	}
	return "algo?"
}

// GallopRatio is the cardinality-skew threshold of the hybrid algorithm:
// the paper selects SIMD galloping when |larger| / |smaller| > 32.
const GallopRatio = 32

// Config parameterizes a Kernel (see NewKernel); the zero value is the
// full EmptyHeaded optimizer. The ablation flags reproduce the "-S",
// "-R" and "-RA" rows of Tables 8 and 11.
type Config struct {
	// Algo forces a specific uint∩uint algorithm. AlgoAuto applies the
	// hybrid cardinality-skew rule. Setting AlgoMerge reproduces the
	// "-A" (no algorithm optimization) ablations.
	Algo Algo
	// BitByBit disables data-parallel execution everywhere ("-S", no
	// SIMD): bitset words are processed one bit at a time and the
	// blocked shuffle merge degrades to the scalar merge. Layout and
	// algorithm *choices* (galloping on cardinality skew) are kept, as
	// in the paper's -S ablation.
	BitByBit bool
}

// --- uint ∩ uint ----------------------------------------------------------

// pickAlgo resolves the algorithm under cfg: the hybrid rule for
// AlgoAuto, then the "-S" degradation of the vectorized shuffle to the
// scalar merge.
func pickAlgo(a, b []uint32, cfg Config) Algo {
	algo := cfg.Algo
	if algo == AlgoAuto {
		la, lb := len(a), len(b)
		if la > lb {
			la, lb = lb, la
		}
		if la*GallopRatio < lb {
			algo = AlgoGalloping
		} else {
			algo = AlgoShuffle
		}
	}
	if cfg.BitByBit && algo == AlgoShuffle {
		algo = AlgoMerge
	}
	return algo
}

func intersectUintUint(a, b []uint32, algo Algo, out []uint32) []uint32 {
	switch algo {
	case AlgoGalloping:
		return intersectGalloping(a, b, out)
	case AlgoMerge:
		return intersectMerge(a, b, out)
	default:
		return intersectShuffle(a, b, out)
	}
}

func intersectCountUintUint(a, b []uint32, algo Algo) int {
	switch algo {
	case AlgoGalloping:
		return countGalloping(a, b)
	case AlgoMerge:
		return countMerge(a, b)
	default:
		return countShuffle(a, b)
	}
}

// intersectMerge is the scalar two-pointer merge intersection — the
// deliberately untouched "-RA" baseline and the oracle the differential
// fuzz tests compare every other kernel against.
func intersectMerge(a, b []uint32, out []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av == bv {
			out = append(out, av)
			i++
			j++
		} else if av < bv {
			i++
		} else {
			j++
		}
	}
	return out
}

func countMerge(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av == bv {
			n++
			i++
			j++
		} else if av < bv {
			i++
		} else {
			j++
		}
	}
	return n
}

// b2u is a branch-free bool→int conversion (the compiler emits SETcc,
// no jump); the branch-free merges advance both cursors with it so the
// hard-to-predict comparison never flushes the pipeline.
func b2u(b bool) int {
	if b {
		return 1
	}
	return 0
}

// intersectShuffle is the stand-in for the SIMD shuffling algorithm of
// Katsov/Schlegel et al.: it advances over the inputs in blocks of four
// keys, skipping whole blocks whose ranges cannot overlap, and merges
// overlapping blocks with a branch-free two-pointer loop (on equality
// both cursors advance via SETcc arithmetic instead of a branch). With
// 128-bit SSE registers the original compares 4×4 lanes per
// instruction; the block-skip plus branch-free window captures the same
// data-dependent fast path in portable Go.
func intersectShuffle(a, b []uint32, out []uint32) []uint32 {
	i, j := 0, 0
	la, lb := len(a), len(b)
	for i+4 <= la && j+4 <= lb {
		amax, bmax := a[i+3], b[j+3]
		if amax < b[j] { // disjoint: whole a-block below b-block
			i += 4
			continue
		}
		if bmax < a[i] { // disjoint: whole b-block below a-block
			j += 4
			continue
		}
		// Overlapping window: branch-free merge of the two blocks.
		ai, bj := i, j
		for ai < i+4 && bj < j+4 {
			av, bv := a[ai], b[bj]
			if av == bv {
				out = append(out, av)
			}
			ai += b2u(av <= bv)
			bj += b2u(bv <= av)
		}
		if amax <= bmax {
			i += 4
		}
		if bmax <= amax {
			j += 4
		}
	}
	// Branch-free scalar tail.
	for i < la && j < lb {
		av, bv := a[i], b[j]
		if av == bv {
			out = append(out, av)
		}
		i += b2u(av <= bv)
		j += b2u(bv <= av)
	}
	return out
}

func countShuffle(a, b []uint32) int {
	i, j, n := 0, 0, 0
	la, lb := len(a), len(b)
	for i+4 <= la && j+4 <= lb {
		amax, bmax := a[i+3], b[j+3]
		if amax < b[j] {
			i += 4
			continue
		}
		if bmax < a[i] {
			j += 4
			continue
		}
		ai, bj := i, j
		for ai < i+4 && bj < j+4 {
			av, bv := a[ai], b[bj]
			n += b2u(av == bv)
			ai += b2u(av <= bv)
			bj += b2u(bv <= av)
		}
		if amax <= bmax {
			i += 4
		}
		if bmax <= amax {
			j += 4
		}
	}
	for i < la && j < lb {
		av, bv := a[i], b[j]
		n += b2u(av == bv)
		i += b2u(av <= bv)
		j += b2u(bv <= av)
	}
	return n
}

// gallopSearch returns the smallest index k ≥ lo in b with b[k] ≥ v,
// using exponential (galloping) search.
func gallopSearch(b []uint32, lo int, v uint32) int {
	if lo >= len(b) || b[lo] >= v {
		return lo
	}
	step := 1
	hi := lo + 1
	for hi < len(b) && b[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(b) {
		hi = len(b)
	}
	// Binary search in (lo, hi].
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// intersectGalloping iterates the smaller input and gallops through the
// larger; its running time is O(|small| · log |large|), which satisfies
// the min property required for worst-case optimality (§2.1).
func intersectGalloping(a, b []uint32, out []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	j := 0
	for _, v := range a {
		j = gallopSearch(b, j, v)
		if j == len(b) {
			break
		}
		if b[j] == v {
			out = append(out, v)
			j++
		}
	}
	return out
}

func countGalloping(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	j, n := 0, 0
	for _, v := range a {
		j = gallopSearch(b, j, v)
		if j == len(b) {
			break
		}
		if b[j] == v {
			n++
			j++
		}
	}
	return n
}

// --- bitset ∩ bitset ------------------------------------------------------

func bitsetOverlap(a, b *Set) (base uint32, wa, wb []uint64, n int) {
	loA, loB := a.base, b.base
	base = loA
	if loB > base {
		base = loB
	}
	hiA := loA + uint32(len(a.words)*64)
	hiB := loB + uint32(len(b.words)*64)
	hi := hiA
	if hiB < hi {
		hi = hiB
	}
	if hi <= base {
		return 0, nil, nil, 0
	}
	n = int(hi-base) / 64
	wa = a.words[(base-loA)/64:]
	wb = b.words[(base-loB)/64:]
	return base, wa, wb, n
}

// bitByBitAnd is the "-S" ablation: per-bit processing, no word-level
// parallelism.
func bitByBitAnd(out, wa, wb []uint64, n int) {
	for i := 0; i < n; i++ {
		var w uint64
		x, y := wa[i], wb[i]
		for bit := 0; bit < 64; bit++ {
			m := uint64(1) << uint(bit)
			if x&m != 0 && y&m != 0 {
				w |= m
			}
		}
		out[i] = w
	}
}

func intersectCountBitsetBitset(a, b *Set, bitByBit bool) int {
	_, wa, wb, n := bitsetOverlap(a, b)
	c := 0
	if bitByBit {
		for i := 0; i < n; i++ {
			x, y := wa[i], wb[i]
			for bit := 0; bit < 64; bit++ {
				m := uint64(1) << uint(bit)
				if x&m != 0 && y&m != 0 {
					c++
				}
			}
		}
		return c
	}
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(wa[i] & wb[i])
	}
	return c
}

// --- uint ∩ bitset --------------------------------------------------------

// intersectUintBitset probes each uint key against the bitset words; the
// running time is bounded by the uint side, preserving the min property
// up to the block-size constant (§4.2).
func intersectUintBitset(a []uint32, b *Set, out []uint32) []uint32 {
	lo := b.base
	hi := lo + uint32(len(b.words)*64)
	// Skip uint values below the bitset range.
	i := gallopSearch(a, 0, lo)
	for ; i < len(a); i++ {
		v := a[i]
		if v >= hi {
			break
		}
		off := v - lo
		if b.words[off/64]&(1<<(off%64)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

func intersectCountUintBitset(a []uint32, b *Set) int {
	lo := b.base
	hi := lo + uint32(len(b.words)*64)
	n := 0
	i := gallopSearch(a, 0, lo)
	for ; i < len(a); i++ {
		v := a[i]
		if v >= hi {
			break
		}
		off := v - lo
		if b.words[off/64]&(1<<(off%64)) != 0 {
			n++
		}
	}
	return n
}

// --- composite ∩ composite ------------------------------------------------

// intersectCompositeComposite merges the block lists, intersecting
// aligned blocks word-parallel (dense·dense), by probe (sparse·dense)
// or by branch-free merge (sparse·sparse), appending values to out.
func intersectCompositeComposite(a, b *Set, out []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a.blocks) && j < len(b.blocks) {
		ba, bb := &a.blocks[i], &b.blocks[j]
		if ba.id < bb.id {
			i++
			continue
		}
		if bb.id < ba.id {
			j++
			continue
		}
		vbase := ba.id * BlockBits
		switch {
		case ba.dense && bb.dense:
			for w := 0; w < blockWords; w++ {
				m := ba.words[w] & bb.words[w]
				wb := vbase + uint32(w*64)
				for m != 0 {
					t := bits.TrailingZeros64(m)
					out = append(out, wb+uint32(t))
					m &= m - 1
				}
			}
		case ba.dense != bb.dense:
			sp, dn := ba, bb
			if ba.dense {
				sp, dn = bb, ba
			}
			for _, o := range sp.sparse {
				if dn.words[o/64]&(1<<(o%64)) != 0 {
					out = append(out, vbase+uint32(o))
				}
			}
		default: // both sparse
			x, y := ba.sparse, bb.sparse
			p, q := 0, 0
			for p < len(x) && q < len(y) {
				xv, yv := x[p], y[q]
				if xv == yv {
					out = append(out, vbase+uint32(xv))
				}
				p += b2u(xv <= yv)
				q += b2u(yv <= xv)
			}
		}
		i++
		j++
	}
	return out
}

// intersectCountCompositeComposite merges the block lists and counts per
// block without materialization (word-parallel on dense blocks).
func intersectCountCompositeComposite(a, b *Set) int {
	n := 0
	i, j := 0, 0
	for i < len(a.blocks) && j < len(b.blocks) {
		ba, bb := &a.blocks[i], &b.blocks[j]
		if ba.id < bb.id {
			i++
			continue
		}
		if bb.id < ba.id {
			j++
			continue
		}
		switch {
		case ba.dense && bb.dense:
			for w := 0; w < blockWords; w++ {
				n += bits.OnesCount64(ba.words[w] & bb.words[w])
			}
		case ba.dense != bb.dense:
			sp, dn := ba, bb
			if ba.dense {
				sp, dn = bb, ba
			}
			for _, o := range sp.sparse {
				if dn.words[o/64]&(1<<(o%64)) != 0 {
					n++
				}
			}
		default:
			x, y := ba.sparse, bb.sparse
			p, q := 0, 0
			for p < len(x) && q < len(y) {
				xv, yv := x[p], y[q]
				n += b2u(xv == yv)
				p += b2u(xv <= yv)
				q += b2u(yv <= xv)
			}
		}
		i++
		j++
	}
	return n
}
