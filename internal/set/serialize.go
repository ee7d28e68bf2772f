package set

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// Binary (de)serialization of the flat set state, used by the snapshot
// segments of internal/storage. Encodings are little-endian and 8-byte
// aligned so a decoder working over an mmap'd segment can alias the
// payload arrays ([]uint32 data, []uint64 words) directly into the page
// cache instead of copying them.
//
// Layout of one encoded set (offsets from the encoding start, which must
// itself be 8-byte aligned):
//
//	u32 layout tag | u32 cardinality
//	Uint (tag 0):   card × u32 values, padded to 8 bytes
//	Bitset (tag 1): u32 base | u32 nwords, nwords × u64 words,
//	                nwords × u32 cum, padded to 8 bytes
//	Composite (tag 3, native block form):
//	                u32 nblocks | u32 ndense
//	                nblocks × (u32 id | u32 info), info = 1<<31 for a
//	                  dense block, else the sparse length
//	                ndense × 4 u64 dense words (block order)
//	                total-sparse × u16 offsets, padded to 8 bytes
//
// The composite's wire tag is 3, not uint32(Composite) = 2: tag 2 is
// unassigned and decodes as an unknown tag, like any other.
//
// The empty set encodes as {Uint, 0}.

// compositeNativeTag is the wire tag of the block-form composite encoding.
const compositeNativeTag = 3

// blockDenseFlag marks a dense block in the native composite header.
const blockDenseFlag = 1 << 31

// AppendTo appends the binary encoding of s to dst and returns the
// extended slice. len(dst) must be a multiple of 8 (encodings are
// aligned back to back).
func (s Set) AppendTo(dst []byte) []byte {
	if len(dst)%8 != 0 {
		panic(fmt.Sprintf("set: AppendTo at misaligned offset %d", len(dst)))
	}
	if s.layout == Composite {
		dst = AppendUint32(dst, compositeNativeTag)
	} else {
		dst = AppendUint32(dst, uint32(s.layout))
	}
	dst = AppendUint32(dst, uint32(s.card))
	switch s.layout {
	case Uint:
		for _, v := range s.data {
			dst = AppendUint32(dst, v)
		}
	case Bitset:
		dst = AppendUint32(dst, s.base)
		dst = AppendUint32(dst, uint32(len(s.words)))
		for _, w := range s.words {
			dst = AppendUint64(dst, w)
		}
		cum := s.cum
		if cum == nil {
			// Transient (intersection-result) bitsets skip cum; stored
			// form always carries it so a restored set has O(1) rank.
			cum = make([]uint32, len(s.words))
			n := uint32(0)
			for i, w := range s.words {
				cum[i] = n
				n += uint32(bits.OnesCount64(w))
			}
		}
		for _, c := range cum {
			dst = AppendUint32(dst, c)
		}
	case Composite:
		ndense := 0
		for i := range s.blocks {
			if s.blocks[i].dense {
				ndense++
			}
		}
		dst = AppendUint32(dst, uint32(len(s.blocks)))
		dst = AppendUint32(dst, uint32(ndense))
		for i := range s.blocks {
			b := &s.blocks[i]
			dst = AppendUint32(dst, b.id)
			if b.dense {
				dst = AppendUint32(dst, blockDenseFlag)
			} else {
				dst = AppendUint32(dst, uint32(len(b.sparse)))
			}
		}
		for i := range s.blocks {
			if b := &s.blocks[i]; b.dense {
				for _, w := range b.words {
					dst = AppendUint64(dst, w)
				}
			}
		}
		for i := range s.blocks {
			if b := &s.blocks[i]; !b.dense {
				for _, o := range b.sparse {
					dst = append(dst, byte(o), byte(o>>8))
				}
			}
		}
	}
	return pad8(dst)
}

// EncodedSize returns the exact number of bytes AppendTo will emit for s.
func (s Set) EncodedSize() int {
	n := 8
	switch s.layout {
	case Uint:
		n += 4 * s.card
	case Bitset:
		n += 8 + 12*len(s.words)
	case Composite:
		n += 8 + 8*len(s.blocks)
		for i := range s.blocks {
			if b := &s.blocks[i]; b.dense {
				n += 8 * blockWords
			} else {
				n += 2 * len(b.sparse)
			}
		}
	}
	return align8(n)
}

// FromBuffers decodes one set from the front of b, returning the set and
// the number of bytes consumed. When b is 8-byte aligned (as mmap'd
// snapshot segments are), the decoded Uint data, Bitset words/cum and
// their derivatives alias b directly — zero copy; a misaligned buffer
// falls back to copying. The caller must keep b immutable and alive for
// the lifetime of the returned set.
func FromBuffers(b []byte) (Set, int, error) {
	if len(b) < 8 {
		return Set{}, 0, fmt.Errorf("set: truncated header (%d bytes)", len(b))
	}
	tag := binary.LittleEndian.Uint32(b)
	card := int(binary.LittleEndian.Uint32(b[4:]))
	if card < 0 {
		return Set{}, 0, fmt.Errorf("set: negative cardinality")
	}
	switch Layout(tag) {
	case Uint:
		size := align8(8 + 4*card)
		if len(b) < size {
			return Set{}, 0, fmt.Errorf("set: truncated uint payload (want %d bytes, have %d)", size, len(b))
		}
		if card == 0 {
			return Set{}, size, nil
		}
		data, err := aliasUint32s(b[8:], card)
		if err != nil {
			return Set{}, 0, err
		}
		return Set{layout: Uint, card: card, data: data}, size, nil
	case Bitset:
		if len(b) < 16 {
			return Set{}, 0, fmt.Errorf("set: truncated bitset header")
		}
		base := binary.LittleEndian.Uint32(b[8:])
		nw := int(binary.LittleEndian.Uint32(b[12:]))
		size := align8(16 + 12*nw)
		if nw < 0 || len(b) < size {
			return Set{}, 0, fmt.Errorf("set: truncated bitset payload (want %d bytes, have %d)", size, len(b))
		}
		words, err := aliasUint64s(b[16:], nw)
		if err != nil {
			return Set{}, 0, err
		}
		cum, err := aliasUint32s(b[16+8*nw:], nw)
		if err != nil {
			return Set{}, 0, err
		}
		return Set{layout: Bitset, card: card, base: base, words: words, cum: cum}, size, nil
	case Layout(compositeNativeTag):
		if len(b) < 16 {
			return Set{}, 0, fmt.Errorf("set: truncated composite header")
		}
		nb := int(binary.LittleEndian.Uint32(b[8:]))
		ndense := int(binary.LittleEndian.Uint32(b[12:]))
		if nb < 0 || ndense < 0 || ndense > nb || len(b) < 16+8*nb {
			return Set{}, 0, fmt.Errorf("set: truncated composite block headers (%d blocks, %d bytes)", nb, len(b))
		}
		nsparse, seenDense := 0, 0
		for k := 0; k < nb; k++ {
			info := binary.LittleEndian.Uint32(b[16+8*k+4:])
			if info&blockDenseFlag != 0 {
				seenDense++
			} else if int(info) > BlockBits {
				return Set{}, 0, fmt.Errorf("set: composite sparse block length %d exceeds block size", info)
			} else {
				nsparse += int(info)
			}
		}
		if seenDense != ndense {
			return Set{}, 0, fmt.Errorf("set: composite dense count mismatch (header %d, blocks %d)", ndense, seenDense)
		}
		wordsOff := 16 + 8*nb
		sparseOff := wordsOff + 8*blockWords*ndense
		size := align8(sparseOff + 2*nsparse)
		if len(b) < size {
			return Set{}, 0, fmt.Errorf("set: truncated composite payload (want %d bytes, have %d)", size, len(b))
		}
		denseWords, err := aliasUint64s(b[wordsOff:], blockWords*ndense)
		if err != nil {
			return Set{}, 0, err
		}
		sparseAll, err := aliasUint16s(b[sparseOff:], nsparse)
		if err != nil {
			return Set{}, 0, err
		}
		blocks := make([]block, nb)
		wi, si := 0, 0
		for k := 0; k < nb; k++ {
			id := binary.LittleEndian.Uint32(b[16+8*k:])
			info := binary.LittleEndian.Uint32(b[16+8*k+4:])
			if info&blockDenseFlag != 0 {
				blocks[k] = block{id: id, dense: true, words: denseWords[wi : wi+blockWords]}
				wi += blockWords
			} else {
				blocks[k] = block{id: id, sparse: sparseAll[si : si+int(info)]}
				si += int(info)
			}
		}
		return Set{layout: Composite, card: card, blocks: blocks}, size, nil
	}
	return Set{}, 0, fmt.Errorf("set: unknown layout tag %d", tag)
}

// AppendValues appends up to max members of s to dst in increasing order
// (max <= 0 means all) — the bulk decode used by columnar result
// rendering and flat loops. Uint sets copy their backing array directly,
// bitsets decode word by word.
func (s *Set) AppendValues(dst []uint32, max int) []uint32 {
	if max <= 0 || max > s.card {
		max = s.card
	}
	switch s.layout {
	case Uint:
		return append(dst, s.data[:max]...)
	case Bitset:
		dst = slices.Grow(dst, max)
		for wi, w := range s.words {
			vbase := s.base + uint32(wi*64)
			for ; w != 0; w &= w - 1 {
				if max == 0 {
					return dst
				}
				dst = append(dst, vbase+uint32(bits.TrailingZeros64(w)))
				max--
			}
		}
		return dst
	}
	n := 0
	s.ForEachUntil(func(_ int, v uint32) bool {
		dst = append(dst, v)
		n++
		return n < max
	})
	return dst
}

// align8 rounds n up to a multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// pad8 extends b with zero bytes to a multiple of 8.
func pad8(b []byte) []byte {
	for len(b)%8 != 0 {
		b = append(b, 0)
	}
	return b
}

// AppendUint32 appends v little-endian.
func AppendUint32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

// AppendUint64 appends v little-endian.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// aliasUint32s views the first 4n bytes of b as a []uint32 without
// copying; misaligned buffers (never produced by the snapshot reader,
// which maps segments at page granularity) fall back to a copy.
func aliasUint32s(b []byte, n int) ([]uint32, error) {
	if n == 0 {
		return nil, nil
	}
	if len(b) < 4*n {
		return nil, fmt.Errorf("set: buffer too short for %d uint32s", n)
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%4 != 0 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		return out, nil
	}
	return unsafe.Slice((*uint32)(p), n), nil
}

// aliasUint16s is aliasUint32s for []uint16 (composite sparse offsets).
func aliasUint16s(b []byte, n int) ([]uint16, error) {
	if n == 0 {
		return nil, nil
	}
	if len(b) < 2*n {
		return nil, fmt.Errorf("set: buffer too short for %d uint16s", n)
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%2 != 0 {
		out := make([]uint16, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint16(b[2*i:])
		}
		return out, nil
	}
	return unsafe.Slice((*uint16)(p), n), nil
}

// aliasUint64s is aliasUint32s for []uint64.
func aliasUint64s(b []byte, n int) ([]uint64, error) {
	if n == 0 {
		return nil, nil
	}
	if len(b) < 8*n {
		return nil, fmt.Errorf("set: buffer too short for %d uint64s", n)
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 != 0 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		return out, nil
	}
	return unsafe.Slice((*uint64)(p), n), nil
}

// AliasFloat64s views the first 8n bytes of b as a []float64 without
// copying (same contract as the uint aliases); used by the trie snapshot
// decoder for annotation columns.
func AliasFloat64s(b []byte, n int) ([]float64, error) {
	if n == 0 {
		return nil, nil
	}
	if len(b) < 8*n {
		return nil, fmt.Errorf("set: buffer too short for %d float64s", n)
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%8 != 0 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return out, nil
	}
	return unsafe.Slice((*float64)(p), n), nil
}

// AliasUint64s is the exported form of aliasUint64s for the trie snapshot
// decoder (node offset arrays).
func AliasUint64s(b []byte, n int) ([]uint64, error) { return aliasUint64s(b, n) }
