// Trie snapshot (de)serialization: the flat on-disk form of a trie used
// by internal/storage segments. A trie serializes level by level in
// breadth-first order — per level a node-offset array plus a blob of
// back-to-back set encodings (see set.AppendTo), and for annotated tries
// one trailing annotation column aligned with the leaf sets. Everything
// is little-endian and 8-byte aligned, so a decoder handed an mmap'd
// segment aliases the set payloads and the annotation column directly
// into the page cache; only the node structs themselves are rebuilt.
//
// Because children of level-l nodes appear in order at level l+1, child
// pointers are implicit: node i's children are the next card(i) nodes of
// the following level. Decoding links them as subslices of one pointer
// array per level into one flat node array per level — no per-node
// arrays are allocated.
package trie

import (
	"encoding/binary"
	"fmt"
	"math"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
)

const annotatedFlag = 1

// AppendTo appends the binary snapshot encoding of t to dst and returns
// the extended slice. len(dst) must be a multiple of 8.
func (t *Trie) AppendTo(dst []byte) []byte {
	if len(dst)%8 != 0 {
		panic(fmt.Sprintf("trie: AppendTo at misaligned offset %d", len(dst)))
	}
	flags := uint32(0)
	if t.Annotated {
		flags |= annotatedFlag
	}
	dst = set.AppendUint32(dst, uint32(t.Arity))
	dst = set.AppendUint32(dst, flags)
	dst = set.AppendUint32(dst, uint32(t.Op))
	dst = set.AppendUint32(dst, 0) // reserved
	if t.Arity == 0 {
		return set.AppendUint64(dst, math.Float64bits(t.Scalar))
	}

	level := []*Node{t.Root}
	var leaves []*Node
	for l := 0; l < t.Arity; l++ {
		dst = set.AppendUint64(dst, uint64(len(level)))
		// Offsets into the blob, one per node plus the terminator.
		blobLen := 0
		for _, n := range level {
			blobLen += n.Set.EncodedSize()
		}
		dst = set.AppendUint64(dst, uint64(blobLen))
		off := uint64(0)
		for _, n := range level {
			dst = set.AppendUint64(dst, off)
			off += uint64(n.Set.EncodedSize())
		}
		dst = set.AppendUint64(dst, off)
		for _, n := range level {
			dst = n.Set.AppendTo(dst)
		}
		if l == t.Arity-1 {
			leaves = level
			break
		}
		var next []*Node
		for _, n := range level {
			next = append(next, n.Children...)
		}
		level = next
	}
	if t.Annotated {
		total := 0
		for _, n := range leaves {
			total += n.Set.Card()
		}
		dst = set.AppendUint64(dst, uint64(total))
		one := t.Op.One()
		for _, n := range leaves {
			if n.Ann != nil {
				for _, a := range n.Ann {
					dst = set.AppendUint64(dst, math.Float64bits(a))
				}
				continue
			}
			for i := 0; i < n.Set.Card(); i++ {
				dst = set.AppendUint64(dst, math.Float64bits(one))
			}
		}
	}
	return dst
}

// FromBuffers decodes a trie from its snapshot encoding. Set payloads and
// the annotation column alias data (zero copy when data is 8-byte
// aligned, as mmap'd segments are); the caller must keep data immutable
// and alive for the lifetime of the trie.
func FromBuffers(data []byte) (*Trie, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("trie: truncated header (%d bytes)", len(data))
	}
	arity := int(int32(binary.LittleEndian.Uint32(data)))
	flags := binary.LittleEndian.Uint32(data[4:])
	opv := binary.LittleEndian.Uint32(data[8:])
	if arity < 0 || arity > 64 {
		return nil, fmt.Errorf("trie: implausible arity %d", arity)
	}
	if opv > uint32(semiring.Max) {
		return nil, fmt.Errorf("trie: unknown semiring op %d", opv)
	}
	t := &Trie{
		Arity:     arity,
		Annotated: flags&annotatedFlag != 0,
		Op:        semiring.Op(opv),
	}
	pos := 16
	if arity == 0 {
		if len(data) < pos+8 {
			return nil, fmt.Errorf("trie: truncated scalar")
		}
		t.Scalar = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		return t, nil
	}

	levels := make([][]Node, arity)
	for l := 0; l < arity; l++ {
		if len(data) < pos+16 {
			return nil, fmt.Errorf("trie: truncated level %d header", l)
		}
		count := binary.LittleEndian.Uint64(data[pos:])
		blobLen := binary.LittleEndian.Uint64(data[pos+8:])
		pos += 16
		if count > uint64(len(data)) || blobLen > uint64(len(data)) {
			return nil, fmt.Errorf("trie: implausible level %d sizes (count=%d blob=%d)", l, count, blobLen)
		}
		n := int(count)
		offBytes := 8 * (n + 1)
		if len(data) < pos+offBytes {
			return nil, fmt.Errorf("trie: truncated level %d offsets", l)
		}
		offsets, err := set.AliasUint64s(data[pos:], n+1)
		if err != nil {
			return nil, err
		}
		pos += offBytes
		if len(data) < pos+int(blobLen) {
			return nil, fmt.Errorf("trie: truncated level %d blob (want %d bytes)", l, blobLen)
		}
		blob := data[pos : pos+int(blobLen)]
		pos += int(blobLen)
		if offsets[n] != blobLen {
			return nil, fmt.Errorf("trie: level %d offset terminator %d != blob length %d", l, offsets[n], blobLen)
		}
		nodes := make([]Node, n)
		for i := 0; i < n; i++ {
			lo, hi := offsets[i], offsets[i+1]
			if lo > hi || hi > blobLen {
				return nil, fmt.Errorf("trie: level %d node %d offsets out of order", l, i)
			}
			s, used, err := set.FromBuffers(blob[lo:hi])
			if err != nil {
				return nil, fmt.Errorf("trie: level %d node %d: %w", l, i, err)
			}
			if uint64(used) != hi-lo {
				return nil, fmt.Errorf("trie: level %d node %d: %d trailing bytes", l, i, hi-lo-uint64(used))
			}
			nodes[i].Set = s
		}
		levels[l] = nodes
	}

	// Link children: node i of level l owns the next card(i) nodes of
	// level l+1, as a subslice of one pointer array per level.
	for l := 0; l < arity-1; l++ {
		next := levels[l+1]
		ptrs := make([]*Node, len(next))
		for k := range next {
			ptrs[k] = &next[k]
		}
		childPos := 0
		for i := range levels[l] {
			card := levels[l][i].Set.Card()
			if childPos+card > len(next) {
				return nil, fmt.Errorf("trie: level %d has %d nodes, level %d needs %d", l+1, len(next), l, childPos+card)
			}
			levels[l][i].Children = ptrs[childPos : childPos+card : childPos+card]
			childPos += card
		}
		if childPos != len(next) {
			return nil, fmt.Errorf("trie: level %d has %d orphan nodes", l+1, len(next)-childPos)
		}
	}

	if t.Annotated {
		if len(data) < pos+8 {
			return nil, fmt.Errorf("trie: truncated annotation count")
		}
		total := int(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
		if total < 0 || len(data) < pos+8*total {
			return nil, fmt.Errorf("trie: truncated annotation column (want %d values)", total)
		}
		anns, err := set.AliasFloat64s(data[pos:], total)
		if err != nil {
			return nil, err
		}
		leafTotal := 0
		leaves := levels[arity-1]
		for i := range leaves {
			leafTotal += leaves[i].Set.Card()
		}
		if leafTotal != total {
			return nil, fmt.Errorf("trie: %d annotations for %d leaf values", total, leafTotal)
		}
		at := 0
		for i := range leaves {
			card := leaves[i].Set.Card()
			leaves[i].Ann = anns[at : at+card : at+card]
			at += card
		}
	}

	if len(levels[0]) != 1 {
		return nil, fmt.Errorf("trie: %d root nodes", len(levels[0]))
	}
	t.Root = &levels[0][0]
	return t, nil
}

// Columns materializes the first max tuples of the trie (max <= 0 means
// all) into flat per-attribute columns, plus the aligned annotation
// column for annotated tries. Leaf values bulk-copy out of the leaf sets
// (a straight copy for uint-layout leaves), which is what makes columnar
// result rendering cheaper than a per-tuple trie walk.
func (t *Trie) Columns(max int) ([][]uint32, []float64) {
	if t.Arity == 0 {
		return nil, nil
	}
	card := t.Cardinality()
	if max <= 0 || max > card {
		max = card
	}
	cols := make([][]uint32, t.Arity)
	for i := range cols {
		cols[i] = make([]uint32, 0, max)
	}
	var anns []float64
	if t.Annotated {
		anns = make([]float64, 0, max)
	}
	cw := &colWriter{t: t, cols: cols, anns: anns, remaining: max}
	cw.fill(t.Root, 0)
	return cw.cols, cw.anns
}

type colWriter struct {
	t         *Trie
	cols      [][]uint32
	anns      []float64
	remaining int
}

// fill appends up to cw.remaining rows of the subtree at n (level) and
// returns the number appended.
func (cw *colWriter) fill(n *Node, level int) int {
	if n == nil || cw.remaining == 0 {
		return 0
	}
	if level == cw.t.Arity-1 {
		k := n.Set.Card()
		if k > cw.remaining {
			k = cw.remaining
		}
		cw.cols[level] = n.Set.AppendValues(cw.cols[level], k)
		if cw.t.Annotated {
			if n.Ann != nil {
				cw.anns = append(cw.anns, n.Ann[:k]...)
			} else {
				one := cw.t.Op.One()
				for i := 0; i < k; i++ {
					cw.anns = append(cw.anns, one)
				}
			}
		}
		cw.remaining -= k
		return k
	}
	produced := 0
	col := cw.cols[level]
	n.Set.ForEachUntil(func(i int, v uint32) bool {
		k := cw.fill(n.Children[i], level+1)
		for j := 0; j < k; j++ {
			col = append(col, v)
		}
		produced += k
		return cw.remaining > 0
	})
	cw.cols[level] = col
	return produced
}
