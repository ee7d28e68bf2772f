package trie

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"emptyheaded/internal/semiring"
)

// ColumnarBuilder materializes a Trie from flat per-attribute columns.
// It is the engine's zero-copy materialization path: workers emit output
// tuples column-wise (one append per attribute, no per-row allocation),
// the columns are handed over without transposition, rows are ordered
// with a parallel MSD radix sort over an index permutation (no comparison
// closures), duplicates are folded in place under ⊕, and trie nodes are
// built level by level from column runs — leaf sets and annotation slices
// alias the sorted columns directly.
type ColumnarBuilder struct {
	arity     int
	op        semiring.Op
	layout    *Policy
	annotated bool
	cols      [][]uint32
	anns      []float64
}

// NewColumnarBuilder returns a columnar builder for relations of the
// given arity. op governs how duplicate-tuple annotations combine; layout
// picks per-set layouts (nil means the set-level optimizer).
func NewColumnarBuilder(arity int, op semiring.Op, layout *Policy) *ColumnarBuilder {
	return &ColumnarBuilder{arity: arity, op: op, layout: layout, cols: make([][]uint32, arity)}
}

// Len returns the number of rows accumulated so far.
func (b *ColumnarBuilder) Len() int {
	if b.arity == 0 {
		return len(b.anns)
	}
	return len(b.cols[0])
}

// SetColumns hands complete columns to the builder zero-copy: cols[i]
// holds attribute i of every row, anns (nil for un-annotated relations)
// the per-row annotations. The builder takes ownership — Build sorts and
// compacts the slices in place, and the resulting trie aliases them.
func (b *ColumnarBuilder) SetColumns(cols [][]uint32, anns []float64) {
	if len(cols) != b.arity {
		panic(fmt.Sprintf("trie: SetColumns got %d columns, want %d", len(cols), b.arity))
	}
	n := -1
	for _, c := range cols {
		if n < 0 {
			n = len(c)
		} else if len(c) != n {
			panic(fmt.Sprintf("trie: ragged columns (%d vs %d rows)", len(c), n))
		}
	}
	if anns != nil && n >= 0 && len(anns) != n {
		panic(fmt.Sprintf("trie: %d annotations for %d rows", len(anns), n))
	}
	b.cols = cols
	b.anns = anns
	b.annotated = anns != nil
}

// AppendColumns appends column fragments (and optionally their
// annotations) to the builder — the bulk-load entry point for callers
// that accumulate output in chunks.
func (b *ColumnarBuilder) AppendColumns(cols [][]uint32, anns []float64) {
	if len(cols) != b.arity {
		panic(fmt.Sprintf("trie: AppendColumns got %d columns, want %d", len(cols), b.arity))
	}
	for i, c := range cols {
		b.cols[i] = append(b.cols[i], c...)
	}
	if anns != nil {
		b.annotated = true
		b.anns = append(b.anns, anns...)
	}
}

// Add appends one un-annotated tuple column-wise: no per-row allocation,
// just one amortized append per attribute.
func (b *ColumnarBuilder) Add(tuple ...uint32) {
	if len(tuple) != b.arity {
		panic(fmt.Sprintf("trie: Add arity %d, want %d", len(tuple), b.arity))
	}
	for i, v := range tuple {
		b.cols[i] = append(b.cols[i], v)
	}
}

// AddAnn appends one annotated tuple column-wise.
func (b *ColumnarBuilder) AddAnn(ann float64, tuple ...uint32) {
	if len(tuple) != b.arity {
		panic(fmt.Sprintf("trie: AddAnn arity %d, want %d", len(tuple), b.arity))
	}
	b.annotated = true
	for i, v := range tuple {
		b.cols[i] = append(b.cols[i], v)
	}
	b.anns = append(b.anns, ann)
}

// FromColumns builds a trie directly from flat columns (see SetColumns
// for the ownership contract).
func FromColumns(cols [][]uint32, anns []float64, op semiring.Op, layout *Policy) *Trie {
	b := NewColumnarBuilder(len(cols), op, layout)
	b.SetColumns(cols, anns)
	return b.Build()
}

// Build sorts, deduplicates (combining annotations under ⊕) and
// materializes the trie. The builder must not be reused afterwards.
// Columns already in lexicographic row order skip the sort entirely.
// Duplicates fold in input order: every pass of the sort is stable, so
// a tuple's annotations combine as ((a₁ ⊕ a₂) ⊕ a₃) … in the order they
// were added, which a float ⊕ such as SUM can tell apart.
func (b *ColumnarBuilder) Build() *Trie {
	n := b.Len()
	if b.annotated && len(b.anns) != n {
		panic("trie: mixed annotated and un-annotated tuples")
	}
	t := &Trie{Arity: b.arity, Annotated: b.annotated, Op: b.op, Policy: b.layout}
	if b.arity == 0 {
		t.Scalar = b.op.Zero()
		for _, a := range b.anns {
			t.Scalar = b.op.Add(t.Scalar, a)
		}
		return t
	}
	if !b.sortedPrefix(n) {
		b.sortColumns(n)
	}
	n = b.dedup(n)
	for i := range b.cols {
		b.cols[i] = b.cols[i][:n]
	}
	if b.annotated {
		b.anns = b.anns[:n]
	}
	t.Root = b.buildNode(0, 0, n, n >= parallelBuildMin)
	return t
}

// sortedPrefix reports whether rows [0,n) are already in lexicographic
// order (the natural emission order of sequential loop nests).
func (b *ColumnarBuilder) sortedPrefix(n int) bool {
	for i := 1; i < n; i++ {
		for _, col := range b.cols {
			if col[i] > col[i-1] {
				break
			}
			if col[i] < col[i-1] {
				return false
			}
		}
	}
	return true
}

const (
	// insertionMin is the segment size below which insertion sort beats
	// counting passes.
	insertionMin = 48
	// parallelSortMin is the row count below which the sort stays on one
	// goroutine.
	parallelSortMin = 4096
	// parallelBuildMin is the row count below which node construction
	// stays on one goroutine.
	parallelBuildMin = 1 << 16
)

// sortColumns orders the rows lexicographically. The sort runs over an
// index permutation: the first column is partitioned with a parallel MSD
// radix step on its most significant varying byte, each partition is
// finished (remaining bytes, then recursively the later columns) on its
// own goroutine, and finally every column plus the annotation column is
// gathered through the permutation in one sequential pass each. No
// comparison closures, no per-row allocations.
func (b *ColumnarBuilder) sortColumns(n int) {
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	tmp := make([]uint32, n)

	nw := runtime.GOMAXPROCS(0)
	if n < parallelSortMin || nw <= 1 {
		sortRuns(b.cols, idx, tmp, 0, n, 0)
	} else {
		b.parallelSort(idx, tmp, n, nw)
	}
	b.gather(idx, tmp, n, nw)
}

// parallelSort partitions idx by the most significant varying byte of
// column 0 (one histogram pass + one stable scatter), then hands the
// partitions to nw goroutines via an atomic work queue; each partition is
// sorted independently (disjoint idx/tmp segments).
func (b *ColumnarBuilder) parallelSort(idx, tmp []uint32, n, nw int) {
	col := b.cols[0]
	minV, maxV := col[idx[0]], col[idx[0]]
	for _, id := range idx[1:] {
		v := col[id]
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV == maxV {
		// Constant first column: a single run; recurse into the later
		// columns directly (their sort re-enters the same machinery for
		// large segments via sortRuns' radix passes).
		sortRuns(b.cols, idx, tmp, 0, n, 0)
		return
	}
	shift := topVaryingShift(minV ^ maxV)
	var count [256]int
	for _, id := range idx {
		count[(col[id]>>shift)&0xff]++
	}
	var starts [257]int
	sum := 0
	for d := 0; d < 256; d++ {
		starts[d] = sum
		sum += count[d]
	}
	starts[256] = sum
	pos := starts
	for _, id := range idx {
		d := (col[id] >> shift) & 0xff
		tmp[pos[d]] = id
		pos[d]++
	}
	copy(idx, tmp)

	// Finish each partition in parallel: sort the remaining (lower) bytes
	// of column 0, then recurse into the later columns per run of equal
	// values. Small partitions are batched behind one atomic counter so a
	// skewed byte histogram doesn't serialize the tail.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				d := int(next.Add(1)) - 1
				if d >= 256 {
					return
				}
				lo, hi := starts[d], starts[d+1]
				if hi-lo < 2 {
					continue
				}
				// Bytes above shift are constant within a partition;
				// sort the rest of the key, then the later columns.
				radixSortSegment(col, idx, tmp, lo, hi, shift)
				recurseRuns(b.cols, idx, tmp, lo, hi, 0)
			}
		}()
	}
	wg.Wait()
}

// topVaryingShift returns the bit shift of the most significant byte set
// in diff (diff != 0).
func topVaryingShift(diff uint32) uint {
	switch {
	case diff>>24 != 0:
		return 24
	case diff>>16 != 0:
		return 16
	case diff>>8 != 0:
		return 8
	default:
		return 0
	}
}

// gather applies the permutation to every column (reusing tmp for the
// first) and to the annotation column, splitting the work across columns.
func (b *ColumnarBuilder) gather(idx, tmp []uint32, n, nw int) {
	var wg sync.WaitGroup
	for c := range b.cols {
		col := b.cols[c]
		var out []uint32
		if c == 0 {
			out = tmp // recycle the sort scratch for the first column
		} else {
			out = make([]uint32, n)
		}
		b.cols[c] = out
		if n >= parallelSortMin && nw > 1 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, id := range idx {
					out[i] = col[id]
				}
			}()
		} else {
			for i, id := range idx {
				out[i] = col[id]
			}
		}
	}
	if b.annotated {
		anns := make([]float64, n)
		for i, id := range idx {
			anns[i] = b.anns[id]
		}
		b.anns = anns
	}
	wg.Wait()
}

// sortRuns sorts idx[lo:hi) by cols[level] and recurses into runs of
// equal values at the next column.
func sortRuns(cols [][]uint32, idx, tmp []uint32, lo, hi, level int) {
	if hi-lo < 2 || level >= len(cols) {
		return
	}
	radixSortSegment(cols[level], idx, tmp, lo, hi, 32)
	recurseRuns(cols, idx, tmp, lo, hi, level)
}

// recurseRuns walks the (already sorted) segment's runs of equal values
// at `level` and sorts each run by the next column.
func recurseRuns(cols [][]uint32, idx, tmp []uint32, lo, hi, level int) {
	if level+1 >= len(cols) {
		return
	}
	col := cols[level]
	i := lo
	for i < hi {
		v := col[idx[i]]
		j := i + 1
		for j < hi && col[idx[j]] == v {
			j++
		}
		if j-i > 1 {
			sortRuns(cols, idx, tmp, i, j, level+1)
		}
		i = j
	}
}

// radixSortSegment sorts idx[lo:hi) by col keys using LSD byte passes,
// skipping bytes that don't vary; bytes at or above maxShift are known
// constant by the caller. Small segments fall back to insertion sort.
func radixSortSegment(col []uint32, idx, tmp []uint32, lo, hi int, maxShift uint) {
	seg := idx[lo:hi]
	if len(seg) < insertionMin {
		insertionSortIdx(col, seg)
		return
	}
	// One scan determines which bytes vary at all.
	first := col[seg[0]]
	var diff uint32
	for _, id := range seg[1:] {
		diff |= col[id] ^ first
	}
	if diff == 0 {
		return
	}
	src, dst := seg, tmp[lo:hi]
	swapped := false
	for shift := uint(0); shift < maxShift && shift < 32; shift += 8 {
		if (diff>>shift)&0xff == 0 {
			continue
		}
		var count [256]int
		for _, id := range src {
			count[(col[id]>>shift)&0xff]++
		}
		sum := 0
		for d := 0; d < 256; d++ {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for _, id := range src {
			d := (col[id] >> shift) & 0xff
			dst[count[d]] = id
			count[d]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(seg, src)
	}
}

// insertionSortIdx sorts idx by col keys, stably: an element moves only
// past strictly greater keys, so ties keep their input order, as the
// radix passes' scatters do.
func insertionSortIdx(col []uint32, idx []uint32) {
	for i := 1; i < len(idx); i++ {
		id := idx[i]
		k := col[id]
		j := i
		for j > 0 && col[idx[j-1]] > k {
			idx[j] = idx[j-1]
			j--
		}
		idx[j] = id
	}
}

// dedup compacts adjacent duplicate rows in place, combining their
// annotations with ⊕, and returns the new row count.
func (b *ColumnarBuilder) dedup(n int) int {
	if n == 0 {
		return 0
	}
	w := 0
	for i := 1; i < n; i++ {
		eq := true
		for _, col := range b.cols {
			if col[i] != col[w] {
				eq = false
				break
			}
		}
		if eq {
			if b.annotated {
				b.anns[w] = b.op.Add(b.anns[w], b.anns[i])
			}
			continue
		}
		w++
		if w != i {
			for _, col := range b.cols {
				col[w] = col[i]
			}
			if b.annotated {
				b.anns[w] = b.anns[i]
			}
		}
	}
	return w + 1
}

// buildNode builds the trie node for rows [lo,hi) at the given level; the
// columns must be sorted and deduplicated. Leaf sets and annotation
// slices alias the columns (zero copy); inner levels gather their
// distinct values into fresh slices. When parallel is set, the children
// of this node are built concurrently.
func (b *ColumnarBuilder) buildNode(level, lo, hi int, parallel bool) *Node {
	if hi == lo {
		return &Node{}
	}
	col := b.cols[level]
	if level == b.arity-1 {
		// Post-dedup, leaf values under one prefix are strictly
		// increasing: the column segment is the set.
		vals := col[lo:hi:hi]
		n := &Node{Set: b.layout.Build(vals)}
		if b.annotated {
			n.Ann = b.anns[lo:hi:hi]
		}
		return n
	}
	var vals []uint32
	var starts []int
	for i := lo; i < hi; i++ {
		if len(vals) == 0 || vals[len(vals)-1] != col[i] {
			vals = append(vals, col[i])
			starts = append(starts, i)
		}
	}
	starts = append(starts, hi)
	n := &Node{
		Set:      b.layout.Build(vals),
		Children: make([]*Node, len(vals)),
	}
	nw := runtime.GOMAXPROCS(0)
	if !parallel || nw <= 1 || len(vals) < 2 {
		for gi := range vals {
			n.Children[gi] = b.buildNode(level+1, starts[gi], starts[gi+1], false)
		}
		return n
	}
	// Work-stealing over the first-level runs: an atomic cursor instead
	// of static chunks, so one high-degree value doesn't strand a worker.
	var next atomic.Int64
	var wg sync.WaitGroup
	if nw > len(vals) {
		nw = len(vals)
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(vals) {
					return
				}
				n.Children[gi] = b.buildNode(level+1, starts[gi], starts[gi+1], false)
			}
		}()
	}
	wg.Wait()
	return n
}
