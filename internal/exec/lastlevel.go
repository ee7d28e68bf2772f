package exec

import (
	"math"
	"math/bits"
	"slices"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
)

// Last-level kernels (docs/KERNELS.md, "Last-level kernels"). A bag's last
// level whose intersected atoms only filter — every one a leaf without
// annotation, so binding a value acts on none of them — runs as one kernel
// call per candidate set instead of a bind per value: a fold tail is a
// gather, an emit into the dense accumulator a scatter. A kernel loops
// over the candidates' native layout and dispatches the semiring op once
// per call. Values ascend as they do per value, so every ⊕ and ⊗ takes the
// same operands in the same order and the answers keep their bytes. The
// level above a count tail runs as a count scan (see countScanTail).

// plain reports whether binding a value at lv acts on no atom.
func (lv *level) plain() bool { return len(lv.binds) == 0 }

// kernelName names the kernel a level kind runs, "" for none.
func (k levelKind) kernelName() string {
	switch k {
	case kindGather:
		return "gather"
	case kindScatter:
		return "scatter"
	case kindCountScan:
		return "count"
	}
	return ""
}

// gatherTail turns a plain fold tail whose vectors read as one into a
// gather. One vector is read as it is. Several are ⊗-multiplied, in atom
// order, into ex.fused when the annotation reaching the level is One by
// construction (see oneAbove): One ⊗ (v₁ ⊗ v₂) and (One ⊗ v₁) ⊗ v₂ are
// the same bits under × with 1 and under + with +0, so the
// re-association shows in no answer. Otherwise the level stays a
// foldTail, whose bind multiplies them per candidate in atom order.
func (ex *bagExec) gatherTail() {
	last := len(ex.levels) - 1
	if last < 0 || ex.levels[last].kind != kindFold || !ex.levels[last].plain() {
		return
	}
	lv := &ex.levels[last]
	switch {
	case len(lv.vecs) == 1:
		lv.gvec = lv.vecs[0]
	case len(lv.vecs) > 1 && ex.oneAbove(last):
		ex.fused = fuse(ex.op, lv.vecs)
		lv.gvec = &ex.fused
	default:
		return
	}
	lv.kind = kindGather
}

// oneAbove reports whether the annotation reaching level lvl is always
// the semiring's One: the scalar factor is One, and no level above it
// reads a vector or intersects an annotating atom.
func (ex *bagExec) oneAbove(lvl int) bool {
	if math.Float64bits(ex.scalarFactor) != math.Float64bits(ex.op.One()) {
		return false
	}
	for _, lv := range ex.levels[:lvl] {
		if len(lv.vecs) > 0 || slices.ContainsFunc(lv.refs, func(r curRef) bool { return r.ann }) {
			return false
		}
	}
	return true
}

// scatterTail turns the last level into a scatter once runParallel has
// given the bag a dense accumulator: an emit level, so the bag's one
// output attribute, that is plain and reads no vector.
func (ex *bagExec) scatterTail() {
	lv := &ex.levels[len(ex.levels)-1]
	if lv.kind == kindEmit && lv.plain() && len(lv.vecs) == 0 {
		lv.kind = kindScatter
	}
}

// fuse returns the ⊗-product of vecs as one vector: its support is the
// AND of theirs, and a member's annotation is v₁ ⊗ v₂ ⊗ … from the left.
func fuse(op semiring.Op, vecs []*vector) vector {
	// lo and hi bound, in words of 64 values, the range every vector spans.
	lo, hi := uint32(0), uint32(math.MaxUint32)
	for _, vc := range vecs {
		lo, hi = max(lo, vc.base/64), min(hi, vc.base/64+uint32(len(vc.words)))
	}
	f := vector{base: lo * 64}
	if hi <= lo {
		return f
	}
	f.words = make([]uint64, hi-lo)
	f.ann = make([]float64, 64*len(f.words))
	for i := range f.words {
		m := ^uint64(0)
		for _, vc := range vecs {
			m &= vc.words[int(lo-vc.base/64)+i]
		}
		f.words[i] = m
		for ; m != 0; m &= m - 1 {
			off := i*64 + bits.TrailingZeros64(m)
			v := f.base + uint32(off)
			x := vecs[0].ann[v-vecs[0].base]
			for _, vc := range vecs[1:] {
				x = op.Mul(x, vc.ann[v-vc.base])
			}
			f.ann[off] = x
		}
	}
	return f
}

// gather runs a gather level: it ⊕-folds ann ⊗ the level's one vector's
// annotation over the candidates the vector holds and emits the fold
// once, if a candidate was folded. Stop and limit are checked, and the
// counters added, once per call, as in foldTail.
func (w *worker) gather(lvl int, candidates *set.Set, ann float64) {
	ex := w.ex
	if ex.lim.stopped() || ex.r.stopped() {
		return
	}
	acc, folded := gatherVec(ex.op, candidates, ex.levels[lvl].gvec, ann, &w.vals)
	n := candidates.Card()
	if w.lc != nil {
		w.lc[lvl].Probes += int64(n)
		w.lc[lvl].Skipped += int64(n - folded)
	}
	if folded > 0 {
		w.emit(acc)
	}
}

// gatherVec is the gather over one vector: the ⊕ of ann ⊗ vc[v] over the
// candidates v that vc holds, and their number. Uint candidates take a
// range loop with a bit test per value. A bitset's words line up with the
// vector's, both bases being multiples of 64, so one AND per word leaves
// exactly the values to fold. Other layouts are decoded into scratch.
func gatherVec(op semiring.Op, c *set.Set, vc *vector, ann float64, scratch *[]uint32) (acc float64, n int) {
	acc = op.Zero()
	cbase, cwords := c.Words()
	if cwords == nil {
		vals := c.Values(scratch)
		switch op {
		case semiring.Min:
			for _, v := range vals {
				if x, ok := vc.at(v); ok {
					acc, n = semiring.MinOf(acc, ann+x), n+1
				}
			}
		case semiring.Max:
			for _, v := range vals {
				if x, ok := vc.at(v); ok {
					acc, n = semiring.MaxOf(acc, ann+x), n+1
				}
			}
		default:
			for _, v := range vals {
				if x, ok := vc.at(v); ok {
					acc, n = acc+ann*x, n+1
				}
			}
		}
		return acc, n
	}
	// Candidate word j covers the values of vector word j+d; most words
	// of a sparse bitset child are empty and cost one test.
	d := int(cbase/64) - int(vc.base/64)
	lo, hi := max(0, -d), min(len(cwords), len(vc.words)-d)
	switch op {
	case semiring.Min:
		for j := lo; j < hi; j++ {
			if cw := cwords[j]; cw != 0 {
				for k, m := (j+d)*64, cw&vc.words[j+d]; m != 0; m &= m - 1 {
					acc, n = semiring.MinOf(acc, ann+vc.ann[k+bits.TrailingZeros64(m)]), n+1
				}
			}
		}
	case semiring.Max:
		for j := lo; j < hi; j++ {
			if cw := cwords[j]; cw != 0 {
				for k, m := (j+d)*64, cw&vc.words[j+d]; m != 0; m &= m - 1 {
					acc, n = semiring.MaxOf(acc, ann+vc.ann[k+bits.TrailingZeros64(m)]), n+1
				}
			}
		}
	default:
		for j := lo; j < hi; j++ {
			if cw := cwords[j]; cw != 0 {
				for k, m := (j+d)*64, cw&vc.words[j+d]; m != 0; m &= m - 1 {
					acc, n = acc+ann*vc.ann[k+bits.TrailingZeros64(m)], n+1
				}
			}
		}
	}
	return acc, n
}

// scatter runs a scatter level: every candidate v emits ann into the
// dense accumulator exactly as emit does — the first emit of v stores
// ann, later ones ⊕ into its slot, and a Boolean plan sets v's bit only.
// Uint candidates take a range loop, a bitset's a word loop; other
// layouts are decoded into scratch. Stop and limit are checked, and the
// counters added, once per call.
func (w *worker) scatter(lvl int, candidates *set.Set, ann float64) {
	ex := w.ex
	if ex.lim.stopped() || ex.r.stopped() {
		return
	}
	if w.lc != nil {
		n := int64(candidates.Card())
		w.lc[lvl].Probes += n
		w.emits += n
	}
	// One of cwords and vals is nil, so each case runs one of its loops.
	// Slot k+i of a bitset's word j is its bit i.
	lo, has, acc := ex.span.lo, w.has, w.acc
	cbase, cwords := candidates.Words()
	var vals []uint32
	if cwords == nil {
		vals = candidates.Values(&w.vals)
	}
	switch {
	case acc == nil:
		for j, cw := range cwords {
			for k := cbase + uint32(j*64) - lo; cw != 0; cw &= cw - 1 {
				mark(has, k+uint32(bits.TrailingZeros64(cw)))
			}
		}
		for _, v := range vals {
			mark(has, v-lo)
		}
	case ex.op == semiring.Min:
		for j, cw := range cwords {
			for k := cbase + uint32(j*64) - lo; cw != 0; cw &= cw - 1 {
				if off := k + uint32(bits.TrailingZeros64(cw)); mark(has, off) {
					acc[off] = ann
				} else {
					acc[off] = semiring.MinOf(acc[off], ann)
				}
			}
		}
		for _, v := range vals {
			if off := v - lo; mark(has, off) {
				acc[off] = ann
			} else {
				acc[off] = semiring.MinOf(acc[off], ann)
			}
		}
	case ex.op == semiring.Max:
		for j, cw := range cwords {
			for k := cbase + uint32(j*64) - lo; cw != 0; cw &= cw - 1 {
				if off := k + uint32(bits.TrailingZeros64(cw)); mark(has, off) {
					acc[off] = ann
				} else {
					acc[off] = semiring.MaxOf(acc[off], ann)
				}
			}
		}
		for _, v := range vals {
			if off := v - lo; mark(has, off) {
				acc[off] = ann
			} else {
				acc[off] = semiring.MaxOf(acc[off], ann)
			}
		}
	default:
		for j, cw := range cwords {
			for k := cbase + uint32(j*64) - lo; cw != 0; cw &= cw - 1 {
				if off := k + uint32(bits.TrailingZeros64(cw)); mark(has, off) {
					acc[off] = ann
				} else {
					acc[off] += ann
				}
			}
		}
		for _, v := range vals {
			if off := v - lo; mark(has, off) {
				acc[off] = ann
			} else {
				acc[off] += ann
			}
		}
	}
}

// mark sets bit off of has and reports whether it was clear: the first
// emit of that slot.
func mark(has []uint64, off uint32) bool {
	word, bit := &has[off/64], uint64(1)<<(off%64)
	first := *word&bit == 0
	*word |= bit
	return first
}

// countScanTail turns the level above a count tail into a count scan when
// binding a value there moves one atom, down to its child at the count
// level: the level has one bind, which descends, and reads no vector.
// Every other atom the count level intersects was then bound above the
// level, so their intersection Q does not change across its loop. The
// child moves last among the count level's refs; the others keep atom
// order and are Q's operands. A count does not depend on operand order,
// and per candidate the scan emits what the per-value path emits.
func (ex *bagExec) countScanTail() {
	lvl := len(ex.levels) - 2
	if lvl < 0 || ex.levels[lvl+1].kind != kindCount {
		return
	}
	lv, refs := &ex.levels[lvl], ex.levels[lvl+1].refs
	if lv.kind != kindDescend || len(lv.binds) != 1 || lv.binds[0].leaf || len(lv.vecs) > 0 {
		return
	}
	c := slices.IndexFunc(refs, func(r curRef) bool { return r.slot == lv.binds[0].slot+1 })
	if c < 0 {
		return
	}
	child := refs[c]
	copy(refs[c:], refs[c+1:])
	refs[len(refs)-1] = child
	lv.kind = kindCountScan
}

// countOperand intersects count level lvl's refs bound above its count
// scan, in atom order, into the level's scratch: Q. nil when the child is
// the level's only ref, whose count is then its cardinality.
func (w *worker) countOperand(lvl int) *set.Set {
	refs := w.ex.levels[lvl].refs
	if len(refs) == 1 {
		return nil
	}
	return w.intersectPrefix(lvl, refs[:len(refs)-1])
}

// countScan runs a count-scan level: Q is intersected once per call (at
// level 0 once per bag run, see runParallel), then each candidate v, in
// ascending order, ranks in the descending atom's set by bind's rule and
// emits ann ⊗ |Q ∩ child(v)| when that count is not 0: the emit the
// per-value path makes, through the same emit. A bitset's candidates are
// decoded a word at a time into w.word, other layouts but uint into
// scratch. Stop is checked once per call, as foldTail and gather check
// it. A row budget never applies here: a limited listing has no aggregate,
// so it is a Boolean plan whose eliminated tail is an existence check, not
// a count (TestLimitIgnoredForAggregates). Under analyze the count level books
// one intersection per candidate, with the inputs and output the per-value
// path books.
func (w *worker) countScan(lvl int, candidates *set.Set, ann float64) {
	ex := w.ex
	if ex.r.stopped() {
		return
	}
	lv := &ex.levels[lvl]
	q := ex.q
	if lvl > 0 {
		q = w.countOperand(lvl + 1)
	}
	n := w.slots[lv.binds[0].slot].node
	k := w.kernelAt(lvl + 1)
	ncand := candidates.Card()
	byIndex := n.Set.Card() == ncand
	cbase, cwords := candidates.Words()
	passes, vals := len(cwords), []uint32(nil)
	if cwords == nil {
		passes, vals = 1, candidates.Values(&w.vals)
	}
	i, rank, in, out := 0, 0, 0, 0
	for j := range passes {
		if cwords != nil {
			m := 0
			for cw := cwords[j]; cw != 0; cw &= cw - 1 {
				w.word[m] = cbase + uint32(j*64+bits.TrailingZeros64(cw))
				m++
			}
			vals = w.word[:m]
		}
		for _, v := range vals {
			if byIndex {
				rank = i
			} else {
				rank, _ = n.Set.RankNext(v, rank)
			}
			i++
			c := &emptySet
			if ch := n.Children[rank]; ch != nil {
				c = &ch.Set
			}
			cnt := c.Card()
			in += cnt
			if q != nil {
				cnt = k.CountOf(q, c)
			}
			if cnt == 0 {
				continue
			}
			out += cnt
			if lv.out >= 0 {
				w.outBuf[lv.out] = v
			}
			w.emit(ex.op.Mul(ann, float64(cnt)))
		}
	}
	if w.lc != nil {
		refs := ex.levels[lvl+1].refs
		for _, r := range refs[:len(refs)-1] {
			in += ncand * w.levelSet(r).Card()
		}
		l := &w.lc[lvl+1]
		l.Intersections += int64(ncand)
		l.InputCard += int64(in)
		l.OutputCard += int64(out)
		w.lc[lvl].Probes += int64(ncand)
	}
}

// kernelLevel is the level of bp whose kind a bag run records (see
// bagRun): the one above the count tail for a count scan, else the last.
func (bp *BagPlan) kernelLevel(kind levelKind) int {
	if kind == kindCountScan {
		return len(bp.Attrs) - 2
	}
	return len(bp.Attrs) - 1
}
