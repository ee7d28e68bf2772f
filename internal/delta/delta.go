// Package delta implements streaming updates over EmptyHeaded's
// immutable tries: each updated relation is a compacted base trie plus a
// small overlay of two mini-tries — inserts (built with the columnar
// builder, annotated when the relation is) and tombstones (un-annotated
// full-tuple deletes). Queries run against a merged view produced by a
// path-copying merge: only nodes on overlay-touched paths are rebuilt
// ((base \ del) ∪ ins at every trie level, see set.Merge3), everything
// else is shared with the base, so an update to a 256k-edge relation
// re-links a handful of nodes instead of re-sorting the base. That merge
// is the package's only tree operation: folding a batch into the overlay
// (Apply) is the same merge with an overlay side in the base position.
//
// When the overlay grows past a size ratio, a compactor folds the merged
// view into a fresh flat base through the columnar build path (the
// enumeration is already sorted, so the radix sort is skipped) and the
// overlay resets to empty.
//
// The merged-view semantics are a function of (base, overlay) state, not
// of update history: state = (base \ Del) ∪ Ins, with an inserted
// tuple's annotation replacing the base's. Applying a newer overlay to a
// base that already absorbed an older prefix of it yields the same
// state (folding is idempotent), which is what lets compaction install
// concurrently with new updates and WAL replay restart from any
// snapshot boundary.
package delta

import (
	"fmt"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// Overlay is one relation's pending updates: Ins holds inserted tuples
// (annotated iff the relation is), Del holds full-tuple tombstones.
// Invariant: Ins ∩ Del = ∅ — the last update to a tuple wins, so a
// tuple lives in at most one side. Overlays are immutable; Apply
// returns a new overlay sharing untouched subtrees.
type Overlay struct {
	Ins *trie.Trie
	Del *trie.Trie
	// rows caches Ins.Cardinality() + Del.Cardinality(), the overlay
	// size that compaction thresholds and metrics read. insBytes /
	// delBytes cache the mini-tries' MemBytes the same way: overlays
	// are immutable, so both are computed once at construction and
	// /stats scrapes never walk the tries.
	rows     int
	insBytes int
	delBytes int
}

// NewOverlay returns the empty overlay for a relation of the given
// shape whose sets are built under layout; every later Apply and
// TrimAgainst keeps that policy.
func NewOverlay(arity int, annotated bool, op semiring.Op, layout *trie.Policy) *Overlay {
	o := &Overlay{
		Ins: trie.NewEmpty(arity, annotated, op, layout),
		Del: trie.NewEmpty(arity, false, semiring.None, layout),
	}
	o.insBytes = o.Ins.MemBytes()
	o.delBytes = o.Del.MemBytes()
	return o
}

// Rows returns the number of live overlay tuples (inserts + tombstones).
func (o *Overlay) Rows() int { return o.rows }

// MemBytes returns the cached payload sizes of the insert and tombstone
// mini-tries.
func (o *Overlay) MemBytes() (ins, del int) { return o.insBytes, o.delBytes }

// IsEmpty reports whether the overlay holds no pending updates.
func (o *Overlay) IsEmpty() bool { return o.rows == 0 }

// Apply folds one update batch into the overlay and returns the new
// overlay (o is unchanged). Batch semantics: deletes apply first, then
// inserts — a tuple both deleted and inserted in one batch ends
// present. ins may be nil or empty; same for del. Both sides are
// instances of the one merge (x \ d) ∪ i that MergedView computes:
//
//	Ins' = (Ins \ del) ∪ ins        (ins annotations win)
//	Del' = (Del ∪ del) \ ins
//
// Del' takes two merges: a single (Del \ ins) ∪ del would keep the
// tombstone of a tuple the same batch re-inserts. Each side stays under
// its own Policy.
func (o *Overlay) Apply(ins, del *trie.Trie) *Overlay {
	newIns := MergedView(o.Ins, ins, del, o.Ins.Policy)
	newDel := MergedView(MergedView(o.Del, del, nil, o.Del.Policy), nil, ins, o.Del.Policy)
	return &Overlay{
		Ins:      newIns,
		Del:      newDel,
		rows:     newIns.Cardinality() + newDel.Cardinality(),
		insBytes: newIns.MemBytes(),
		delBytes: newDel.MemBytes(),
	}
}

// MergedView returns (base \ del) ∪ ins as a regular trie, an inserted
// tuple's annotation replacing the base's: the relation a query sees
// over (base, overlay), and each side of the overlay after a batch (see
// Apply). Nodes on overlay-touched paths are rebuilt; all other nodes
// are shared — with base, or with ins where base holds nothing under
// that prefix — so the cost is proportional to the overlay (plus the
// width of touched nodes), not the base. ins and del may be nil or
// empty; when both are, base itself is returned. The result takes its
// shape (annotatedness, op) from base. Rebuilt sets are stored under
// layout, which the result records as its Policy; shared nodes keep
// theirs, so layout should be the policy base and ins were built under.
func MergedView(base, ins, del *trie.Trie, layout *trie.Policy) *trie.Trie {
	insRoot := overlayRoot(base, ins, "insert")
	delRoot := overlayRoot(base, del, "tombstone")
	if insRoot == nil && delRoot == nil {
		return base
	}
	baseRoot := base.Root
	if baseRoot.Set.IsEmpty() {
		baseRoot = nil // lets an insert-only merge share ins whole
	}
	m := &merger{arity: base.Arity, annotated: base.Annotated, op: base.Op, layout: layout}
	root := m.merge(baseRoot, insRoot, delRoot, 0)
	if root == nil {
		root = &trie.Node{}
	}
	return &trie.Trie{Arity: base.Arity, Annotated: base.Annotated, Op: base.Op, Root: root, Policy: layout}
}

// overlayRoot returns the root of one overlay side, nil when the side is
// absent or empty.
func overlayRoot(base, side *trie.Trie, name string) *trie.Node {
	if side == nil || side.Cardinality() == 0 {
		return nil
	}
	if side.Arity != base.Arity {
		panic(fmt.Sprintf("delta: %s overlay arity %d over base arity %d", name, side.Arity, base.Arity))
	}
	return side.Root
}

// Compact folds a merged view into a fresh flat trie through the
// columnar build path: the enumeration is in lexicographic order, so
// the radix sort is skipped and the build is one dedup-free linear
// pass. The result shares nothing with the view's base or overlay
// (and in particular drops any aliases into mmap'd snapshot segments
// or overlay mini-tries). It keeps the view's Policy.
func Compact(view *trie.Trie) *trie.Trie {
	cols, anns := view.Columns(0)
	return trie.FromColumns(cols, anns, view.Op, view.Policy)
}

// TrimAgainst drops overlay entries a base already absorbed: inserts
// whose tuple (and, for annotated relations, annotation) the base
// holds, and tombstones for tuples the base doesn't hold. After a
// compaction that raced with updates, the re-based overlay shrinks to
// exactly the post-capture net-new changes instead of growing without
// bound under sustained writes. Cost is O(overlay × depth) lookups
// into base. Each side keeps its own Policy.
func (o *Overlay) TrimAgainst(base *trie.Trie) *Overlay {
	arity := base.Arity
	annotated := o.Ins.Annotated
	op := o.Ins.Op

	insCols := make([][]uint32, arity)
	var insAnns []float64
	o.Ins.ForEachTuple(func(tp []uint32, ann float64) {
		if bAnn, ok := base.Lookup(tp); ok && (!annotated || bAnn == ann) {
			return // absorbed
		}
		for c, v := range tp {
			insCols[c] = append(insCols[c], v)
		}
		if annotated {
			insAnns = append(insAnns, ann)
		}
	})
	delCols := make([][]uint32, arity)
	o.Del.ForEachTuple(func(tp []uint32, _ float64) {
		if _, ok := base.Lookup(tp); !ok {
			return // tombstone for an already-absent tuple
		}
		for c, v := range tp {
			delCols[c] = append(delCols[c], v)
		}
	})
	if annotated && insAnns == nil {
		insAnns = []float64{}
	}
	ins := trie.FromColumns(insCols, insAnns, op, o.Ins.Policy)
	del := trie.FromColumns(delCols, nil, semiring.None, o.Del.Policy)
	return &Overlay{
		Ins: ins, Del: del,
		rows:     ins.Cardinality() + del.Cardinality(),
		insBytes: ins.MemBytes(),
		delBytes: del.MemBytes(),
	}
}

// Permute rebuilds a trie with its columns permuted: level i of the
// result stores column perm[i] of t — one bulk column read, then the
// columnar builder's radix sort. It builds a relation's permuted indexes,
// and carries an overlay into them without re-sorting the base. A nil
// trie or a scalar (no columns) is returned as it is.
func Permute(t *trie.Trie, perm []int, layout *trie.Policy) *trie.Trie {
	if t == nil || t.Arity == 0 {
		return t
	}
	if len(perm) != t.Arity {
		panic(fmt.Sprintf("delta: permutation %v for arity-%d trie", perm, t.Arity))
	}
	cols, anns := t.Columns(0)
	pcols := make([][]uint32, len(cols))
	for i, p := range perm {
		pcols[i] = cols[p]
	}
	return trie.FromColumns(pcols, anns, t.Op, layout)
}
