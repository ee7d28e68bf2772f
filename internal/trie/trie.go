// Package trie implements EmptyHeaded's storage structure (§2.2, Fig. 2):
// a multi-level trie of sets of dictionary-encoded 32-bit values, where
// each set may carry per-value annotations from a semiring and each set is
// stored in the layout chosen by the layout optimizer (§4).
//
// Tries are materialized through ColumnarBuilder: flat per-attribute
// columns ordered by a parallel MSD radix sort, deduplicated in place
// under ⊕, and assembled level by level from column runs (leaf sets and
// annotations alias the sorted columns).
package trie

import (
	"fmt"
	"strings"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
)

// Policy is a trie build's layout policy: which physical layout each
// set gets. nil is the paper's set-level optimizer (§4.4): uint for small
// or sparse sets, bitset when the value range is dense enough that the
// word-parallel kernels win (see set.ChooseLayout for the thresholds).
// The non-nil policies pin one layout for every set — the relation-level
// ablations ("-R") and the block-level layout, which only a pin builds.
// A policy is a comparable value that names itself, so caches key on it
// directly.
type Policy struct{ pin set.Layout }

var (
	// UintLayout stores every set as a sorted uint array ("-R").
	UintLayout = &Policy{set.Uint}
	// BitsetLayout stores every set as a bitset (relation-level, dense).
	BitsetLayout = &Policy{set.Bitset}
	// CompositeLayout stores every set in the block-level composite layout.
	CompositeLayout = &Policy{set.Composite}
)

// ParsePolicy returns the policy whose String is name.
func ParsePolicy(name string) (*Policy, error) {
	for _, p := range []*Policy{nil, UintLayout, BitsetLayout, CompositeLayout} {
		if p.String() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("trie: unknown layout policy %q", name)
}

// Build stores vals (strictly increasing) in the layout p gives them.
func (p *Policy) Build(vals []uint32) set.Set {
	if p == nil {
		return set.BuildAuto(vals)
	}
	return set.BuildLayout(vals, p.pin)
}

// String names the policy: "auto", or the pinned layout's name.
func (p *Policy) String() string {
	if p == nil {
		return "auto"
	}
	return p.pin.String()
}

// Node is one trie node: a set of values, each optionally pointing at a
// child node (inner levels) and optionally annotated (the last annotated
// level). Children and Ann are rank-indexed, aligned with Set iteration
// order.
type Node struct {
	Set      set.Set
	Children []*Node
	Ann      []float64
}

// Child returns the child node under value v, or nil if v is absent or the
// node is a leaf. This is the trie operation R[t] of Table 2.
func (n *Node) Child(v uint32) *Node {
	if n == nil || n.Children == nil {
		return nil
	}
	r, ok := n.Set.Rank(v)
	if !ok {
		return nil
	}
	return n.Children[r]
}

// AnnOf returns the annotation of value v, or the semiring op's One if the
// node is un-annotated. ok is false when v is absent.
func (n *Node) AnnOf(v uint32, op semiring.Op) (ann float64, ok bool) {
	r, found := n.Set.Rank(v)
	if !found {
		return 0, false
	}
	if n.Ann == nil {
		return op.One(), true
	}
	return n.Ann[r], true
}

// Trie is an immutable relation in trie form.
type Trie struct {
	// Arity is the number of key attributes (levels).
	Arity int
	// Annotated reports whether leaf values carry annotations.
	Annotated bool
	// Op is the semiring under which annotations combine.
	Op semiring.Op
	// Root holds the first-level set. For Arity 0 (scalar relations such
	// as the N(;w) count in PageRank) Root is nil and Scalar holds the
	// annotation.
	Root   *Node
	Scalar float64
	// Policy is the layout policy the trie's sets were built under. A
	// relation serves this trie as its identity index for exactly this
	// policy; any other policy reads a rebuilt copy.
	Policy *Policy
}

// NewEmpty builds an empty relation of the given arity under policy p —
// the identity base for delta overlays (an insert-only overlay over
// NewEmpty is the relation itself) and the tombstone trie of a fresh
// overlay.
func NewEmpty(arity int, annotated bool, op semiring.Op, p *Policy) *Trie {
	return &Trie{Arity: arity, Annotated: annotated, Op: op, Root: &Node{}, Policy: p}
}

// NewScalar builds a zero-arity annotated relation (a single semiring value).
func NewScalar(v float64, op semiring.Op) *Trie {
	return &Trie{Arity: 0, Annotated: true, Op: op, Scalar: v}
}

// Cardinality returns the number of tuples in the relation.
func (t *Trie) Cardinality() int {
	if t.Arity == 0 {
		return 1
	}
	return countLeaves(t.Root, t.Arity)
}

func countLeaves(n *Node, depth int) int {
	if n == nil {
		return 0
	}
	if depth == 1 || n.Children == nil {
		return n.Set.Card()
	}
	total := 0
	for _, c := range n.Children {
		total += countLeaves(c, depth-1)
	}
	return total
}

// Lookup returns the full tuple's annotation (the op's One when the trie
// is un-annotated, Scalar at arity 0) and whether the relation holds it;
// a tuple of the wrong length is absent. Cost is one rank probe per level.
func (t *Trie) Lookup(tuple []uint32) (ann float64, ok bool) {
	if t == nil || len(tuple) != t.Arity {
		return 0, false
	}
	if t.Arity == 0 {
		return t.Scalar, true
	}
	n := t.Root
	for _, v := range tuple[:len(tuple)-1] {
		n = n.Child(v)
	}
	if n == nil {
		return 0, false
	}
	return n.AnnOf(tuple[len(tuple)-1], t.Op)
}

// Contains reports whether the relation holds the full tuple; the
// streaming-update path uses it to maintain merged cardinalities
// incrementally instead of re-walking the merged trie after every batch.
func (t *Trie) Contains(tuple []uint32) bool { _, ok := t.Lookup(tuple); return ok }

// MemBytes estimates the trie payload size (sets + annotations + child
// pointers), used by the layout experiments.
func (t *Trie) MemBytes() int {
	return memBytes(t.Root)
}

func memBytes(n *Node) int {
	if n == nil {
		return 0
	}
	b := n.Set.MemBytes() + 8*len(n.Children) + 8*len(n.Ann)
	for _, c := range n.Children {
		b += memBytes(c)
	}
	return b
}

// LevelLayoutProfile describes the physical layouts the layout optimizer
// chose for one trie level: how many sets landed in each layout and how
// many members they hold. Maps are keyed by set.Layout names ("uint",
// "bitset", "composite") for direct JSON rendering.
type LevelLayoutProfile struct {
	Level   int              `json:"level"`
	Sets    map[string]int64 `json:"sets"`
	Members map[string]int64 `json:"members"`
}

// LayoutProfile walks the trie and reports the per-level layout mix —
// the observability face of the adaptive layout optimizer (EXPLAIN and
// /debug/relations render it so a dense level showing up as uint is
// visible, not silent).
func (t *Trie) LayoutProfile() []LevelLayoutProfile {
	if t == nil || t.Root == nil || t.Arity == 0 {
		return nil
	}
	prof := make([]LevelLayoutProfile, t.Arity)
	for i := range prof {
		prof[i] = LevelLayoutProfile{
			Level:   i,
			Sets:    map[string]int64{},
			Members: map[string]int64{},
		}
	}
	var walk func(n *Node, lvl int)
	walk = func(n *Node, lvl int) {
		if n == nil || lvl >= t.Arity {
			return
		}
		name := n.Set.Layout().String()
		prof[lvl].Sets[name]++
		prof[lvl].Members[name] += int64(n.Set.Card())
		for _, c := range n.Children {
			walk(c, lvl+1)
		}
	}
	walk(t.Root, 0)
	return prof
}

// FromAdjacency builds a 2-level trie directly from an adjacency structure:
// adj[v] must be a strictly increasing neighbor list; vertices with empty
// lists are omitted from the first level. This is the fast path for graph
// edge relations.
func FromAdjacency(adj [][]uint32, layout *Policy) *Trie {
	var srcs []uint32
	for v, ns := range adj {
		if len(ns) > 0 {
			srcs = append(srcs, uint32(v))
		}
	}
	root := &Node{
		Set:      layout.Build(srcs),
		Children: make([]*Node, len(srcs)),
	}
	for i, v := range srcs {
		ns := adj[v]
		root.Children[i] = &Node{Set: layout.Build(ns)}
	}
	return &Trie{Arity: 2, Root: root, Policy: layout}
}

// ForEachTuple enumerates all tuples (with annotation; op.One() when
// un-annotated) in lexicographic order.
func (t *Trie) ForEachTuple(f func(tuple []uint32, ann float64)) {
	if t.Arity == 0 {
		f(nil, t.Scalar)
		return
	}
	buf := make([]uint32, t.Arity)
	walk(t.Root, buf, 0, t.Arity, t.Op, f)
}

func walk(n *Node, buf []uint32, level, arity int, op semiring.Op, f func([]uint32, float64)) {
	if n == nil {
		return
	}
	last := level == arity-1
	n.Set.ForEach(func(i int, v uint32) {
		buf[level] = v
		if last {
			ann := op.One()
			if n.Ann != nil {
				ann = n.Ann[i]
			}
			f(buf, ann)
			return
		}
		walk(n.Children[i], buf, level+1, arity, op, f)
	})
}

// String renders small tries for debugging.
func (t *Trie) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trie(arity=%d, card=%d)", t.Arity, t.Cardinality())
	if t.Cardinality() <= 20 {
		sb.WriteString("{")
		first := true
		t.ForEachTuple(func(tp []uint32, ann float64) {
			if !first {
				sb.WriteString(" ")
			}
			first = false
			if t.Annotated {
				fmt.Fprintf(&sb, "%v:%g", tp, ann)
			} else {
				fmt.Fprintf(&sb, "%v", tp)
			}
		})
		sb.WriteString("}")
	}
	return sb.String()
}
