package delta

import (
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trie"
)

// merger carries the shape of one path-copying merge (see MergedView) —
// the only tree walker of the write path.
type merger struct {
	arity     int
	annotated bool
	op        semiring.Op
	layout    *trie.Policy
}

// merge produces the node for (base \ del) ∪ ins at one trie level.
// Any of the three nodes may be nil (treated as empty; mergeLeaf and
// mergeInner see a non-nil base). Returns nil when the merged set is
// empty, so parents drop the value entirely — tries never store empty
// children.
func (m *merger) merge(base, ins, del *trie.Node, level int) *trie.Node {
	if ins == nil && del == nil {
		return base // untouched path: share the base subtree
	}
	if base == nil {
		return ins // (∅ \ del) ∪ ins: share the insert subtree
	}
	if level == m.arity-1 {
		return m.mergeLeaf(base, ins, del)
	}
	return m.mergeInner(base, ins, del, level)
}

// mergeLeaf builds the last-level set (base \ del) ∪ ins, with insert
// annotations replacing base annotations.
func (m *merger) mergeLeaf(base, ins, del *trie.Node) *trie.Node {
	vals := set.DefaultKernel.Merge3(base.Set, nodeSet(ins), nodeSet(del))
	if len(vals) == 0 {
		return nil
	}
	n := &trie.Node{Set: m.layout.Build(vals)}
	if m.annotated {
		anns := make([]float64, len(vals))
		for i, v := range vals {
			if ins != nil {
				if r, ok := ins.Set.Rank(v); ok {
					anns[i] = annAt(ins, r, m.op)
					continue
				}
			}
			r, _ := base.Set.Rank(v)
			anns[i] = annAt(base, r, m.op)
		}
		n.Ann = anns
	}
	return n
}

// mergeInner merges one inner level: candidate values are base ∪ ins
// (inner tombstones only remove a value by emptying its subtree), each
// candidate's child is merged recursively, and children untouched by
// the overlay are shared with the base.
func (m *merger) mergeInner(base, ins, del *trie.Node, level int) *trie.Node {
	bs, is := base.Set, nodeSet(ins)
	vals := make([]uint32, 0, bs.Card()+is.Card())
	children := make([]*trie.Node, 0, bs.Card()+is.Card())
	b, i := bs.Slice(), is.Slice()
	bi, ii := 0, 0
	for bi < len(b) || ii < len(i) {
		var v uint32
		var bchild, ichild *trie.Node
		switch {
		case bi < len(b) && (ii >= len(i) || b[bi] < i[ii]):
			v = b[bi]
			bchild = base.Children[bi]
			bi++
		case bi < len(b) && ii < len(i) && b[bi] == i[ii]:
			v = b[bi]
			bchild = base.Children[bi]
			ichild = ins.Children[ii]
			bi++
			ii++
		default:
			v = i[ii]
			ichild = ins.Children[ii]
			ii++
		}
		dchild := del.Child(v)
		child := m.merge(bchild, ichild, dchild, level+1)
		if child == nil || child.Set.IsEmpty() {
			continue
		}
		vals = append(vals, v)
		children = append(children, child)
	}
	if len(vals) == 0 {
		return nil
	}
	return &trie.Node{
		Set:      m.layout.Build(vals),
		Children: children,
	}
}

func nodeSet(n *trie.Node) set.Set {
	if n == nil {
		return set.Empty()
	}
	return n.Set
}

func annAt(n *trie.Node, rank int, op semiring.Op) float64 {
	if n.Ann == nil {
		return op.One()
	}
	return n.Ann[rank]
}
