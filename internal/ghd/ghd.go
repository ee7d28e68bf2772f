// Package ghd implements generalized hypertree decompositions, the logical
// query plans of EmptyHeaded (§3 of the paper).
//
// A GHD is a tree of bags; each bag v carries λ(v), the atoms joined at
// that bag, and χ(v), the variables the bag covers. The optimizer
// enumerates decompositions by recursively choosing a root bag and
// splitting the remaining atoms into connected components (exactly the
// search EmptyHeaded brute-forces, §3.2 "we simply brute force search
// GHDs of all possible widths"), ranking candidates by
// (fractional width, number of bags, tree depth).
//
// Selection handling follows Appendix B.1.1: atoms carrying selection
// constants are excluded from the base decomposition, then attached as
// the deepest possible leaf bags (pushdown enabled) so they execute first
// in the bottom-up Yannakakis pass — or grafted above the bags they
// filter (pushdown disabled, the "-GHD" ablation of Table 13) so the
// unrestricted subquery is computed before the selection applies.
package ghd

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"emptyheaded/internal/hypergraph"
)

// Bag is one node of a GHD.
type Bag struct {
	// Edges indexes the hypergraph edges joined at this bag (λ).
	Edges []int
	// Vars are the variables covered by this bag (χ) in first-appearance
	// order.
	Vars []string
	// Children are the sub-bags.
	Children []*Bag
	// Width is the fractional edge cover number of Vars using Edges.
	Width float64
}

// GHD is a decomposition of a query hypergraph.
type GHD struct {
	H    *hypergraph.Hypergraph
	Root *Bag
	// Width is the maximum bag width (the fractional hypertree width of
	// this particular decomposition).
	Width float64
	// Bags is the total number of bags.
	Bags int
}

// Options controls the decomposition search.
type Options struct {
	// SingleBag forces the trivial one-bag GHD (the "-GHD" ablation of
	// Table 8 and the paper's model of LogicBlox plans, Fig. 3b).
	SingleBag bool
	// SelectionEdges indexes hypergraph edges whose atoms carry
	// selection constants.
	SelectionEdges []int
	// NoPushdown disables cross-bag selection pushdown (Table 13 "-GHD"):
	// selection atoms are grafted above the sub-plans they filter instead
	// of below them.
	NoPushdown bool
}

// Decompose returns the best GHD for h under opts.
func Decompose(h *hypergraph.Hypergraph, opts Options) *GHD {
	all := make([]int, len(h.Edges))
	for i := range all {
		all[i] = i
	}
	if opts.SingleBag || len(h.Edges) == 1 {
		return finish(h, newBag(h, all, nil))
	}
	isSel := map[int]bool{}
	for _, e := range opts.SelectionEdges {
		isSel[e] = true
	}
	var nonSel, sel []int
	for _, e := range all {
		if isSel[e] {
			sel = append(sel, e)
		} else {
			nonSel = append(nonSel, e)
		}
	}
	if len(nonSel) == 0 {
		// Pure-selection query (e.g. SSSP's Edge("start",x)): decompose
		// everything together; constants are handled at the plan level.
		nonSel, sel = all, nil
	}
	d := &decomposer{h: h, memo: map[string]*scored{}}
	best := d.decompose(nonSel, nil)
	root := best.bag
	for _, se := range sel {
		root = attachSelection(h, root, se, !opts.NoPushdown)
	}
	return finish(h, root)
}

func finish(h *hypergraph.Hypergraph, root *Bag) *GHD {
	g := &GHD{H: h, Root: root}
	var visit func(b *Bag)
	visit = func(b *Bag) {
		g.Bags++
		if b.Width > g.Width {
			g.Width = b.Width
		}
		for _, c := range b.Children {
			visit(c)
		}
	}
	visit(root)
	return g
}

// attachSelection grafts a selection edge into the tree. With pushdown it
// becomes a child of the deepest bag covering its variables (executed
// first bottom-up); without, it becomes the parent of the shallowest bag
// covering its variables (executed last).
func attachSelection(h *hypergraph.Hypergraph, root *Bag, edge int, pushdown bool) *Bag {
	vars := h.Edges[edge].Vars
	covers := func(b *Bag) bool {
		chi := map[string]bool{}
		for _, v := range b.Vars {
			chi[v] = true
		}
		for _, v := range vars {
			if !chi[v] {
				return false
			}
		}
		return true
	}
	selBag := func() *Bag {
		return &Bag{Edges: []int{edge}, Vars: append([]string(nil), vars...),
			Width: h.Width(vars, []int{edge})}
	}
	if pushdown {
		// Deepest covering bag gets the selection as a child.
		var best *Bag
		bestDepth := -1
		var walk func(b *Bag, d int)
		walk = func(b *Bag, d int) {
			if covers(b) && d > bestDepth {
				best, bestDepth = b, d
			}
			for _, c := range b.Children {
				walk(c, d+1)
			}
		}
		walk(root, 0)
		if best == nil {
			best = root
		}
		best.Children = append(best.Children, selBag())
		return root
	}
	// No pushdown: parent of the shallowest covering bag.
	var target *Bag
	var walk func(b *Bag, d int) int
	found := math.MaxInt32
	walk = func(b *Bag, d int) int {
		if covers(b) && d < found {
			target = b
			found = d
		}
		for _, c := range b.Children {
			walk(c, d+1)
		}
		return found
	}
	walk(root, 0)
	if target == nil {
		target = root
	}
	nb := selBag()
	if target == root {
		nb.Children = []*Bag{root}
		return nb
	}
	var replace func(b *Bag)
	replace = func(b *Bag) {
		for i, c := range b.Children {
			if c == target {
				nb.Children = []*Bag{target}
				b.Children[i] = nb
				return
			}
			replace(c)
		}
	}
	replace(root)
	return root
}

// scored is a candidate subtree with its ranking metrics.
type scored struct {
	bag   *Bag
	width float64 // max bag width in subtree
	bags  int
	depth int
}

type decomposer struct {
	h    *hypergraph.Hypergraph
	memo map[string]*scored
}

func key(edges []int, boundary []string) string {
	var sb strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&sb, "%d,", e)
	}
	sb.WriteString("|")
	for _, v := range boundary {
		sb.WriteString(v)
		sb.WriteString(",")
	}
	return sb.String()
}

// decompose finds the best decomposition of the given edges whose root bag
// covers all boundary variables.
func (d *decomposer) decompose(edges []int, boundary []string) *scored {
	k := key(edges, boundary)
	if s, ok := d.memo[k]; ok {
		return s
	}
	var best *scored
	n := len(edges)
	// Enumerate non-empty subsets of edges as the root bag's λ.
	for mask := 1; mask < (1 << n); mask++ {
		var lambda []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				lambda = append(lambda, edges[i])
			}
		}
		bag := newBag(d.h, lambda, boundary)
		if bag == nil {
			continue // boundary not covered
		}
		chi := map[string]bool{}
		for _, v := range bag.Vars {
			chi[v] = true
		}
		var rest []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				rest = append(rest, edges[i])
			}
		}
		cand := &scored{bag: bag, width: bag.Width, bags: 1, depth: 0}
		ok := true
		if len(rest) > 0 {
			comps := d.h.ConnectedComponents(rest, chi)
			for _, comp := range comps {
				cb := d.sharedVars(comp, chi)
				child := d.decompose(comp, cb)
				if child == nil {
					ok = false
					break
				}
				cloned := cloneBag(child.bag)
				cand.bag.Children = append(cand.bag.Children, cloned)
				if child.width > cand.width {
					cand.width = child.width
				}
				cand.bags += child.bags
				if child.depth+1 > cand.depth {
					cand.depth = child.depth + 1
				}
			}
		}
		if !ok {
			continue
		}
		if best == nil || better(cand, best) {
			best = cand
		}
	}
	d.memo[k] = best
	return best
}

// cloneBag deep-copies a bag subtree so memoized results can be shared.
func cloneBag(b *Bag) *Bag {
	nb := &Bag{
		Edges: append([]int(nil), b.Edges...),
		Vars:  append([]string(nil), b.Vars...),
		Width: b.Width,
	}
	for _, c := range b.Children {
		nb.Children = append(nb.Children, cloneBag(c))
	}
	return nb
}

func (d *decomposer) sharedVars(comp []int, chi map[string]bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, ei := range comp {
		for _, v := range d.h.Edges[ei].Vars {
			if chi[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// better ranks candidates: smaller width first (the fhw objective of
// §3.2), then fewer bags (cheaper Yannakakis passes), then shallower
// trees (more parallelism, and the Fig. 3c star over a chain).
func better(a, b *scored) bool {
	if math.Abs(a.width-b.width) > 1e-9 {
		return a.width < b.width
	}
	if a.bags != b.bags {
		return a.bags < b.bags
	}
	return a.depth < b.depth
}

// newBag builds a bag over lambda; returns nil if the boundary variables
// are not all covered by lambda's variables.
func newBag(h *hypergraph.Hypergraph, lambda []int, boundary []string) *Bag {
	seen := map[string]bool{}
	var vars []string
	for _, ei := range lambda {
		for _, v := range h.Edges[ei].Vars {
			if !seen[v] {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	for _, bv := range boundary {
		if !seen[bv] {
			return nil
		}
	}
	return &Bag{Edges: lambda, Vars: vars, Width: h.Width(vars, lambda)}
}

// SelectionDepth is the sum over selection bags of their depths; larger
// means selections execute earlier in the bottom-up pass (App. B.1.1).
func (g *GHD) SelectionDepth(selectionEdges []int) int {
	isSel := map[int]bool{}
	for _, e := range selectionEdges {
		isSel[e] = true
	}
	total := 0
	var visit func(b *Bag, d int)
	visit = func(b *Bag, d int) {
		for _, ei := range b.Edges {
			if isSel[ei] {
				total += d
				break
			}
		}
		for _, c := range b.Children {
			visit(c, d+1)
		}
	}
	visit(g.Root, 0)
	return total
}

// AttributeOrder computes the global attribute order by a pre-order
// traversal of the GHD, appending each bag's variables in bag order
// (§3.2 "Global Attribute Ordering"). Variables in the selected set come
// first within each bag (Appendix B.1 "Within a Node").
func (g *GHD) AttributeOrder(selected map[string]bool) []string {
	var order []string
	seen := map[string]bool{}
	var visit func(b *Bag)
	visit = func(b *Bag) {
		for pass := 0; pass < 2; pass++ {
			for _, v := range b.Vars {
				isSel := selected != nil && selected[v]
				if (pass == 0) == isSel && !seen[v] {
					seen[v] = true
					order = append(order, v)
				}
			}
		}
		for _, c := range b.Children {
			visit(c)
		}
	}
	visit(g.Root)
	return order
}

// String renders the GHD, one bag per line, for debugging and tests.
func (g *GHD) String() string {
	var sb strings.Builder
	var visit func(b *Bag, depth int)
	visit = func(b *Bag, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		var rels []string
		for _, ei := range b.Edges {
			rels = append(rels, g.H.Edges[ei].Rel)
		}
		fmt.Fprintf(&sb, "λ:%s χ:%s (w=%.2f)\n",
			strings.Join(rels, ","), strings.Join(b.Vars, ","), b.Width)
		for _, c := range b.Children {
			visit(c, depth+1)
		}
	}
	visit(g.Root, 0)
	return sb.String()
}

// Validate checks the three GHD properties of Definition 1; it is used by
// tests and the engine's own assertions.
func (g *GHD) Validate() error {
	covered := make([]bool, len(g.H.Edges))
	var bags []*Bag
	var collect func(b *Bag)
	collect = func(b *Bag) {
		bags = append(bags, b)
		for _, c := range b.Children {
			collect(c)
		}
	}
	collect(g.Root)
	for _, b := range bags {
		chi := map[string]bool{}
		for _, v := range b.Vars {
			chi[v] = true
		}
		// Property 1: every edge appears in some bag with its vars ⊆ χ.
		for _, ei := range b.Edges {
			all := true
			for _, v := range g.H.Edges[ei].Vars {
				if !chi[v] {
					all = false
				}
			}
			if all {
				covered[ei] = true
			}
		}
		// Property 3: χ(v) ⊆ ∪λ(v).
		lamVars := map[string]bool{}
		for _, ei := range b.Edges {
			for _, v := range g.H.Edges[ei].Vars {
				lamVars[v] = true
			}
		}
		for _, v := range b.Vars {
			if !lamVars[v] {
				return fmt.Errorf("ghd: χ var %s not in ∪λ", v)
			}
		}
	}
	for ei, ok := range covered {
		if !ok {
			return fmt.Errorf("ghd: edge %s not covered by any bag", g.H.Edges[ei].Name)
		}
	}
	// Property 2 (running intersection): bags containing each var form a
	// connected subtree.
	for _, v := range g.H.Vars() {
		if !connectedFor(g.Root, v) {
			return fmt.Errorf("ghd: variable %s violates running intersection", v)
		}
	}
	return nil
}

// connectedFor checks the running-intersection property for variable v.
func connectedFor(b *Bag, v string) bool {
	var has func(b *Bag) bool
	has = func(b *Bag) bool {
		for _, x := range b.Vars {
			if x == v {
				return true
			}
		}
		for _, c := range b.Children {
			if has(c) {
				return true
			}
		}
		return false
	}
	var check func(b *Bag) bool
	check = func(b *Bag) bool {
		inSelf := false
		for _, x := range b.Vars {
			if x == v {
				inSelf = true
			}
		}
		n := 0
		for _, c := range b.Children {
			if has(c) {
				n++
				if !check(c) {
					return false
				}
			}
		}
		if !inSelf {
			return n <= 1
		}
		// v in this bag: every child subtree containing v must contain it
		// in the child root for the block to be connected through here.
		for _, c := range b.Children {
			if has(c) {
				inChild := false
				for _, x := range c.Vars {
					if x == v {
						inChild = true
					}
				}
				if !inChild {
					return false
				}
			}
		}
		return true
	}
	return check(b)
}
