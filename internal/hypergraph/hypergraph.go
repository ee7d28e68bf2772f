// Package hypergraph models conjunctive queries as hypergraphs (§2.1):
// one vertex per query variable, one hyperedge per body atom. It computes
// fractional edge covers via the lp package. A hypergraph carries the
// query's shape and nothing of the instance: no relation size reaches the
// optimizer.
package hypergraph

import (
	"fmt"
	"math"
	"sort"

	"emptyheaded/internal/lp"
)

// Edge is one hyperedge: the variables of one body atom.
type Edge struct {
	// Name identifies the atom (unique per atom, e.g. "R#0").
	Name string
	// Rel is the underlying relation name.
	Rel string
	// Vars are the distinct variables the atom binds.
	Vars []string
}

// Hypergraph is a query hypergraph.
type Hypergraph struct {
	Edges []Edge
	vars  []string
}

// New builds a hypergraph from edges, collecting the variable universe.
func New(edges []Edge) *Hypergraph {
	h := &Hypergraph{Edges: edges}
	seen := map[string]bool{}
	for _, e := range edges {
		for _, v := range e.Vars {
			if !seen[v] {
				seen[v] = true
				h.vars = append(h.vars, v)
			}
		}
	}
	return h
}

// Vars returns the variable universe in first-appearance order.
func (h *Hypergraph) Vars() []string { return h.vars }

// HasVar reports whether edge e binds variable v.
func (e Edge) HasVar(v string) bool {
	for _, x := range e.Vars {
		if x == v {
			return true
		}
	}
	return false
}

// FractionalCover solves the fractional edge cover LP for covering the
// given variables using the edges with the given indices: minimize
// Σ x_e subject to, for each variable, Σ_{e∋v} x_e ≥ 1, x ≥ 0. The
// objective is the fractional edge cover number used as the GHD width.
func (h *Hypergraph) FractionalCover(vars []string, edgeIdx []int) (cover []float64, obj float64, err error) {
	if len(vars) == 0 {
		return make([]float64, len(edgeIdx)), 0, nil
	}
	c := make([]float64, len(edgeIdx))
	for i := range c {
		c[i] = 1
	}
	A := make([][]float64, len(vars))
	b := make([]float64, len(vars))
	for vi, v := range vars {
		A[vi] = make([]float64, len(edgeIdx))
		b[vi] = 1
		for i, ei := range edgeIdx {
			if h.Edges[ei].HasVar(v) {
				A[vi][i] = 1
			}
		}
	}
	return lp.Minimize(c, A, b)
}

// Width returns the fractional edge cover number ρ* of vars using the
// given edges: the exponent of the worst-case output size when every
// relation has the same size. It returns +Inf when the edges cannot cover
// vars.
func (h *Hypergraph) Width(vars []string, edgeIdx []int) float64 {
	_, w, err := h.FractionalCover(vars, edgeIdx)
	if err != nil {
		return math.Inf(1)
	}
	return w
}

// ConnectedComponents partitions the given edges into components, where
// two edges are connected when they share any variable not in the
// separator set. This drives the recursive GHD construction (§3.1).
func (h *Hypergraph) ConnectedComponents(edgeIdx []int, separator map[string]bool) [][]int {
	parent := make(map[int]int, len(edgeIdx))
	for _, e := range edgeIdx {
		parent[e] = e
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	byVar := map[string][]int{}
	for _, ei := range edgeIdx {
		for _, v := range h.Edges[ei].Vars {
			if !separator[v] {
				byVar[v] = append(byVar[v], ei)
			}
		}
	}
	for _, es := range byVar {
		for i := 1; i < len(es); i++ {
			union(es[0], es[i])
		}
	}
	groups := map[int][]int{}
	for _, ei := range edgeIdx {
		r := find(ei)
		groups[r] = append(groups[r], ei)
	}
	var comps [][]int
	for _, g := range groups {
		sort.Ints(g)
		comps = append(comps, g)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// String renders the hypergraph for debugging.
func (h *Hypergraph) String() string {
	s := "H{"
	for i, e := range h.Edges {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s%v", e.Rel, e.Vars)
	}
	return s + "}"
}
