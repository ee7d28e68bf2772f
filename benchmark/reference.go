package main

import (
	"sort"
)

// Reference answers, computed from the generated adjacency lists by code
// that shares nothing with the engine: nested loops over sorted
// neighbour lists, closed forms over per-node triangle counts, BFS and
// plain power iteration. They are computed outside every timed region.

// answers holds every reference answer for one generated graph.
type answers struct {
	Triangles int64     // undirected triangles
	PerNode   []int64   // triangles through each node
	K4        int64     // 4-cliques
	L31       int64     // lollipop matches on the symmetric relation
	B31       int64     // barbell matches on the symmetric relation
	Start     uint32    // SSSP source: the max-degree node
	PageRank  []float64 // rank of each node after pageRankIters rounds
	Dist      []int32   // SSSP distance of each node, -1 when unreached
}

// referenceAnswers computes them all.
func referenceAnswers(g *graphData) *answers {
	a := patternReference(g)
	a.Start = g.maxDegreeNode()
	a.PageRank = pageRankReference(g, pageRankIters)
	a.Dist = ssspReference(g, a.Start)
	return a
}

// corrupt falsifies every reference answer; --corrupt-reference uses it
// to show that the checks can fail.
func (a *answers) corrupt() {
	a.Triangles++
	a.K4++
	a.L31++
	a.B31++
	for i := range a.PerNode {
		a.PerNode[i]++
	}
	for i := range a.PageRank {
		a.PageRank[i] *= 1.001
	}
	for i := range a.Dist {
		a.Dist[i]++
	}
}

// forward orients every edge from its lower-ranked to its higher-ranked
// endpoint (rank = degree, ties by id), so each triangle and 4-clique is
// enumerated exactly once and high-degree nodes keep short lists.
func forward(adj [][]uint32) [][]uint32 {
	less := func(a, b uint32) bool {
		if len(adj[a]) != len(adj[b]) {
			return len(adj[a]) < len(adj[b])
		}
		return a < b
	}
	fwd := make([][]uint32, len(adj))
	for u, ns := range adj {
		for _, v := range ns {
			if less(uint32(u), v) {
				fwd[u] = append(fwd[u], v)
			}
		}
	}
	return fwd
}

// common appends a ∩ b (both sorted) to out.
func common(a, b, out []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// patternReference counts triangles and 4-cliques by nested loops and
// derives the lollipop and barbell counts from the per-node triangle
// counts.
func patternReference(g *graphData) *answers {
	fwd := forward(g.Adj)
	ref := &answers{PerNode: make([]int64, g.N)}
	var uv, uvw []uint32
	for u := range fwd {
		for _, v := range fwd[u] {
			uv = common(fwd[u], fwd[v], uv[:0])
			for _, w := range uv {
				ref.Triangles++
				ref.PerNode[u]++
				ref.PerNode[v]++
				ref.PerNode[w]++
				uvw = common(uv, fwd[w], uvw[:0])
				ref.K4 += int64(len(uvw))
			}
		}
	}
	// L31(x,y,z,w): an ordered triangle at x (2·t(x) choices of y,z) and
	// any neighbour w of x. B31: an edge x–x2 with an ordered triangle at
	// each end; every undirected edge is matched in both directions.
	for x, ns := range g.Adj {
		ref.L31 += 2 * ref.PerNode[x] * int64(len(ns))
	}
	for i := range g.Src {
		ref.B31 += 8 * ref.PerNode[g.Src[i]] * ref.PerNode[g.Dst[i]]
	}
	return ref
}

// pageRankReference runs the paper's PageRank program as plain power
// iteration: rank 1/N to start, then iters rounds of
// 0.15 + 0.85·Σ_{z∈N(x)} rank(z)/deg(z).
func pageRankReference(g *graphData, iters int) []float64 {
	pr := make([]float64, g.N)
	for x := range pr {
		pr[x] = 1 / float64(g.N)
	}
	next := make([]float64, g.N)
	for range iters {
		for x, ns := range g.Adj {
			var s float64
			for _, z := range ns {
				s += pr[z] / float64(len(g.Adj[z]))
			}
			next[x] = 0.15 + 0.85*s
		}
		pr, next = next, pr
	}
	return pr
}

// ssspReference is breadth-first search for the paper's SSSP program:
// the start's neighbours are at distance 1, and the start itself is
// reached back through one of them at distance 2. Unreached nodes are -1.
func ssspReference(g *graphData, start uint32) []int32 {
	dist := make([]int32, g.N)
	for i := range dist {
		dist[i] = -1
	}
	var frontier []uint32
	for _, v := range g.Adj[start] {
		dist[v] = 1
		frontier = append(frontier, v)
	}
	for d := int32(2); len(frontier) > 0; d++ {
		var next []uint32
		for _, u := range frontier {
			for _, v := range g.Adj[u] {
				if dist[v] < 0 {
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// hasEdge reports whether u–v is an edge of the generated graph.
func (g *graphData) hasEdge(u, v uint32) bool {
	if int(u) >= g.N || int(v) >= g.N {
		return false
	}
	ns := g.Adj[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// twoHopCount is |{(y,z) : a–y, y–z}|.
func (g *graphData) twoHopCount(a uint32) int {
	n := 0
	for _, y := range g.Adj[a] {
		n += len(g.Adj[y])
	}
	return n
}

// sharesNeighbour reports whether some y has x–y and y–z.
func (g *graphData) sharesNeighbour(x, z uint32) bool {
	if int(x) >= g.N || int(z) >= g.N {
		return false
	}
	a, b := g.Adj[x], g.Adj[z]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}
