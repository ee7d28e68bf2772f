package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// Ordering identifies a node-ordering scheme (Appendix A.1.1).
type Ordering uint8

const (
	// OrderNone keeps the input numbering.
	OrderNone Ordering = iota
	// OrderRandom shuffles vertex ids (the Appendix A.1 baseline).
	OrderRandom
	// OrderBFS labels vertices in breadth-first order from the highest
	// degree vertex.
	OrderBFS
	// OrderDegree sorts by descending degree (the standard graph-engine
	// choice, used for the pruned triangle benchmarks).
	OrderDegree
	// OrderRevDegree sorts by ascending degree.
	OrderRevDegree
	// OrderStrongRun sorts by degree, then assigns consecutive ids to the
	// neighbors of each vertex in that order (a BFS approximation).
	OrderStrongRun
	// OrderShingle orders by neighborhood similarity via min-hash
	// shingles (Chierichetti et al.).
	OrderShingle
	// OrderHybrid is BFS followed by a stable sort on descending degree
	// (the paper's proposed hybrid, Appendix A.1.1).
	OrderHybrid
)

// String returns the ordering name as used in Table 9 / Figure 7.
func (o Ordering) String() string {
	switch o {
	case OrderNone:
		return "none"
	case OrderRandom:
		return "random"
	case OrderBFS:
		return "bfs"
	case OrderDegree:
		return "degree"
	case OrderRevDegree:
		return "revdegree"
	case OrderStrongRun:
		return "strongrun"
	case OrderShingle:
		return "shingle"
	case OrderHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Ordering(%d)", uint8(o))
}

// Orderings lists every scheme benchmarked in Table 9 and Figure 7.
var Orderings = []Ordering{
	OrderRandom, OrderBFS, OrderDegree, OrderRevDegree,
	OrderStrongRun, OrderShingle, OrderHybrid,
}

// Permutation computes perm[old] = new for the ordering; seed feeds the
// randomized schemes (Random, Shingle hashing).
func (g *Graph) Permutation(o Ordering, seed int64) []uint32 {
	switch o {
	case OrderNone:
		perm := make([]uint32, g.N)
		for i := range perm {
			perm[i] = uint32(i)
		}
		return perm
	case OrderRandom:
		return g.randomPerm(seed)
	case OrderBFS:
		return g.bfsPerm()
	case OrderDegree:
		return g.degreePerm(false)
	case OrderRevDegree:
		return g.degreePerm(true)
	case OrderStrongRun:
		return g.strongRunPerm()
	case OrderShingle:
		return g.shinglePerm(seed)
	case OrderHybrid:
		return g.hybridPerm()
	}
	panic("graph: unknown ordering")
}

// Reorder relabels the graph under the ordering.
func (g *Graph) Reorder(o Ordering, seed int64) *Graph {
	return g.Relabel(g.Permutation(o, seed))
}

func (g *Graph) randomPerm(seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	perm := make([]uint32, g.N)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng.Shuffle(g.N, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// rankToPerm converts a visit order (rank[i] = i-th visited vertex) into a
// relabeling permutation.
func rankToPerm(order []uint32) []uint32 {
	perm := make([]uint32, len(order))
	for newID, old := range order {
		perm[old] = uint32(newID)
	}
	return perm
}

func (g *Graph) bfsPerm() []uint32 {
	visited := make([]bool, g.N)
	order := make([]uint32, 0, g.N)
	// Seed the BFS from the highest-degree vertex; restart from the next
	// unvisited highest-degree vertex for disconnected graphs.
	byDeg := g.verticesByDegree(false)
	queue := make([]uint32, 0, g.N)
	for _, s := range byDeg {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range g.Adj[v] {
				if !visited[w] {
					visited[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return rankToPerm(order)
}

func (g *Graph) verticesByDegree(ascending bool) []uint32 {
	vs := make([]uint32, g.N)
	for i := range vs {
		vs[i] = uint32(i)
	}
	sort.SliceStable(vs, func(i, j int) bool {
		di, dj := len(g.Adj[vs[i]]), len(g.Adj[vs[j]])
		if di != dj {
			if ascending {
				return di < dj
			}
			return di > dj
		}
		return vs[i] < vs[j]
	})
	return vs
}

func (g *Graph) degreePerm(ascending bool) []uint32 {
	return rankToPerm(g.verticesByDegree(ascending))
}

func (g *Graph) strongRunPerm() []uint32 {
	byDeg := g.verticesByDegree(false)
	assigned := make([]bool, g.N)
	order := make([]uint32, 0, g.N)
	take := func(v uint32) {
		if !assigned[v] {
			assigned[v] = true
			order = append(order, v)
		}
	}
	for _, v := range byDeg {
		take(v)
		for _, w := range g.Adj[v] {
			take(w)
		}
	}
	return rankToPerm(order)
}

func (g *Graph) shinglePerm(seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	// Random hash h(v) = (a·v + b) mod p over a large prime.
	const p = 2147483647
	a := uint64(rng.Int63n(p-1) + 1)
	b := uint64(rng.Int63n(p))
	hash := func(v uint32) uint64 { return (a*uint64(v) + b) % p }
	shingle := make([]uint64, g.N)
	for v := range g.Adj {
		best := uint64(p)
		for _, w := range g.Adj[v] {
			if h := hash(w); h < best {
				best = h
			}
		}
		shingle[v] = best
	}
	vs := make([]uint32, g.N)
	for i := range vs {
		vs[i] = uint32(i)
	}
	sort.SliceStable(vs, func(i, j int) bool {
		if shingle[vs[i]] != shingle[vs[j]] {
			return shingle[vs[i]] < shingle[vs[j]]
		}
		return len(g.Adj[vs[i]]) > len(g.Adj[vs[j]])
	})
	return rankToPerm(vs)
}

func (g *Graph) hybridPerm() []uint32 {
	// BFS order, then stable sort by descending degree: equal-degree
	// vertices retain their BFS relative order (Appendix A.1.1).
	bfs := g.bfsPerm() // bfs[old] = bfs rank
	vs := make([]uint32, g.N)
	for i := range vs {
		vs[i] = uint32(i)
	}
	sort.SliceStable(vs, func(i, j int) bool {
		di, dj := len(g.Adj[vs[i]]), len(g.Adj[vs[j]])
		if di != dj {
			return di > dj
		}
		return bfs[vs[i]] < bfs[vs[j]]
	})
	return rankToPerm(vs)
}
