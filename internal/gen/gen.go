// Package gen produces the synthetic inputs of the reproduction: power-law
// (Chung-Lu) and Erdős–Rényi random graphs standing in for the paper's
// datasets (see internal/datasets), plus the synthetic set
// distributions used by the layout experiments (Figures 5 and 6).
package gen

import (
	"math"
	"math/rand"
	"sort"

	"emptyheaded/internal/graph"
)

// PowerLaw generates an undirected Chung-Lu graph: vertex v receives
// expected degree w_v ∝ (v+1)^(−1/(exponent−1)), scaled so the expected
// number of undirected edges is m. This matches the degree-law exponent of
// the SNAP power-law generator used in Figure 7.
func PowerLaw(n int, m int, exponent float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	if exponent <= 1.01 {
		exponent = 1.01
	}
	alpha := 1.0 / (exponent - 1.0)
	w := make([]float64, n)
	var total float64
	for v := 0; v < n; v++ {
		w[v] = math.Pow(float64(v+1), -alpha)
		total += w[v]
	}
	// Cumulative distribution for weighted endpoint sampling.
	cum := make([]float64, n)
	acc := 0.0
	for v := 0; v < n; v++ {
		acc += w[v] / total
		cum[v] = acc
	}
	pick := func() uint32 {
		x := rng.Float64()
		i := sort.SearchFloat64s(cum, x)
		if i >= n {
			i = n - 1
		}
		return uint32(i)
	}
	seen := make(map[uint64]bool, m)
	edges := make([][2]uint32, 0, m)
	attempts := 0
	for len(edges) < m && attempts < 20*m {
		attempts++
		u, v := pick(), pick()
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, [2]uint32{u, v})
	}
	return graph.FromEdges(n, edges, true)
}

// ErdosRenyi generates an undirected G(n, m) random graph.
func ErdosRenyi(n int, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, m)
	edges := make([][2]uint32, 0, m)
	attempts := 0
	for len(edges) < m && attempts < 20*m {
		attempts++
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, [2]uint32{u, v})
	}
	return graph.FromEdges(n, edges, true)
}

// UniformSet samples a sorted set of the given cardinality with values
// drawn uniformly from [0, span). It is the Figure 5 workload: density =
// card/span.
func UniformSet(card int, span uint32, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	if card > int(span) {
		card = int(span)
	}
	m := make(map[uint32]bool, card)
	for len(m) < card {
		m[uint32(rng.Int63n(int64(span)))] = true
	}
	out := make([]uint32, 0, card)
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DenseSparseSet builds the Figure 6 workload: a fully dense region of
// denseCard consecutive values starting at 0, followed by sparseCard
// values scattered uniformly over a wide sparse tail.
func DenseSparseSet(denseCard, sparseCard int, sparseSpan uint32, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint32, 0, denseCard+sparseCard)
	for i := 0; i < denseCard; i++ {
		out = append(out, uint32(i))
	}
	lo := uint32(denseCard)
	m := map[uint32]bool{}
	for len(m) < sparseCard {
		m[lo+uint32(rng.Int63n(int64(sparseSpan)))] = true
	}
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
