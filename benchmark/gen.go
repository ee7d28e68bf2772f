package main

import (
	"math"
	"slices"
	"sort"
)

// The benchmark owns its input generator so that no change to
// internal/gen or internal/datasets can shift what is measured: the
// engine and the server receive only edge columns, an edge-list file and
// query texts.

// rng is splitmix64: small, seedable, and frozen here (math/rand's
// stream is not ours to pin).
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// sampler draws indexes with probability proportional to fixed weights
// (cumulative sums + binary search).
type sampler struct{ cum []float64 }

func newSampler(weights []float64) *sampler {
	cum := make([]float64, len(weights))
	var s float64
	for i, w := range weights {
		s += w
		cum[i] = s
	}
	return &sampler{cum: cum}
}

func (s *sampler) draw(r *rng) int {
	return s.drawAt(r.float())
}

// drawAt maps u in [0,1) through the inverse cumulative distribution.
func (s *sampler) drawAt(u float64) int {
	return min(sort.SearchFloat64s(s.cum, u*s.cum[len(s.cum)-1]), len(s.cum)-1)
}

// stratified draws from a sampler in blocks: each block of stratum draws
// takes one point from every 1/stratum-wide band of [0,1), in seeded
// order. Every draw still has the sampler's distribution, but how often
// a heavy item comes up in a window varies far less than with
// independent draws, so throughput depends less on the luck of the seed.
type stratified struct {
	s    *sampler
	r    *rng
	band []int
	next int
}

const stratum = 64

func newStratified(s *sampler, r *rng) *stratified {
	return &stratified{s: s, r: r, band: make([]int, stratum), next: stratum}
}

func (st *stratified) draw() int {
	if st.next == stratum {
		for i := range st.band {
			st.band[i] = i
		}
		for i := stratum - 1; i > 0; i-- {
			j := st.r.intn(i + 1)
			st.band[i], st.band[j] = st.band[j], st.band[i]
		}
		st.next = 0
	}
	u := (float64(st.band[st.next]) + st.r.float()) / stratum
	st.next++
	return st.s.drawAt(u)
}

// zipfSampler draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s.
func zipfSampler(n int, s float64) *sampler {
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
	}
	return newSampler(w)
}

// graphSpec sizes one Chung-Lu graph. The expected-degree sequence is the
// deterministic power law w_i ∝ (i+offset)^(-1/(exponent-1)); only the
// edge draws depend on the seed, so graphs of different seeds have the
// same shape and the metrics' spread across seeds stays small.
type graphSpec struct {
	Name     string  `json:"name"`
	Nodes    int     `json:"nodes"`
	Edges    int     `json:"edges"` // distinct undirected edges, self loops excluded
	Exponent float64 `json:"exponent"`
	Offset   float64 `json:"offset"`
	// Reserve adds 2×Reserve nodes beyond the Chung-Lu part, joined by a
	// perfect matching A[i]–B[i]. serve_mixed inserts and deletes only
	// edges A[i]–B[j], i≠j: that part stays bipartite (triangle-free) and
	// disconnected from the Chung-Lu part, so every read query has one
	// correct answer no matter which batches have applied. The matching
	// puts the reserve ids in the server's dictionary.
	Reserve int `json:"reserve"`
}

// graphData is a generated undirected graph. Ids are dense 0..N-1 in
// order of first appearance in (Src, Dst), so an edge-list file written
// in that order gives every id its own value as dictionary code.
type graphData struct {
	Spec     graphSpec
	N        int      // all ids, reserve included
	NBase    int      // ids below NBase belong to the Chung-Lu part
	Src, Dst []uint32 // each undirected edge once, generation order
	Adj      [][]uint32
}

// reserveA and reserveB interleave, so the matching's file order is also
// id order.
func (g *graphData) reserveA(i int) uint32 { return uint32(g.NBase + 2*i) }
func (g *graphData) reserveB(i int) uint32 { return uint32(g.NBase + 2*i + 1) }

func edgeKey(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }

func generate(spec graphSpec, seed uint64) *graphData {
	r := newRNG(seed)
	alpha := 1 / (spec.Exponent - 1)
	w := make([]float64, spec.Nodes)
	for i := range w {
		w[i] = math.Pow(float64(i)+spec.Offset, -alpha)
	}
	s := newSampler(w)
	seen := make(map[uint64]struct{}, spec.Edges)
	relabel := make(map[uint32]uint32, spec.Nodes)
	code := func(v uint32) uint32 {
		c, ok := relabel[v]
		if !ok {
			c = uint32(len(relabel))
			relabel[v] = c
		}
		return c
	}
	g := &graphData{Spec: spec}
	for len(g.Src) < spec.Edges {
		u, v := uint32(s.draw(r)), uint32(s.draw(r))
		if u == v {
			continue
		}
		k := edgeKey(min(u, v), max(u, v))
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		g.Src = append(g.Src, code(u))
		g.Dst = append(g.Dst, code(v))
	}
	g.NBase = len(relabel)
	g.N = g.NBase + 2*spec.Reserve
	for i := range spec.Reserve {
		g.Src = append(g.Src, g.reserveA(i))
		g.Dst = append(g.Dst, g.reserveB(i))
	}
	g.Adj = adjacency(g.N, g.Src, g.Dst)
	return g
}

// adjacency builds sorted symmetric neighbour lists.
func adjacency(n int, src, dst []uint32) [][]uint32 {
	deg := make([]int, n)
	for i := range src {
		deg[src[i]]++
		deg[dst[i]]++
	}
	adj := make([][]uint32, n)
	for v, d := range deg {
		adj[v] = make([]uint32, 0, d)
	}
	for i := range src {
		adj[src[i]] = append(adj[src[i]], dst[i])
		adj[dst[i]] = append(adj[dst[i]], src[i])
	}
	for _, ns := range adj {
		slices.Sort(ns)
	}
	return adj
}

// maxDegreeNode returns the Chung-Lu node with the most neighbours
// (lowest id on ties).
func (g *graphData) maxDegreeNode() uint32 {
	best := 0
	for v := 1; v < g.NBase; v++ {
		if len(g.Adj[v]) > len(g.Adj[best]) {
			best = v
		}
	}
	return uint32(best)
}

// prunedColumns relabels nodes by descending degree and keeps each edge
// once, from the higher new id to the lower — the degree-ordered,
// src>dst pruned input the paper gives symmetric pattern queries (§5.2.1).
func (g *graphData) prunedColumns() (src, dst []uint32) {
	order := make([]uint32, g.N)
	for v := range order {
		order[v] = uint32(v)
	}
	sort.SliceStable(order, func(i, j int) bool { return len(g.Adj[order[i]]) > len(g.Adj[order[j]]) })
	rank := make([]uint32, g.N)
	for r, v := range order {
		rank[v] = uint32(r)
	}
	src = make([]uint32, len(g.Src))
	dst = make([]uint32, len(g.Src))
	for i := range g.Src {
		a, b := rank[g.Src[i]], rank[g.Dst[i]]
		src[i], dst[i] = max(a, b), min(a, b)
	}
	return src, dst
}
