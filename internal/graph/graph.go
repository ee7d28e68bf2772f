// Package graph provides the graph substrate of the reproduction: edge
// list loading, dictionary encoding, the node-ordering schemes of
// Appendix A.1, symmetric pruning, and density-skew measurement.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Graph is an in-memory graph over vertices 0..N-1 with sorted adjacency
// lists. For directed graphs Adj holds out-neighbors; undirected graphs
// store each edge in both lists.
type Graph struct {
	N   int
	Adj [][]uint32
}

// Edges returns the number of directed edges (sum of list lengths).
func (g *Graph) Edges() int64 {
	var m int64
	for _, ns := range g.Adj {
		m += int64(len(ns))
	}
	return m
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// MaxDegreeNode returns the vertex with the largest degree (the SSSP start
// node convention of §5.2.2).
func (g *Graph) MaxDegreeNode() uint32 {
	best, bd := 0, -1
	for v := range g.Adj {
		if len(g.Adj[v]) > bd {
			best, bd = v, len(g.Adj[v])
		}
	}
	return uint32(best)
}

// FromEdges builds a graph from (src,dst) pairs; when undirected is set
// each pair is inserted in both directions. Duplicate edges and self-loops
// are dropped.
func FromEdges(n int, edges [][2]uint32, undirected bool) *Graph {
	srcs := make([]uint32, len(edges))
	dsts := make([]uint32, len(edges))
	for i, e := range edges {
		srcs[i], dsts[i] = e[0], e[1]
	}
	return FromEdgeColumns(n, srcs, dsts, undirected)
}

// FromEdgeColumns builds a graph from parallel src/dst columns — the
// columnar bulk-ingestion path. Adjacency is laid out with counting-sort
// placement into one flat backing array (two passes: degree count, then
// scatter), so ingestion does no per-vertex append growth; each list is
// then sorted and deduplicated in place. Duplicate edges, self-loops and
// out-of-range endpoints are dropped.
func FromEdgeColumns(n int, srcs, dsts []uint32, undirected bool) *Graph {
	if len(srcs) != len(dsts) {
		panic(fmt.Sprintf("graph: %d srcs, %d dsts", len(srcs), len(dsts)))
	}
	deg := make([]int, n)
	for i := range srcs {
		u, v := srcs[i], dsts[i]
		if u == v || int(u) >= n || int(v) >= n {
			continue
		}
		deg[u]++
		if undirected {
			deg[v]++
		}
	}
	total := 0
	pos := make([]int, n)
	for v, d := range deg {
		pos[v] = total
		total += d
	}
	flat := make([]uint32, total)
	fill := make([]int, n)
	copy(fill, pos)
	for i := range srcs {
		u, v := srcs[i], dsts[i]
		if u == v || int(u) >= n || int(v) >= n {
			continue
		}
		flat[fill[u]] = v
		fill[u]++
		if undirected {
			flat[fill[v]] = u
			fill[v]++
		}
	}
	adj := make([][]uint32, n)
	for v := range adj {
		adj[v] = sortDedup(flat[pos[v] : pos[v]+deg[v]])
	}
	return &Graph{N: n, Adj: adj}
}

func sortDedup(ns []uint32) []uint32 {
	if len(ns) == 0 {
		return ns
	}
	slices.Sort(ns)
	out := ns[:1]
	for _, v := range ns[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Dictionary maps original vertex identifiers to dense 32-bit codes
// (§2.2 "Dictionary Encoding").
type Dictionary struct {
	toCode map[int64]uint32
	toOrig []int64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{toCode: map[int64]uint32{}}
}

// Encode returns the code for orig, assigning the next code on first use.
func (d *Dictionary) Encode(orig int64) uint32 {
	if c, ok := d.toCode[orig]; ok {
		return c
	}
	c := uint32(len(d.toOrig))
	d.toCode[orig] = c
	d.toOrig = append(d.toOrig, orig)
	return c
}

// Lookup returns the code for orig without assigning.
func (d *Dictionary) Lookup(orig int64) (uint32, bool) {
	c, ok := d.toCode[orig]
	return c, ok
}

// Decode returns the original identifier for a code.
func (d *Dictionary) Decode(code uint32) int64 { return d.toOrig[code] }

// Len returns the number of encoded identifiers.
func (d *Dictionary) Len() int { return len(d.toOrig) }

// Origs exposes the code → original-identifier column (index = code).
// The slice is the dictionary's backing store; callers must not modify
// it. The snapshot writer serializes it verbatim.
func (d *Dictionary) Origs() []int64 { return d.toOrig }

// DictFromOrigs rebuilds a dictionary from its code → original column
// (the snapshot restore path): code i maps to origs[i]. The reverse map
// is reconstructed eagerly.
func DictFromOrigs(origs []int64) *Dictionary {
	d := &Dictionary{toCode: make(map[int64]uint32, len(origs)), toOrig: origs}
	for c, o := range origs {
		d.toCode[o] = uint32(c)
	}
	return d
}

// Permute renumbers the dictionary with perm (perm[oldCode] = newCode),
// keeping original identifiers attached to their vertices.
func (d *Dictionary) Permute(perm []uint32) {
	orig := make([]int64, len(d.toOrig))
	for oldCode, o := range d.toOrig {
		orig[perm[oldCode]] = o
	}
	d.toOrig = orig
	for o, c := range d.toCode {
		d.toCode[o] = perm[c]
	}
}

// FromEdgePairs dictionary-encodes (src,dst) pairs given as original
// identifiers and builds the graph — the in-memory twin of ParseEdgeList,
// used by the query service's inline /load.
func FromEdgePairs(pairs [][2]int64, undirected bool) (*Graph, *Dictionary) {
	dict := NewDictionary()
	srcs := make([]uint32, len(pairs))
	dsts := make([]uint32, len(pairs))
	for i, p := range pairs {
		srcs[i], dsts[i] = dict.Encode(p[0]), dict.Encode(p[1])
	}
	return FromEdgeColumns(dict.Len(), srcs, dsts, undirected), dict
}

// ParseEdgeList reads a whitespace-separated "src dst" edge list (# or %
// comment lines are skipped), dictionary-encodes the vertex identifiers
// and returns the graph plus the dictionary.
func ParseEdgeList(r io.Reader, undirected bool) (*Graph, *Dictionary, error) {
	dict := NewDictionary()
	var srcs, dsts []uint32 // parsed straight into columns
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want 'src dst', got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		srcs = append(srcs, dict.Encode(u))
		dsts = append(dsts, dict.Encode(v))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return FromEdgeColumns(dict.Len(), srcs, dsts, undirected), dict, nil
}

// WriteEdgeList writes the graph as "src dst" lines.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for u, ns := range g.Adj {
		for _, v := range ns {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Relabel applies perm (perm[old] = new) and returns the renumbered graph.
func (g *Graph) Relabel(perm []uint32) *Graph {
	adj := make([][]uint32, g.N)
	for u, ns := range g.Adj {
		nu := perm[u]
		out := make([]uint32, len(ns))
		for i, v := range ns {
			out[i] = perm[v]
		}
		slices.Sort(out)
		adj[nu] = out
	}
	return &Graph{N: g.N, Adj: adj}
}

// Prune keeps only edges with src > dst, the standard symmetric-query
// preprocessing of §5.2.1 ("each undirected edge is pruned such that
// srcid > dstid"); it assumes ids were already assigned by the desired
// ordering.
func (g *Graph) Prune() *Graph {
	adj := make([][]uint32, g.N)
	for u, ns := range g.Adj {
		for _, v := range ns {
			if uint32(u) > v {
				adj[u] = append(adj[u], v)
			}
		}
	}
	for v := range adj {
		adj[v] = sortDedup(adj[v])
	}
	return &Graph{N: g.N, Adj: adj}
}

// DensitySkew measures Pearson's first skewness coefficient of the degree
// distribution, 3·(mean − mode)/σ — the paper's density-skew metric
// (§4 footnote 4, Table 3).
func (g *Graph) DensitySkew() float64 {
	if g.N == 0 {
		return 0
	}
	counts := map[int]int{}
	var sum, sumSq float64
	for _, ns := range g.Adj {
		d := float64(len(ns))
		sum += d
		sumSq += d * d
		counts[len(ns)]++
	}
	n := float64(g.N)
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance <= 0 {
		return 0
	}
	mode, best := 0, -1
	for d, c := range counts {
		if c > best || (c == best && d < mode) {
			mode, best = d, c
		}
	}
	return 3 * (mean - float64(mode)) / math.Sqrt(variance)
}
