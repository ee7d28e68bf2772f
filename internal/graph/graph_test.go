package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func square() *Graph {
	// 0-1-2-3-0 cycle plus chord 0-2.
	return FromEdges(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}, true)
}

func TestFromEdges(t *testing.T) {
	g := square()
	if g.N != 4 || g.Edges() != 10 {
		t.Fatalf("N=%d M=%d", g.N, g.Edges())
	}
	if !reflect.DeepEqual(g.Adj[0], []uint32{1, 2, 3}) {
		t.Fatalf("adj[0]=%v", g.Adj[0])
	}
	// Self loops and duplicates dropped.
	g2 := FromEdges(3, [][2]uint32{{0, 0}, {0, 1}, {0, 1}, {1, 0}}, false)
	if g2.Edges() != 2 {
		t.Fatalf("M=%d want 2", g2.Edges())
	}
}

func TestParseEdgeList(t *testing.T) {
	src := `# comment
10 20
20 30
10 30
% another comment
30 10
`
	g, dict, err := ParseEdgeList(strings.NewReader(src), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || dict.Len() != 3 {
		t.Fatalf("N=%d dict=%d", g.N, dict.Len())
	}
	c10, _ := dict.Lookup(10)
	c30, _ := dict.Lookup(30)
	found := false
	for _, v := range g.Adj[c30] {
		if v == c10 {
			found = true
		}
	}
	if !found {
		t.Fatal("edge 30→10 missing")
	}
	if dict.Decode(c10) != 10 {
		t.Fatal("decode broken")
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	if _, _, err := ParseEdgeList(strings.NewReader("1\n"), false); err == nil {
		t.Fatal("single-field line should error")
	}
	if _, _, err := ParseEdgeList(strings.NewReader("a b\n"), false); err == nil {
		t.Fatal("non-numeric should error")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	g := square()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ParseEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Edges() != g.Edges() {
		t.Fatalf("edges %d vs %d", g2.Edges(), g.Edges())
	}
}

func TestPrune(t *testing.T) {
	g := square()
	p := g.Prune()
	if p.Edges() != 5 {
		t.Fatalf("pruned edges=%d want 5", p.Edges())
	}
	for u, ns := range p.Adj {
		for _, v := range ns {
			if uint32(u) <= v {
				t.Fatalf("pruned edge %d→%d violates src>dst", u, v)
			}
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := square()
	perm := []uint32{3, 2, 1, 0}
	r := g.Relabel(perm)
	if r.Edges() != g.Edges() {
		t.Fatalf("edges %d vs %d", r.Edges(), g.Edges())
	}
	// Edge 0-1 becomes 3-2.
	found := false
	for _, v := range r.Adj[3] {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("relabeled edge missing")
	}
}

func TestOrderingsArePermutations(t *testing.T) {
	g := FromEdges(50, genChain(50), true)
	for _, o := range Orderings {
		perm := g.Permutation(o, 42)
		if len(perm) != g.N {
			t.Fatalf("%s: len=%d", o, len(perm))
		}
		seen := make([]bool, g.N)
		for _, p := range perm {
			if int(p) >= g.N || seen[p] {
				t.Fatalf("%s: not a permutation", o)
			}
			seen[p] = true
		}
		r := g.Reorder(o, 42)
		if r.Edges() != g.Edges() {
			t.Fatalf("%s: edges %d vs %d", o, r.Edges(), g.Edges())
		}
	}
}

func genChain(n int) [][2]uint32 {
	var es [][2]uint32
	for i := 0; i+1 < n; i++ {
		es = append(es, [2]uint32{uint32(i), uint32(i + 1)})
	}
	return es
}

func TestDegreeOrdering(t *testing.T) {
	// Star: center has max degree → new id 0 under degree ordering.
	edges := [][2]uint32{{4, 0}, {4, 1}, {4, 2}, {4, 3}}
	g := FromEdges(5, edges, true)
	perm := g.Permutation(OrderDegree, 0)
	if perm[4] != 0 {
		t.Fatalf("center got id %d want 0", perm[4])
	}
	rev := g.Permutation(OrderRevDegree, 0)
	if rev[4] != 4 {
		t.Fatalf("center got id %d want 4 under revdegree", rev[4])
	}
}

func TestBFSOrderingStartsAtMaxDegree(t *testing.T) {
	edges := [][2]uint32{{4, 0}, {4, 1}, {4, 2}, {4, 3}, {0, 1}}
	g := FromEdges(5, edges, true)
	perm := g.Permutation(OrderBFS, 0)
	if perm[4] != 0 {
		t.Fatalf("BFS should start at max-degree vertex, perm[4]=%d", perm[4])
	}
}

func TestBFSHandlesDisconnected(t *testing.T) {
	g := FromEdges(6, [][2]uint32{{0, 1}, {2, 3}, {4, 5}}, true)
	perm := g.Permutation(OrderBFS, 0)
	seen := make([]bool, 6)
	for _, p := range perm {
		seen[p] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("vertex id %d unassigned", i)
		}
	}
}

func TestHybridEqualsDegreeOnDistinctDegrees(t *testing.T) {
	// When all degrees are distinct, hybrid == degree ordering.
	edges := [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}}
	g := FromEdges(5, edges, true)
	hd := g.Permutation(OrderHybrid, 0)
	dg := g.Permutation(OrderDegree, 0)
	if hd[3] != dg[3] {
		t.Fatalf("highest degree mismatch: hybrid=%d degree=%d", hd[3], dg[3])
	}
}

func TestMaxDegreeNode(t *testing.T) {
	g := FromEdges(5, [][2]uint32{{4, 0}, {4, 1}, {4, 2}, {4, 3}}, true)
	if g.MaxDegreeNode() != 4 {
		t.Fatalf("MaxDegreeNode=%d", g.MaxDegreeNode())
	}
}

func TestDensitySkew(t *testing.T) {
	// Regular graph: zero skew (mean == mode).
	reg := FromEdges(6, [][2]uint32{{0, 1}, {2, 3}, {4, 5}}, true)
	if s := reg.DensitySkew(); s != 0 {
		t.Fatalf("regular graph skew=%v want 0", s)
	}
	// Star graph: one huge hub, many degree-1 leaves → positive skew.
	var es [][2]uint32
	for i := uint32(1); i < 100; i++ {
		es = append(es, [2]uint32{0, i})
	}
	star := FromEdges(100, es, true)
	if s := star.DensitySkew(); s <= 0 {
		t.Fatalf("star skew=%v want >0", s)
	}
}

func TestDictionaryPermute(t *testing.T) {
	d := NewDictionary()
	a := d.Encode(100) // 0
	b := d.Encode(200) // 1
	d.Permute([]uint32{1, 0})
	if d.Decode(1) != 100 || d.Decode(0) != 200 {
		t.Fatal("permuted decode wrong")
	}
	na, _ := d.Lookup(100)
	nb, _ := d.Lookup(200)
	if na != 1 || nb != 0 {
		t.Fatalf("permuted lookup: %d %d (was %d %d)", na, nb, a, b)
	}
}
