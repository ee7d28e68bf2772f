package ghd

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"emptyheaded/internal/hypergraph"
)

func edge(name, rel string, vars ...string) hypergraph.Edge {
	return hypergraph.Edge{Name: name, Rel: rel, Vars: vars}
}

func triangleH() *hypergraph.Hypergraph {
	return hypergraph.New([]hypergraph.Edge{
		edge("R#0", "R", "x", "y"),
		edge("S#1", "S", "y", "z"),
		edge("T#2", "T", "x", "z"),
	})
}

func barbellH() *hypergraph.Hypergraph {
	return hypergraph.New([]hypergraph.Edge{
		edge("R#0", "R", "x", "y"),
		edge("S#1", "S", "y", "z"),
		edge("T#2", "T", "x", "z"),
		edge("U#3", "U", "x", "x2"),
		edge("R2#4", "R", "x2", "y2"),
		edge("S2#5", "S", "y2", "z2"),
		edge("T2#6", "T", "x2", "z2"),
	})
}

func lollipopH() *hypergraph.Hypergraph {
	return hypergraph.New([]hypergraph.Edge{
		edge("R#0", "R", "x", "y"),
		edge("S#1", "S", "y", "z"),
		edge("T#2", "T", "x", "z"),
		edge("U#3", "U", "x", "w"),
	})
}

func fourCliqueH() *hypergraph.Hypergraph {
	return hypergraph.New([]hypergraph.Edge{
		edge("R#0", "R", "x", "y"),
		edge("S#1", "S", "y", "z"),
		edge("T#2", "T", "x", "z"),
		edge("U#3", "U", "x", "w"),
		edge("V#4", "V", "y", "w"),
		edge("Q#5", "Q", "z", "w"),
	})
}

func TestTriangleGHD(t *testing.T) {
	g := Decompose(triangleH(), Options{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Bags != 1 {
		t.Fatalf("triangle bags=%d want 1\n%s", g.Bags, g)
	}
	if math.Abs(g.Width-1.5) > 1e-6 {
		t.Fatalf("triangle width=%v want 1.5", g.Width)
	}
}

func TestFourCliqueGHD(t *testing.T) {
	// "GHD optimizations do not matter on the K4 query as the optimal
	// query plan is a single node GHD" (§5.3.1).
	g := Decompose(fourCliqueH(), Options{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Bags != 1 {
		t.Fatalf("4-clique bags=%d want 1\n%s", g.Bags, g)
	}
	if math.Abs(g.Width-2.0) > 1e-6 {
		t.Fatalf("4-clique width=%v want 2", g.Width)
	}
}

func TestLollipopGHD(t *testing.T) {
	g := Decompose(lollipopH(), Options{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Bags != 2 {
		t.Fatalf("lollipop bags=%d want 2\n%s", g.Bags, g)
	}
	if math.Abs(g.Width-1.5) > 1e-6 {
		t.Fatalf("lollipop width=%v want 1.5", g.Width)
	}
}

func TestBarbellGHD(t *testing.T) {
	// Figure 3c: triangle bags hang off the U(x,x') bag; width 3/2,
	// versus width 3 for the single-bag plan (Fig. 3b).
	g := Decompose(barbellH(), Options{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Width-1.5) > 1e-6 {
		t.Fatalf("barbell width=%v want 1.5\n%s", g.Width, g)
	}
	if g.Bags != 3 {
		t.Fatalf("barbell bags=%d want 3\n%s", g.Bags, g)
	}

	single := Decompose(barbellH(), Options{SingleBag: true})
	if single.Bags != 1 {
		t.Fatalf("single-bag option ignored: %d bags", single.Bags)
	}
	if math.Abs(single.Width-3.0) > 1e-6 {
		t.Fatalf("single-bag barbell width=%v want 3", single.Width)
	}
	if err := single.Validate(); err != nil {
		t.Fatal(err)
	}
}

// bagShape renders a bag's subtree with variables renamed by first
// appearance, so two bags joining the same relations in the same pattern
// render alike whatever their variable names.
func bagShape(g *GHD, b *Bag) string {
	rename := map[string]int{}
	var canon func(b *Bag) string
	canon = func(b *Bag) string {
		var parts []string
		for _, ei := range b.Edges {
			e := g.H.Edges[ei]
			vs := make([]string, len(e.Vars))
			for i, v := range e.Vars {
				if _, ok := rename[v]; !ok {
					rename[v] = len(rename)
				}
				vs[i] = strconv.Itoa(rename[v])
			}
			parts = append(parts, e.Rel+"("+strings.Join(vs, ",")+")")
		}
		for _, c := range b.Children {
			parts = append(parts, "{"+canon(c)+"}")
		}
		return strings.Join(parts, ",")
	}
	return canon(b)
}

func TestBarbellRedundantBags(t *testing.T) {
	// The two triangle bags of the Barbell GHD are equivalent
	// (Appendix B.2): same relations, same structure. The planner's bag
	// dedup relies on Decompose producing them alike.
	g := Decompose(barbellH(), Options{})
	var triBags []*Bag
	var visit func(b *Bag)
	visit = func(b *Bag) {
		if len(b.Edges) == 3 {
			triBags = append(triBags, b)
		}
		for _, c := range b.Children {
			visit(c)
		}
	}
	visit(g.Root)
	if len(triBags) != 2 {
		t.Fatalf("found %d triangle bags, want 2\n%s", len(triBags), g)
	}
	s0 := bagShape(g, triBags[0])
	s1 := bagShape(g, triBags[1])
	if s0 != s1 {
		t.Fatalf("triangle bags not equivalent:\n%s\n%s", s0, s1)
	}
}

func TestAttributeOrderPreOrder(t *testing.T) {
	g := Decompose(lollipopH(), Options{})
	order := g.AttributeOrder(nil)
	if len(order) != 4 {
		t.Fatalf("order=%v", order)
	}
	seen := map[string]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("duplicate attr %s in %v", v, order)
		}
		seen[v] = true
	}
	for _, v := range []string{"x", "y", "z", "w"} {
		if !seen[v] {
			t.Fatalf("missing attr %s in %v", v, order)
		}
	}
}

func TestSelectionPushdown(t *testing.T) {
	// 4-clique selection query (Fig. 8 / Table 12): P(x,'node') should be
	// pushed below the clique bag when pushdown is enabled, and grafted
	// above it (executed last) when disabled.
	h := hypergraph.New([]hypergraph.Edge{
		edge("R#0", "R", "x", "y"),
		edge("S#1", "S", "y", "z"),
		edge("T#2", "T", "x", "z"),
		edge("U#3", "U", "x", "w"),
		edge("V#4", "V", "y", "w"),
		edge("Q#5", "Q", "z", "w"),
		edge("P#6", "P", "x"),
	})
	selEdges := []int{6}
	g := Decompose(h, Options{SelectionEdges: selEdges})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Bags != 2 {
		t.Fatalf("pushdown bags=%d want 2\n%s", g.Bags, g)
	}
	// Pushdown: P is a leaf below the clique bag (Fig. 8b).
	if len(g.Root.Edges) != 6 || len(g.Root.Children) != 1 ||
		g.Root.Children[0].Edges[0] != 6 {
		t.Fatalf("pushdown shape wrong:\n%s", g)
	}
	gNo := Decompose(h, Options{SelectionEdges: selEdges, NoPushdown: true})
	if err := gNo.Validate(); err != nil {
		t.Fatal(err)
	}
	// No pushdown: P is the root; the clique computes below it (Fig. 8a).
	if gNo.Root.Edges[0] != 6 || len(gNo.Root.Children) != 1 {
		t.Fatalf("no-pushdown shape wrong:\n%s", gNo)
	}
	if selectionDepth(g, selEdges) <= selectionDepth(gNo, selEdges) {
		t.Fatalf("pushdown depth %d should exceed no-pushdown %d",
			selectionDepth(g, selEdges), selectionDepth(gNo, selEdges))
	}
	// Attribute order puts the selected variable first.
	order := g.AttributeOrder(map[string]bool{"x": true})
	if order[0] != "x" {
		t.Fatalf("selected attr not first: %v", order)
	}
}

func TestBarbellSelectionPushdown(t *testing.T) {
	// Barbell selection (Table 12): U(x,'node'), V('node',x2) become unary
	// selection atoms; with pushdown each hangs under its triangle.
	h := hypergraph.New([]hypergraph.Edge{
		edge("R#0", "R", "x", "y"),
		edge("S#1", "S", "y", "z"),
		edge("T#2", "T", "x", "z"),
		edge("U#3", "U", "x"),
		edge("V#4", "V", "x2"),
		edge("R2#5", "R", "x2", "y2"),
		edge("S2#6", "S", "y2", "z2"),
		edge("T2#7", "T", "x2", "z2"),
	})
	selEdges := []int{3, 4}
	g := Decompose(h, Options{SelectionEdges: selEdges})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Bags != 4 {
		t.Fatalf("bags=%d want 4\n%s", g.Bags, g)
	}
	if g.Width > 1.5+1e-9 {
		t.Fatalf("width=%v want 1.5\n%s", g.Width, g)
	}
	gNo := Decompose(h, Options{SelectionEdges: selEdges, NoPushdown: true})
	if err := gNo.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, gNo)
	}
	if selectionDepth(g, selEdges) <= selectionDepth(gNo, selEdges) {
		t.Fatalf("pushdown depth %d should exceed no-pushdown %d\n%s\n%s",
			selectionDepth(g, selEdges), selectionDepth(gNo, selEdges), g, gNo)
	}
}

func TestValidateCatchesBadGHD(t *testing.T) {
	h := triangleH()
	// A broken "decomposition" that drops edge S.
	bad := &GHD{H: h, Root: &Bag{Edges: []int{0, 2}, Vars: []string{"x", "y", "z"}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a GHD that does not cover all edges")
	}
	// Running-intersection violation: x in two leaves but not the root.
	h2 := hypergraph.New([]hypergraph.Edge{
		edge("A#0", "A", "x", "y"),
		edge("B#1", "B", "x", "z"),
		edge("C#2", "C", "y", "z"),
	})
	bad2 := &GHD{H: h2, Root: &Bag{
		Edges: []int{2}, Vars: []string{"y", "z"},
		Children: []*Bag{
			{Edges: []int{0}, Vars: []string{"x", "y"}},
			{Edges: []int{1}, Vars: []string{"x", "z"}},
		},
	}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("Validate accepted a running-intersection violation")
	}
}

func TestPathQueryGHD(t *testing.T) {
	// Acyclic 3-path R(a,b),S(b,c),T(c,d): fhw = 1.
	h := hypergraph.New([]hypergraph.Edge{
		edge("R#0", "R", "a", "b"),
		edge("S#1", "S", "b", "c"),
		edge("T#2", "T", "c", "d"),
	})
	g := Decompose(h, Options{})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Width-1.0) > 1e-6 {
		t.Fatalf("path width=%v want 1\n%s", g.Width, g)
	}
}

func TestGHDStringRendersBags(t *testing.T) {
	g := Decompose(triangleH(), Options{})
	s := g.String()
	if !strings.Contains(s, "λ:") || !strings.Contains(s, "χ:") {
		t.Fatalf("String() = %q", s)
	}
}

// selectionDepth is the sum over selection bags of their depths; larger
// means selections execute earlier in the bottom-up pass (App. B.1.1).
func selectionDepth(g *GHD, selectionEdges []int) int {
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
