package exec

import (
	"math"
	"math/rand"
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// testGraph returns a small undirected random graph for correctness tests.
func testGraph(n, m int, seed int64) *graph.Graph {
	return gen.ErdosRenyi(n, m, seed)
}

// dbWithGraph registers g under every relation alias the Table 1 queries
// use (R,S,T,U,V,Q,R2,S2,T2,Edge all name the edge relation, as in the
// paper's self-join pattern queries).
func dbWithGraph(g *graph.Graph) *DB {
	db := NewDB()
	for _, name := range []string{"R", "S", "T", "U", "V", "Q", "R2", "S2", "T2", "Edge"} {
		db.AddGraph(name, g, nil)
	}
	return db
}

func mustRun(t *testing.T, db *DB, query string, opts Options) *Result {
	t.Helper()
	prog, err := datalog.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := RunProgram(db, prog, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// --- brute force references ------------------------------------------

func hasEdge(g *graph.Graph, u, v uint32) bool {
	ns := g.Adj[u]
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo] == v
}

func bruteTriangles(g *graph.Graph) int64 {
	var n int64
	for x := 0; x < g.N; x++ {
		for _, y := range g.Adj[x] {
			for _, z := range g.Adj[y] {
				if hasEdge(g, uint32(x), z) {
					n++
				}
			}
		}
	}
	return n
}

func brute4Cliques(g *graph.Graph) int64 {
	var n int64
	for x := 0; x < g.N; x++ {
		for _, y := range g.Adj[x] {
			for _, z := range g.Adj[y] {
				if !hasEdge(g, uint32(x), z) {
					continue
				}
				for _, w := range g.Adj[z] {
					if hasEdge(g, uint32(x), w) && hasEdge(g, y, w) {
						n++
					}
				}
			}
		}
	}
	return n
}

func bruteLollipop(g *graph.Graph) int64 {
	var n int64
	for x := 0; x < g.N; x++ {
		for _, y := range g.Adj[x] {
			for _, z := range g.Adj[y] {
				if hasEdge(g, uint32(x), z) {
					n += int64(len(g.Adj[x])) // any w adjacent to x
				}
			}
		}
	}
	return n
}

func bruteBarbell(g *graph.Graph) int64 {
	// Triangle count per vertex.
	triAt := make([]int64, g.N)
	for x := 0; x < g.N; x++ {
		for _, y := range g.Adj[x] {
			for _, z := range g.Adj[y] {
				if hasEdge(g, uint32(x), z) {
					triAt[x]++
				}
			}
		}
	}
	var n int64
	for x := 0; x < g.N; x++ {
		for _, x2 := range g.Adj[x] {
			n += triAt[x] * triAt[x2]
		}
	}
	return n
}

// --- pattern queries ---------------------------------------------------

const qTriangleCount = `TC(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.`

func TestTriangleCountMatchesBruteForce(t *testing.T) {
	g := testGraph(300, 2000, 1)
	db := dbWithGraph(g)
	want := bruteTriangles(g)
	for name, opts := range map[string]Options{
		"default": OptDefault,
		"-R":      OptNoLayout,
		"-RA":     OptNoLayoutNoAlgo,
		"-S":      OptNoSIMD,
		"-GHD":    OptNoGHD,
		"serial":  {Parallelism: 1},
	} {
		res := mustRun(t, db, qTriangleCount, opts)
		if got := int64(res.Scalar()); got != want {
			t.Fatalf("%s: triangles=%d want %d", name, got, want)
		}
	}
}

func TestTriangleListing(t *testing.T) {
	g := testGraph(100, 500, 2)
	db := dbWithGraph(g)
	res := mustRun(t, db, `Tri(x,y,z) :- R(x,y),S(y,z),T(x,z).`, OptDefault)
	if int64(res.Cardinality()) != bruteTriangles(g) {
		t.Fatalf("listing card=%d want %d", res.Cardinality(), bruteTriangles(g))
	}
	res.ForEach(func(tp []uint32, _ float64) {
		if !hasEdge(g, tp[0], tp[1]) || !hasEdge(g, tp[1], tp[2]) || !hasEdge(g, tp[0], tp[2]) {
			t.Fatalf("non-triangle %v in result", tp)
		}
	})
}

func TestFourCliqueCount(t *testing.T) {
	g := testGraph(150, 1200, 3)
	db := dbWithGraph(g)
	want := brute4Cliques(g)
	res := mustRun(t, db,
		`K4(;w:long) :- R(x,y),S(y,z),T(x,z),U(x,w_),V(y,w_),Q(z,w_); w=<<COUNT(*)>>.`,
		OptDefault)
	if got := int64(res.Scalar()); got != want {
		t.Fatalf("4-cliques=%d want %d", got, want)
	}
}

func TestLollipopCount(t *testing.T) {
	g := testGraph(200, 1200, 4)
	db := dbWithGraph(g)
	want := bruteLollipop(g)
	for name, opts := range map[string]Options{"default": OptDefault, "-GHD": OptNoGHD} {
		res := mustRun(t, db,
			`L31(;c:long) :- R(x,y),S(y,z),T(x,z),U(x,w); c=<<COUNT(*)>>.`, opts)
		if got := int64(res.Scalar()); got != want {
			t.Fatalf("%s: lollipop=%d want %d", name, got, want)
		}
	}
}

func TestBarbellCount(t *testing.T) {
	g := testGraph(120, 700, 5)
	db := dbWithGraph(g)
	want := bruteBarbell(g)
	for name, opts := range map[string]Options{
		"default":  OptDefault,
		"-GHD":     OptNoGHD,
		"no-dedup": {NoBagDedup: true},
	} {
		res := mustRun(t, db,
			`B31(;c:long) :- R(x,y),S(y,z),T(x,z),U(x,x2),R2(x2,y2),S2(y2,z2),T2(x2,z2); c=<<COUNT(*)>>.`,
			opts)
		if got := int64(res.Scalar()); got != want {
			t.Fatalf("%s: barbell=%d want %d", name, got, want)
		}
	}
}

func TestBarbellDedupDetected(t *testing.T) {
	g := testGraph(60, 300, 6)
	db := dbWithGraph(g)
	prog, err := datalog.Parse(
		`B31(;c:long) :- R(x,y),S(y,z),T(x,z),U(x,x2),R(x2,y2),S(y2,z2),T(x2,z2); c=<<COUNT(*)>>.`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(db, prog.Rules[0], OptDefault)
	if err != nil {
		t.Fatal(err)
	}
	// The two triangle bags use identical relations: one must dedup.
	found := false
	var visit func(bp *BagPlan)
	visit = func(bp *BagPlan) {
		if bp.DedupOf >= 0 {
			found = true
		}
		for _, c := range bp.Children {
			visit(c)
		}
	}
	visit(p.Root)
	if !found {
		t.Fatalf("no deduplicated bag found:\n%s", p.Explain())
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(res.Scalar()); got != bruteBarbell(g) {
		t.Fatalf("dedup barbell=%d want %d", got, bruteBarbell(g))
	}
}

// --- selections ---------------------------------------------------------

func TestSelectionQueries(t *testing.T) {
	g := testGraph(150, 1200, 7)
	db := dbWithGraph(g)
	node := g.MaxDegreeNode()

	// Brute-force K4 containing `node` at position x.
	var want int64
	x := node
	for _, y := range g.Adj[x] {
		for _, z := range g.Adj[y] {
			if !hasEdge(g, x, z) {
				continue
			}
			for _, w := range g.Adj[z] {
				if hasEdge(g, x, w) && hasEdge(g, y, w) {
					want++
				}
			}
		}
	}
	for name, opts := range map[string]Options{
		"pushdown":    OptDefault,
		"no-pushdown": {NoPushdown: true},
	} {
		res := mustRun(t, db,
			`SK4(;c:long) :- R(x,y),S(y,z),T(x,z),U(x,w_),V(y,w_),Q(z,w_),Edge("`+
				itoa(int64(node))+`",x); c=<<COUNT(*)>>.`, opts)
		// The selection atom Edge(node,x) restricts x to neighbors of node.
		var wantSel int64
		for _, xx := range g.Adj[node] {
			for _, y := range g.Adj[xx] {
				for _, z := range g.Adj[y] {
					if !hasEdge(g, xx, z) {
						continue
					}
					for _, w := range g.Adj[z] {
						if hasEdge(g, xx, w) && hasEdge(g, y, w) {
							wantSel++
						}
					}
				}
			}
		}
		if got := int64(res.Scalar()); got != wantSel {
			t.Fatalf("%s: SK4=%d want %d", name, got, wantSel)
		}
	}
}

func TestSelectionMissingConstant(t *testing.T) {
	g := testGraph(50, 200, 8)
	db := dbWithGraph(g)
	if _, err := datalog.Parse(`Q(x) :- Edge("99999",x).`); err != nil {
		t.Fatal(err)
	}
	prog, _ := datalog.Parse(`Q(x) :- Edge("49",x).`)
	res, err := RunProgram(db, prog, OptDefault)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cardinality() != len(g.Adj[49]) {
		t.Fatalf("neighbors=%d want %d", res.Cardinality(), len(g.Adj[49]))
	}
}

// --- aggregations --------------------------------------------------------

func TestCountDistinctSemantics(t *testing.T) {
	// N(;w) :- Edge(x,y); w=<<COUNT(x)>> counts distinct sources
	// (the paper's node-count idiom for PageRank).
	g := testGraph(80, 400, 9)
	db := dbWithGraph(g)
	res := mustRun(t, db, `N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.`, OptDefault)
	sources := 0
	for _, ns := range g.Adj {
		if len(ns) > 0 {
			sources++
		}
	}
	if got := int(res.Scalar()); got != sources {
		t.Fatalf("COUNT(x)=%d want %d distinct sources", got, sources)
	}
}

func TestGroupedCount(t *testing.T) {
	// Per-vertex degree via Deg(x;d) :- Edge(x,y); d=<<COUNT(*)>>.
	g := testGraph(80, 400, 10)
	db := dbWithGraph(g)
	res := mustRun(t, db, `Deg(x;d:long) :- Edge(x,y); d=<<COUNT(*)>>.`, OptDefault)
	res.ForEach(func(tp []uint32, ann float64) {
		if int(ann) != len(g.Adj[tp[0]]) {
			t.Fatalf("deg(%d)=%v want %d", tp[0], ann, len(g.Adj[tp[0]]))
		}
	})
	if res.Cardinality() == 0 {
		t.Fatal("empty degree relation")
	}
}

func TestSumOverAnnotatedRelation(t *testing.T) {
	// W(x;s) :- Edge(x,z),Val(z); s=<<SUM(z)>> where Val(z;v) carries
	// weights: s(x) = Σ_{z∈N(x)} v(z).
	g := testGraph(60, 300, 11)
	db := dbWithGraph(g)
	vb := trie.NewColumnarBuilder(1, semiring.Sum, nil)
	vals := make([]float64, g.N)
	rng := rand.New(rand.NewSource(12))
	for v := 0; v < g.N; v++ {
		vals[v] = float64(rng.Intn(10))
		vb.AddAnn(vals[v], uint32(v))
	}
	db.AddTrie("Val", vb.Build())
	res := mustRun(t, db, `W(x;s:float) :- Edge(x,z),Val(z); s=<<SUM(z)>>.`, OptDefault)
	res.ForEach(func(tp []uint32, ann float64) {
		var want float64
		for _, z := range g.Adj[tp[0]] {
			want += vals[z]
		}
		if math.Abs(ann-want) > 1e-9 {
			t.Fatalf("W(%d)=%v want %v", tp[0], ann, want)
		}
	})
}

func TestMinAggregate(t *testing.T) {
	// M(x;m) :- Edge(x,z),Val(z); m=<<MIN(z)>>+1.
	g := testGraph(60, 300, 13)
	db := dbWithGraph(g)
	vb := trie.NewColumnarBuilder(1, semiring.Min, nil)
	vals := make([]float64, g.N)
	rng := rand.New(rand.NewSource(14))
	for v := 0; v < g.N; v++ {
		vals[v] = float64(rng.Intn(100))
		vb.AddAnn(vals[v], uint32(v))
	}
	db.AddTrie("Val", vb.Build())
	res := mustRun(t, db, `M(x;m:int) :- Edge(x,z),Val(z); m=<<MIN(z)>>+1.`, OptDefault)
	res.ForEach(func(tp []uint32, ann float64) {
		want := math.Inf(1)
		for _, z := range g.Adj[tp[0]] {
			want = math.Min(want, vals[z])
		}
		if ann != want+1 {
			t.Fatalf("M(%d)=%v want %v", tp[0], ann, want+1)
		}
	})
}

func TestMatrixMultiply(t *testing.T) {
	// Sparse matrix multiplication via semiring annotations (§2.2: "more
	// sophisticated operations such as matrix multiplication"):
	// C(i,k) = Σ_j A(i,j)·B(j,k). The head variables span two GHD bags,
	// exercising the spanning-aggregate assembly.
	rng := rand.New(rand.NewSource(77))
	const n = 20
	a := make([][]float64, n)
	bm := make([][]float64, n)
	ab := trie.NewColumnarBuilder(2, semiring.Sum, nil)
	bb := trie.NewColumnarBuilder(2, semiring.Sum, nil)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		bm[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				a[i][j] = float64(1 + rng.Intn(9))
				ab.AddAnn(a[i][j], uint32(i), uint32(j))
			}
			if rng.Intn(3) == 0 {
				bm[i][j] = float64(1 + rng.Intn(9))
				bb.AddAnn(bm[i][j], uint32(i), uint32(j))
			}
		}
	}
	db := NewDB()
	db.AddTrie("A", ab.Build())
	db.AddTrie("B", bb.Build())
	res := mustRun(t, db, `C(i,k;v:float) :- A(i,j),B(j,k); v=<<SUM(j)>>.`, OptDefault)
	want := make([][]float64, n)
	nonzero := 0
	for i := 0; i < n; i++ {
		want[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				want[i][k] += a[i][j] * bm[j][k]
			}
			if want[i][k] != 0 {
				nonzero++
			}
		}
	}
	got := 0
	res.ForEach(func(tp []uint32, ann float64) {
		got++
		if math.Abs(ann-want[tp[0]][tp[1]]) > 1e-9 {
			t.Fatalf("C[%d][%d]=%v want %v", tp[0], tp[1], ann, want[tp[0]][tp[1]])
		}
	})
	if got != nonzero {
		t.Fatalf("nonzeros=%d want %d", got, nonzero)
	}
}

// --- recursion -----------------------------------------------------------

func refPageRank(g *graph.Graph, iters int) []float64 {
	n := 0
	for _, ns := range g.Adj {
		if len(ns) > 0 {
			n++
		}
	}
	pr := make([]float64, g.N)
	for v := range pr {
		pr[v] = 1 / float64(n)
	}
	inv := make([]float64, g.N)
	for v := range inv {
		if d := len(g.Adj[v]); d > 0 {
			inv[v] = 1 / float64(d)
		}
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, g.N)
		for x := 0; x < g.N; x++ {
			var s float64
			for _, z := range g.Adj[x] {
				s += pr[z] * inv[z]
			}
			next[x] = 0.15 + 0.85*s
		}
		pr = next
	}
	return pr
}

const qPageRank = `
N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.
InvDeg(x;d:float) :- Edge(x,y); d=1/<<COUNT(*)>>.
PageRank(x;y:float) :- Edge(x,z); y=1/N.
PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.
`

func TestPageRank(t *testing.T) {
	g := testGraph(100, 600, 15)
	db := dbWithGraph(g)
	res := mustRun(t, db, qPageRank, OptDefault)
	want := refPageRank(g, 5)
	count := 0
	res.ForEach(func(tp []uint32, ann float64) {
		count++
		if math.Abs(ann-want[tp[0]]) > 1e-9 {
			t.Fatalf("PR(%d)=%v want %v", tp[0], ann, want[tp[0]])
		}
	})
	if count == 0 {
		t.Fatal("empty PageRank result")
	}
}

func refSSSP(g *graph.Graph, start uint32) map[uint32]float64 {
	dist := map[uint32]float64{}
	// BFS from start; dist excludes start itself (the paper's query
	// assigns via Edge("start",x)).
	frontier := []uint32{}
	for _, v := range g.Adj[start] {
		dist[v] = 1
		frontier = append(frontier, v)
	}
	d := float64(1)
	for len(frontier) > 0 {
		d++
		var next []uint32
		for _, u := range frontier {
			for _, v := range g.Adj[u] {
				if _, ok := dist[v]; !ok {
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

func TestSSSP(t *testing.T) {
	g := testGraph(150, 500, 16)
	db := dbWithGraph(g)
	start := g.MaxDegreeNode()
	res := mustRun(t, db, `
SSSP(x;y:int) :- Edge("`+itoa(int64(start))+`",x); y=1.
SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.
`, OptDefault)
	want := refSSSP(g, start)
	got := map[uint32]float64{}
	res.ForEach(func(tp []uint32, ann float64) { got[tp[0]] = ann })
	// Every reachable vertex must carry the BFS distance. The start
	// vertex itself may additionally appear (cycles back into it).
	for v, d := range want {
		if got[v] != d && v != start {
			t.Fatalf("dist(%d)=%v want %v", v, got[v], d)
		}
	}
	for v := range got {
		if _, ok := want[v]; !ok && v != start {
			t.Fatalf("unreachable vertex %d got dist %v", v, got[v])
		}
	}
}

// --- plumbing ------------------------------------------------------------

func TestExplainRendersLoopNest(t *testing.T) {
	g := testGraph(30, 100, 17)
	db := dbWithGraph(g)
	prog, _ := datalog.Parse(qTriangleCount)
	p, err := Compile(db, prog.Rules[0], OptDefault)
	if err != nil {
		t.Fatal(err)
	}
	s := p.Explain()
	for _, frag := range []string{"attribute order", "∩", "for", "aggregate over"} {
		if !contains(s, frag) {
			t.Fatalf("Explain missing %q:\n%s", frag, s)
		}
	}
}

func TestUnknownRelationError(t *testing.T) {
	db := NewDB()
	prog, _ := datalog.Parse(`Q(x) :- Nope(x,y).`)
	if _, err := RunProgram(db, prog, OptDefault); err == nil {
		t.Fatal("unknown relation should error")
	}
}

func TestIndexPermutations(t *testing.T) {
	db := NewDB()
	b := trie.NewColumnarBuilder(2, semiring.None, nil)
	b.Add(1, 10)
	b.Add(2, 20)
	b.Add(2, 30)
	rel := db.AddTrie("R", b.Build())
	rev := rel.Index([]int{1, 0}, nil)
	if rev.Cardinality() != 3 {
		t.Fatalf("card=%d", rev.Cardinality())
	}
	n := rev.Root.Child(20)
	if n == nil || n.Set.Card() != 1 || !n.Set.Contains(2) {
		t.Fatal("reversed index wrong")
	}
	// Cached: same pointer.
	if rel.Index([]int{1, 0}, nil) != rev {
		t.Fatal("index not cached")
	}
	// A scalar relation has no columns to re-sort: its index under any
	// layout keeps the value.
	scalar := db.AddTrie("N", trie.NewScalar(7, semiring.Sum))
	if got := scalar.Index(nil, trie.UintLayout); got.Arity != 0 || got.Scalar != 7 {
		t.Fatalf("scalar index: arity %d, value %v, want 0, 7", got.Arity, got.Scalar)
	}
}

func itoa(v int64) string {
	return fmtInt(v)
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
