package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// walkLengths is the model of a MIN/MAX recursion over Edge: for every
// vertex at the end of a walk of 1..maxLen edges from src, the shortest
// (longest=false) or longest such walk length. It enumerates the set of
// walk ends layer by layer over plain adjacency lists and shares no code
// with the engine.
func walkLengths(g *graph.Graph, src uint32, maxLen int, longest bool) map[uint32]float64 {
	out := map[uint32]float64{}
	layer := map[uint32]bool{src: true}
	for l := 1; l <= maxLen && len(layer) > 0; l++ {
		next := map[uint32]bool{}
		for u := range layer {
			for _, v := range g.Adj[u] {
				next[v] = true
			}
		}
		for v := range next {
			if _, seen := out[v]; !seen || longest {
				out[v] = float64(l)
			}
		}
		layer = next
	}
	return out
}

// TestRecursionMatchesModel checks each kind of starred rule against a
// brute-force model, under seminaive and naive recursion, serial and
// parallel: unary MIN (BFS distances, also over a long path whose rounds
// stack up many head tries to fold), binary MIN (all-pairs hop
// distances, with a linear and a non-linear rule), bounded MAX (longest
// walk within k+1 edges), a scalar MIN that reads itself and PageRank's
// SUM (power iteration).
func TestRecursionMatchesModel(t *testing.T) {
	ssspG, pairsG, maxG, prG := testGraph(80, 200, 31), testGraph(30, 50, 32), testGraph(60, 150, 33), testGraph(100, 600, 15)
	path := make([][2]uint32, 99) // 0→1→…→99: one round per hop
	for i := range path {
		path[i] = [2]uint32{uint32(i), uint32(i + 1)}
	}
	pathG := graph.FromEdges(100, path, false)
	unary := func(m map[uint32]float64) map[string]float64 {
		out := map[string]float64{}
		for v, d := range m {
			out[fmt.Sprint([]uint32{v})] = d
		}
		return out
	}
	start := func(g *graph.Graph) string { return itoa(int64(g.MaxDegreeNode())) }

	allPairs := map[string]float64{}
	for x := range pairsG.Adj {
		for z, d := range walkLengths(pairsG, uint32(x), pairsG.N, false) {
			allPairs[fmt.Sprint([]uint32{uint32(x), z})] = d
		}
	}
	scalar := 100.0 // c ↦ 1 + c/2 while that is smaller: an un-annotated Edge has MIN's one, 0
	for next := 1 + scalar/2; next < scalar; next = 1 + scalar/2 {
		scalar = next
	}
	pageRank := map[string]float64{}
	for v, r := range refPageRank(prG, 5) {
		if len(prG.Adj[v]) > 0 {
			pageRank[fmt.Sprint([]uint32{uint32(v)})] = r
		}
	}

	for _, row := range []struct {
		name  string
		g     *graph.Graph
		query string
		want  map[string]float64
	}{
		{"sssp_unary_min", ssspG, `
S(x;y:int) :- Edge("` + start(ssspG) + `",x); y=1.
S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.`,
			unary(walkLengths(ssspG, ssspG.MaxDegreeNode(), ssspG.N, false))},
		{"sssp_long_path", pathG, `
S(x;y:int) :- Edge("0",x); y=1.
S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.`,
			unary(walkLengths(pathG, 0, pathG.N, false))},
		{"hops_binary_min", pairsG, `
D(x,z;y:int) :- Edge(x,z); y=1.
D(x,z;y:int)* :- D(x,w),Edge(w,z); y=<<MIN(w)>>+1.`,
			allPairs},
		// Non-linear: both body atoms read the head, so a round must join
		// the old head too, not only the last round's improvements.
		{"hops_binary_min_nonlinear", pairsG, `
D(x,z;y:int) :- Edge(x,z); y=1.
D(x,z;y:int)* :- D(x,w),D(w,z); y=<<MIN(w)>>.`,
			allPairs},
		{"walk_bounded_max", maxG, `
L(x;y:int) :- Edge("` + start(maxG) + `",x); y=1.
L(x;y:int)*[i=4] :- Edge(w,x),L(w); y=<<MAX(w)>>+1.`,
			unary(walkLengths(maxG, maxG.MaxDegreeNode(), 5, true))},
		// A scalar head is one tuple: the monotone merge replaces it whole.
		// Each round reads the head through the reference C.
		{"scalar_min", ssspG, `
C(;y:int) :- Edge(x,z); y=<<MAX(x)>>+100.
C(;y:int)* :- Edge(w,x); y=<<MIN(w)>>+1+C/2.`,
			map[string]float64{"[]": scalar}},
		{"pagerank_sum", prG, qPageRank, pageRank},
	} {
		t.Run(row.name, func(t *testing.T) {
			for _, naive := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					t.Run(fmt.Sprintf("naive=%v/par=%d", naive, par), func(t *testing.T) {
						res := mustRun(t, dbWithGraph(row.g), row.query, Options{NaiveRecursion: naive, Parallelism: par})
						got := map[string]float64{}
						res.ForEach(func(tp []uint32, ann float64) { got[fmt.Sprint(tp)] = ann })
						if len(got) != len(row.want) {
							t.Fatalf("%d tuples, model has %d", len(got), len(row.want))
						}
						for k, w := range row.want {
							if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-9 {
								t.Fatalf("%s = %v (present %v), model %v", k, g, ok, w)
							}
						}
					})
				}
			}
		})
	}
}

// TestNonConvergingFixpointIsAnError: the longest walk around a cycle
// grows every round, so the unbounded MAX rule never reaches a fixpoint
// and the run must fail at the cap rather than return a partial head.
func TestNonConvergingFixpointIsAnError(t *testing.T) {
	b := trie.NewColumnarBuilder(2, semiring.None, nil)
	b.Add(0, 1)
	b.Add(1, 2)
	b.Add(2, 0)
	db := NewDB()
	db.AddTrie("Edge", b.Build())
	prog, err := datalog.Parse("Longest(x;y:int) :- Edge(0,x); y=1.\nLongest(x;y:int)* :- Edge(w,x),Longest(w); y=<<MAX(w)>>+1.")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProgram(db, prog, Options{})
	if err == nil {
		t.Fatalf("non-converging recursion returned %d tuples and no error", res.Trie.Cardinality())
	}
	for _, want := range []string{"Longest", itoa(datalog.MaxFixpointIters)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// BenchmarkRecursion times the two analytics programs on a 6,000-vertex
// power-law graph at one worker and two: PageRank (five SUM rounds that
// read two unary annotated relations) and SSSP from vertex 0 (seminaive
// MIN rounds).
func BenchmarkRecursion(b *testing.B) { benchmarkPrograms(b, recursionPrograms) }

var recursionPrograms = []struct{ name, text string }{
	{"pagerank", qPageRank},
	{"sssp", `SSSP(x;y:int) :- Edge("0",x); y=1.
SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`},
}

// BenchmarkPatterns times four loop-nest shapes on the same graph: the
// triangle count and the 4-clique count (count tails under a count scan),
// L31 (a fold over a child bag) and a distinct count whose child bag ends
// in an existence tail.
func BenchmarkPatterns(b *testing.B) { benchmarkPrograms(b, patternPrograms) }

var patternPrograms = []struct{ name, text string }{
	{"triangle", `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`},
	{"k4", `K4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w),Edge(y,w),Edge(z,w); w=<<COUNT(*)>>.`},
	{"l31", `L31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w); c=<<COUNT(*)>>.`},
	{"distinct_exists", `D(;w:long) :- Edge(x,y),Edge(y,z); w=<<COUNT(x)>>.`},
}

// benchmarkPrograms runs each program at Parallelism 1 and 2 on
// gen.PowerLaw(6000, 40000, 2.3, 1), reporting allocations per run.
func benchmarkPrograms(b *testing.B, programs []struct{ name, text string }) {
	db := dbWithGraph(gen.PowerLaw(6000, 40000, 2.3, 1))
	for _, q := range programs {
		for _, par := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par%d", q.name, par), func(b *testing.B) {
				pr := prepareQOpts(b, db, q.text, Options{Parallelism: par})
				b.ReportAllocs()
				for b.Loop() {
					if _, err := pr.Run(db.Fork()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
