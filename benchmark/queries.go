package main

import (
	"fmt"
	"math"

	"emptyheaded/internal/exec"
)

// Query texts. Symmetric patterns (triangle, K4) read the degree-ordered
// pruned relation EdgeP; the others read the symmetric relation Edge.
const (
	textTriangle = `TC(;w:long) :- EdgeP(x,y),EdgeP(y,z),EdgeP(x,z); w=<<COUNT(*)>>.`
	textK4       = `K4(;c:long) :- EdgeP(x,y),EdgeP(y,z),EdgeP(x,z),EdgeP(x,w),EdgeP(y,w),EdgeP(z,w); c=<<COUNT(*)>>.`
	textL31      = `L31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w); c=<<COUNT(*)>>.`
	textB31      = `B31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,x2),Edge(x2,y2),Edge(y2,z2),Edge(x2,z2); c=<<COUNT(*)>>.`
	textPageRank = `
N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.
InvDeg(x;d:float) :- Edge(x,y); d=1/<<COUNT(*)>>.
PageRank(x;y:float) :- Edge(x,z); y=1/N.
PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.`

	// The three global queries of the serve pool.
	textGlobalTriangle = `GT(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`
	textDegrees        = `Deg(x;d:long) :- Edge(x,y); d=<<COUNT(*)>>.`
	textTwoPaths       = `P2(x,z) :- Edge(x,y),Edge(y,z).`

	// Post-restart checks of serve_mixed.
	textEdgeCount = `EC(;c:long) :- Edge(x,y); c=<<COUNT(*)>>.`
	textAllEdges  = `AE(x,y) :- Edge(x,y).`
)

const pageRankIters = 5

func textSSSP(start uint32) string {
	return fmt.Sprintf(`
SSSP(x;y:int) :- Edge("%d",x); y=1.
SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`, start)
}

func textTwoHop(a uint32) string {
	return fmt.Sprintf(`H2(y,z) :- Edge("%d",y),Edge(y,z).`, a)
}

func textAnchoredTriangle(a uint32) string {
	return fmt.Sprintf(`AT(;c:long) :- Edge("%d",y),Edge(y,z),Edge("%d",z); c=<<COUNT(*)>>.`, a, a)
}

// engineQuery is one query run in-process, with the check of its answer.
type engineQuery struct {
	Name  string
	Text  string
	Check func(*exec.Result) error
}

func scalarCheck(want int64) func(*exec.Result) error {
	return func(res *exec.Result) error {
		if res.Trie.Arity != 0 {
			return fmt.Errorf("want a scalar, got arity %d", res.Trie.Arity)
		}
		if got := res.Scalar(); got != float64(want) {
			return fmt.Errorf("got %v, want %d", got, want)
		}
		return nil
	}
}

// patternQueries is the round of pattern_sparse and pattern_dense.
func patternQueries(a *answers) []engineQuery {
	return []engineQuery{
		{"triangle", textTriangle, scalarCheck(a.Triangles)},
		{"k4", textK4, scalarCheck(a.K4)},
		{"l31", textL31, scalarCheck(a.L31)},
		{"b31", textB31, scalarCheck(a.B31)},
	}
}

// analyticsQueries is the round of analytics.
func analyticsQueries(a *answers) []engineQuery {
	reached := 0
	for _, d := range a.Dist {
		if d >= 0 {
			reached++
		}
	}
	return []engineQuery{
		{"pagerank", textPageRank, func(res *exec.Result) error {
			n, bad := 0, error(nil)
			res.ForEach(func(t []uint32, ann float64) {
				n++
				want := a.PageRank[t[0]]
				if bad == nil && math.Abs(ann-want) > 1e-6*want {
					bad = fmt.Errorf("rank of %d: got %v, want %v", t[0], ann, want)
				}
			})
			if bad == nil && n != len(a.PageRank) {
				bad = fmt.Errorf("got %d ranks, want %d", n, len(a.PageRank))
			}
			return bad
		}},
		{"sssp", textSSSP(a.Start), func(res *exec.Result) error {
			n, bad := 0, error(nil)
			res.ForEach(func(t []uint32, ann float64) {
				n++
				if want := a.Dist[t[0]]; bad == nil && ann != float64(want) {
					bad = fmt.Errorf("distance of %d: got %v, want %d", t[0], ann, want)
				}
			})
			if bad == nil && n != reached {
				bad = fmt.Errorf("got %d distances, want %d", n, reached)
			}
			return bad
		}},
	}
}

// anchoredQueries are the two node-anchored serve queries, run in-process
// by the layer probes.
func anchoredQueries(g *graphData, a *answers, anchor uint32) []engineQuery {
	return []engineQuery{
		{"anchored_2hop", textTwoHop(anchor), func(res *exec.Result) error {
			if got, want := res.Cardinality(), g.twoHopCount(anchor); got != want {
				return fmt.Errorf("got %d pairs, want %d", got, want)
			}
			return nil
		}},
		{"anchored_triangle", textAnchoredTriangle(anchor), scalarCheck(2 * a.PerNode[anchor])},
	}
}
