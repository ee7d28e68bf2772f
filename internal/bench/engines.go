package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"emptyheaded/internal/core"
	"emptyheaded/internal/datalog"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trie"
)

// Query strings used across the experiments (all atoms name the single
// edge relation, the benchmark convention for self-join pattern queries).
const (
	qTriangle = `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`
	qK4       = `K4(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w),Edge(y,w),Edge(z,w); c=<<COUNT(*)>>.`
	qL31      = `L31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w); c=<<COUNT(*)>>.`
	qB31      = `B31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,x2),Edge(x2,y2),Edge(y2,z2),Edge(x2,z2); c=<<COUNT(*)>>.`
	qPageRank = `
N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.
InvDeg(x;d:float) :- Edge(x,y); d=1/<<COUNT(*)>>.
PageRank(x;y:float) :- Edge(x,z); y=1/N.
PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.`
)

func qSK4(node uint32) string {
	return fmt.Sprintf(`SK4(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w),Edge(y,w),Edge(z,w),Edge("%d",x); c=<<COUNT(*)>>.`, node)
}

func qSB31(node uint32) string {
	return fmt.Sprintf(`SB31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,"%d"),Edge("%d",x2),Edge(x2,y2),Edge(y2,z2),Edge(x2,z2); c=<<COUNT(*)>>.`, node, node)
}

func qSSSP(start uint32) string {
	return fmt.Sprintf(`
SSSP(x;y:int) :- Edge("%d",x); y=1.
SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`, start)
}

// Engine configurations: the EmptyHeaded optimizer, its ablations, and
// the LogicBlox stand-in (worst-case optimal leapfrog-style execution:
// single-bag plans, uint-only layouts, min-property galloping, naive
// recursion; §5.1.2).
var (
	engineDefault = exec.Options{}
	engineNoR     = exec.OptNoLayout
	engineNoRA    = exec.OptNoLayoutNoAlgo
	engineNoSIMD  = exec.OptNoSIMD
	engineNoGHD   = exec.OptNoGHD
	engineLB      = exec.Options{
		SingleBag:      true,
		Layout:         trie.UintLayout,
		Intersect:      set.Config{Algo: set.AlgoGalloping},
		NaiveRecursion: true,
	}
)

// benchTimeout is the per-measurement cap standing in for the paper's
// 30-minute timeout, scaled to our ~100×-smaller datasets.
const benchTimeout = 20 * time.Second

// newEngine loads g as Edge under the given options.
func newEngine(g *graph.Graph, opts exec.Options) *core.Engine {
	e := core.NewWithOptions(opts)
	e.LoadGraph("Edge", g)
	return e
}

// runTriangleCount is the Figure 7 inner measurement: the triangle count
// on a fresh engine over g.
func runTriangleCount(g *graph.Graph, opts exec.Options) float64 {
	res, err := newEngine(g, opts).Run(qTriangle)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return res.Scalar()
}

// measureQuery times query execution (engine construction excluded, as
// the paper excludes loading and index build, §5.1.3) and reports a
// "t/o" cell when a run outlives benchTimeout.
func measureQuery(reps int, g *graph.Graph, opts exec.Options, query string) Cell {
	e := newEngine(g, opts)
	prog, err := datalog.Parse(query)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	pr, err := exec.Prepare(e.DB, prog, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	best := time.Duration(1<<62 - 1)
	// Run 0 warms the index cache outside the timed region.
	for i := 0; i <= reps; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), benchTimeout)
		t0 := time.Now()
		_, err := pr.RunWith(e.DB, exec.RunParams{Ctx: ctx})
		d := time.Since(t0)
		cancel()
		if errors.Is(err, exec.ErrTimeout) {
			return Note("t/o")
		}
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		if i > 0 && d < best {
			best = d
		}
	}
	return Seconds(best)
}
