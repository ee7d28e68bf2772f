package exec

import (
	"fmt"
	"math"
	"testing"

	"emptyheaded/internal/gen"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trie"
)

// nonUintSets counts the sets of t, at every level, that are not stored
// as uint arrays.
func nonUintSets(t *trie.Trie) int64 {
	var n int64
	for _, lv := range t.LayoutProfile() {
		for name, sets := range lv.Sets {
			if name != set.Uint.String() {
				n += sets
			}
		}
	}
	return n
}

// resultBits renders a result's tuples and the bits of their
// annotations, so two results compare bitwise.
func resultBits(res *Result) []string {
	var out []string
	res.ForEach(func(tp []uint32, ann float64) {
		out = append(out, fmt.Sprintf("%v:%x", tp, math.Float64bits(ann)))
	})
	return out
}

// ablation switches one part of the optimizer off. trace counts what
// that part did in a run, read from the result and its collected stats:
// zero under the ablation, and non-zero in every row's default run, so a
// row whose ablation leaked would show it.
type ablation struct {
	name  string
	opts  Options
	trace func(*Result) int64
}

// ablationRow is one query over one database that an ablation must hold on.
type ablationRow struct {
	name  string
	db    *DB
	query string
}

var (
	// -R: every set of the result is uint.
	ablNoLayout = ablation{"-R", OptNoLayout, func(res *Result) int64 { return nonUintSets(res.Trie) }}
	// -RA: every kernel dispatch is a uint-merge. A run that dispatched
	// no uint-merge shows nothing, so it counts one.
	ablNoAlgo = ablation{"-RA", OptNoLayoutNoAlgo, func(res *Result) int64 {
		var all int64
		for _, b := range res.Stats.Bags {
			for i := range b.Levels {
				all += b.Levels[i].Kernel.Total()
			}
		}
		merge := routeCount(res.Stats, set.RouteUintMerge)
		if merge == 0 {
			return 1
		}
		return all - merge
	}}
	// -GHD: the rule runs as one bag.
	ablSingleBag = ablation{"-GHD", OptNoGHD, func(res *Result) int64 {
		bags := map[int]bool{}
		for _, b := range res.Stats.Bags {
			if b.BagID >= 0 {
				bags[b.BagID] = true
			}
		}
		return int64(len(bags)) - 1
	}}
	// -R on a PageRank round: no set is a bitset, so no atom is read as a
	// vector, and the fold tail keeps the per-value path instead of the
	// gather it takes by default.
	ablNoGather = ablation{"-R", OptNoLayout, func(res *Result) int64 {
		if res.Plan.Root.tail == kindGather {
			return 1
		}
		return 0
	}}
	// NoBagDedup: no bag takes another's result.
	ablNoBagDedup = ablation{"NoBagDedup", Options{NoBagDedup: true}, func(res *Result) int64 {
		var n int64
		for _, b := range res.Stats.Bags {
			if b.Reused {
				n++
			}
		}
		return n
	}}
)

// runAblation runs every row at Parallelism 1 and 4, under the default
// options and under the ablation, and holds the ablation's trace to zero,
// the default's to non-zero, and the two results to the same tuples and
// annotation bits.
func runAblation(t *testing.T, abl ablation, rows []ablationRow) {
	for _, row := range rows {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", row.name, par), func(t *testing.T) {
				run := func(opts Options) *Result {
					opts.Parallelism = par
					res, err := prepareQOpts(t, row.db, row.query, opts).RunWith(row.db.Fork(), RunParams{Collect: true})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				def, got := run(Options{}), run(abl.opts)
				if abl.trace(def) == 0 {
					t.Fatalf("the default run already looks %s: the row shows nothing", abl.name)
				}
				if n := abl.trace(got); n != 0 {
					t.Fatalf("%s run: %d violations", abl.name, n)
				}
				want, have := resultBits(def), resultBits(got)
				if len(have) != len(want) {
					t.Fatalf("%s: %d tuples, default %d", abl.name, len(have), len(want))
				}
				for i := range want {
					if have[i] != want[i] {
						t.Fatalf("%s tuple %d = %s, default %s", abl.name, i, have[i], want[i])
					}
				}
			})
		}
	}
}

// TestAblationLayoutHolds: the "-R" ablation (OptNoLayout) pins every set
// of every trie the engine builds to uint, through recursion too — the
// fixpoint's head stack, its improvements and its folds — and changes no
// answer.
func TestAblationLayoutHolds(t *testing.T) {
	power, pairs, small := gen.PowerLaw(6000, 40000, 2.3, 1), testGraph(30, 50, 32), testGraph(200, 1500, 11)
	runAblation(t, ablNoLayout, []ablationRow{
		{"sssp_unary_min", dbWithGraph(power), `
SSSP(x;y:int) :- Edge("0",x); y=1.
SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`},
		{"pagerank_unary_sum", dbWithGraph(power), qPageRank},
		{"hops_binary_min", dbWithGraph(pairs), `
D(x,z;y:int) :- Edge(x,z); y=1.
D(x,z;y:int)* :- D(x,w),Edge(w,z); y=<<MIN(w)>>+1.`},
		{"count_v", dbWithGraph(small), `W(x;n:long) :- Edge(x,y),Edge(y,z); n=<<COUNT(z)>>.`},
		{"projected_listing", dbWithGraph(small), `P(x,z) :- Edge(x,y),Edge(y,z).`},
	})
}

// TestAblationsHold: each of the other ablations of Tables 8, 11 and 13
// switches off what it names and changes no answer — "-RA" leaves only
// the scalar uint merge, "-GHD" plans one bag per rule, and NoBagDedup
// runs every bag of a plan whose default reuses one (App. B.2). "-R"
// reads no vector, so PageRank's fold tail, which gathers by default,
// keeps the per-value path; SSSP's emit level, which reads none, takes
// the scatter either way. The level above the triangle's and the
// 4-clique's count tail, which reads no vector, takes the count scan by
// default, under "-R" and under "-RA", whose rows below hold its kernel
// calls to the uint merge.
func TestAblationsHold(t *testing.T) {
	er, small := dbWithGraph(testGraph(400, 4000, 19)), dbWithGraph(testGraph(200, 1500, 11))
	rounds, _ := accumulatorDBs()
	const ssspRound = `S(x;y:int) :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`
	for _, opts := range []Options{{}, OptNoLayout} {
		res, err := prepareQOpts(t, rounds, ssspRound, opts).Run(rounds.Fork())
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Root.tail != kindScatter {
			t.Fatalf("layout %s: SSSP's x ran as kind %d, not the scatter", opts.Layout, res.Plan.Root.tail)
		}
	}
	for _, c := range []struct{ query, attr string }{{qKernelTriangle, "y"}, {qKernel4Clique, "z"}} {
		for _, opts := range []Options{{}, OptNoLayout, OptNoLayoutNoAlgo} {
			res, err := prepareQOpts(t, er, c.query, opts).Run(er.Fork())
			if err != nil {
				t.Fatal(err)
			}
			if bp := res.Plan.Root; bp.tail != kindCountScan || bp.Attrs[bp.kernelLevel()] != c.attr {
				t.Fatalf("%s, layout %s: the kernel level ran as kind %d, want %s by count", c.query, opts.Layout, bp.tail, c.attr)
			}
		}
	}
	const (
		l31     = `L31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w); c=<<COUNT(*)>>.`
		barbell = `B31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,x2),Edge(x2,y2),Edge(y2,z2),Edge(x2,z2); c=<<COUNT(*)>>.`
	)
	for _, c := range []struct {
		abl  ablation
		rows []ablationRow
	}{
		{ablNoAlgo, []ablationRow{{"triangle", er, qKernelTriangle}, {"k4", er, qKernel4Clique}}},
		{ablSingleBag, []ablationRow{{"l31", small, l31}, {"barbell", small, barbell}}},
		{ablNoBagDedup, []ablationRow{{"barbell", small, barbell}}},
		{ablNoGather, []ablationRow{{"pagerank_round", rounds, qPageRankRound}}},
	} {
		t.Run(c.abl.name, func(t *testing.T) { runAblation(t, c.abl, c.rows) })
	}
}
