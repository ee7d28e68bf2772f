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

// TestAblationLayoutHolds: the "-R" ablation (OptNoLayout) pins every set
// of every trie the engine builds to uint, through recursion too — the
// fixpoint's head stack, its improvements and its folds — and changes no
// answer. Each row's default run stores some set in another layout, so a
// row that leaked the optimizer's choice would show it.
func TestAblationLayoutHolds(t *testing.T) {
	power, pairs, small := gen.PowerLaw(6000, 40000, 2.3, 1), testGraph(30, 50, 32), testGraph(200, 1500, 11)
	for _, row := range []struct {
		name  string
		db    *DB
		query string
	}{
		{"sssp_unary_min", dbWithGraph(power), `
SSSP(x;y:int) :- Edge("0",x); y=1.
SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`},
		{"pagerank_unary_sum", dbWithGraph(power), qPageRank},
		{"hops_binary_min", dbWithGraph(pairs), `
D(x,z;y:int) :- Edge(x,z); y=1.
D(x,z;y:int)* :- D(x,w),Edge(w,z); y=<<MIN(w)>>+1.`},
		{"count_v", dbWithGraph(small), `W(x;n:long) :- Edge(x,y),Edge(y,z); n=<<COUNT(z)>>.`},
		{"projected_listing", dbWithGraph(small), `P(x,z) :- Edge(x,y),Edge(y,z).`},
	} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/par=%d", row.name, par), func(t *testing.T) {
				def := mustRun(t, row.db, row.query, Options{Parallelism: par})
				if nonUintSets(def.Trie) == 0 {
					t.Fatalf("default run stores every set as uint: the row shows nothing")
				}
				opts := OptNoLayout
				opts.Parallelism = par
				abl := mustRun(t, row.db, row.query, opts)
				if n := nonUintSets(abl.Trie); n != 0 {
					t.Fatalf("-R result stores %d sets outside uint: %+v", n, abl.Trie.LayoutProfile())
				}
				want, got := resultBits(def), resultBits(abl)
				if len(got) != len(want) {
					t.Fatalf("-R: %d tuples, default %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("-R tuple %d = %s, default %s", i, got[i], want[i])
					}
				}
			})
		}
	}
}
