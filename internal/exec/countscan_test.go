package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// scalarBits renders a scalar result as resultBits does.
func scalarBits(v float64) []string {
	return []string{fmt.Sprintf("[]:%x", math.Float64bits(v))}
}

// TestCountKernel: the count scan, the level above a count tail, gives to
// the bit the answers of references written as plain loops, at
// Parallelism 1, 2 and 4 under the auto, uint, bitset and composite
// policies, and EXPLAIN names the level it ran. Counts are integers, so
// they read the same in any order; the float rows are summed in the
// documented order (ascending x, then y; the first emit stored), which a
// scan that re-associated ⊕ would break, and each product Wm[x]·n is
// rounded before it is added, which a scan whose multiply and add fused
// into one FMA would break. A float scalar at Parallelism above 1 adds
// the workers' partial sums in the order they claimed blocks, so there it
// is checked to a relative 1e-12 only.
func TestCountKernel(t *testing.T) {
	g := kernelGraph()
	a := g.MaxDegreeNode()
	// common is |N(x) ∩ N(y)|, the count below the binding (x, y).
	common := func(x, y uint32) int {
		n := 0
		for _, z := range g.Adj[y] {
			if hasEdge(g, x, z) {
				n++
			}
		}
		return n
	}
	anchored := 0
	for _, y := range g.Adj[a] {
		anchored += common(a, y)
	}
	rng := rand.New(rand.NewSource(11))
	tx := randomAnnRel(g, 0.8, rng, rng.Float64)
	// Wm's values take either sign, so the running sum stays near the
	// size of a product and a product's rounding shows in it: a fused
	// multiply-add reads other bits.
	wm := randomAnnRel(g, 0.8, rng, func() float64 { return 2*rng.Float64() - 1 })
	// pairs is the output-level row: (x, y) and its count, in trie order.
	// weighted emits Wt[x]·n per y; summed is one emit per x of Wt[x]·Σn.
	// total adds every rounded Wm[x]·n into one scalar, fused with FMA.
	var pairs []string
	weighted, summed := map[uint32]float64{}, map[uint32]float64{}
	total, fused := 0.0, 0.0
	for x, ys := range g.Adj {
		ann, weigh := tx[uint32(x)]
		sum := 0
		for _, y := range ys {
			n := common(uint32(x), y)
			if n == 0 {
				continue
			}
			pairs = append(pairs, fmt.Sprintf("%v:%x", []uint32{uint32(x), y}, math.Float64bits(float64(n))))
			if m, ok := wm[uint32(x)]; ok {
				total += float64(m * float64(n))
				fused = math.FMA(m, float64(n), fused)
			}
			if !weigh {
				continue
			}
			if e := float64(ann * float64(n)); sum == 0 {
				weighted[uint32(x)] = e
			} else {
				weighted[uint32(x)] += e
			}
			sum += n
		}
		if weigh && sum > 0 {
			summed[uint32(x)] = ann * float64(sum)
		}
	}
	if anchored == 0 || slices.Equal(bitsOf(weighted, false), bitsOf(summed, false)) {
		t.Fatal("no triangle at the hub, or one emit per x of Wt[x]·Σn agrees to the bit: a row shows nothing")
	}
	if total == fused {
		t.Fatal("a fused multiply-add agrees to the bit: the float_scalar row shows nothing")
	}
	db := dbWithGraph(g)
	tx.register(db, "Wt", semiring.Sum)
	wm.register(db, "Wm", semiring.Sum)

	for _, c := range []struct {
		name, query string
		want        []string
		// loop is the EXPLAIN line of the level that runs as a count scan.
		loop      string
		singleBag bool
		// floatScalar marks a float scalar: bitwise at Parallelism 1 only.
		floatScalar bool
	}{
		{name: "triangle", query: `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`,
			want: scalarBits(float64(bruteTriangles(g))), loop: "for y in sy by count:"},
		{name: "k4", query: `K4(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w),Edge(y,w),Edge(z,w); w=<<COUNT(*)>>.`,
			want: scalarBits(float64(brute4Cliques(g))), loop: "for z in sz by count:"},
		{name: "l31", query: `L31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w); c=<<COUNT(*)>>.`,
			want: scalarBits(float64(bruteLollipop(g))), loop: "for x in sx by count:"},
		{name: "b31", query: `B31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,x2),Edge(x2,y2),Edge(y2,z2),Edge(x2,z2); c=<<COUNT(*)>>.`,
			want: scalarBits(float64(bruteBarbell(g))), loop: " by count:"},
		// The scan's level is an output level: each candidate emits a row.
		{name: "output_level", query: `P(x,y;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z); c=<<COUNT(*)>>.`,
			want: pairs, loop: "for y in sy by count:"},
		// One bag: the selection is pre-descended, so the scan runs at
		// level 0 and Q, Edge[a], is intersected once per bag run.
		{name: "anchored", query: `AT(;c:long) :- Edge("` + itoa(int64(a)) + `",y),Edge(y,z),Edge("` + itoa(int64(a)) + `",z); c=<<COUNT(*)>>.`,
			want: scalarBits(float64(anchored)), loop: "\n  for y in sy by count:", singleBag: true},
		{name: "float_outer", query: `W(x;s:float) :- Wt(x),Edge(x,y),Edge(y,z),Edge(x,z); s=<<SUM(z)>>.`,
			want: bitsOf(weighted, false), loop: "for y in sy by count:"},
		{name: "float_scalar", query: `W(;s:float) :- Wm(x),Edge(x,y),Edge(y,z),Edge(x,z); s=<<SUM(z)>>.`,
			want: scalarBits(total), loop: "for y in sy by count:", floatScalar: true},
	} {
		for _, layout := range []*trie.Policy{nil, trie.UintLayout, trie.BitsetLayout, trie.CompositeLayout} {
			for _, par := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/par=%d", c.name, layout, par), func(t *testing.T) {
					opts := Options{Parallelism: par, Layout: layout, SingleBag: c.singleBag}
					res, err := prepareQOpts(t, db, c.query, opts).RunWith(db.Fork(), RunParams{})
					if err != nil {
						t.Fatal(err)
					}
					if c.floatScalar && par > 1 {
						if got := res.Scalar(); math.Abs(got-total) > 1e-12*math.Abs(total) {
							t.Fatalf("scalar %v, reference %v", got, total)
						}
					} else if got := resultBits(res); !slices.Equal(got, c.want) {
						t.Fatalf("%d tuples, reference %d; first difference %s", len(got), len(c.want), diffAt(got, c.want))
					}
					if plan := res.ExplainAnalyze(); !strings.Contains(plan, c.loop) {
						t.Fatalf("EXPLAIN lacks %q:\n%s", c.loop, plan)
					}
				})
			}
		}
	}
}

// The triangle and the 4-clique report, at every Parallelism, the
// EXPLAIN ANALYZE counters the per-value path reported on the same
// database (∩, in, out, probes, emitted: the values recorded here). Only
// the count level's kernel tallies move: the per-value path intersected
// K4's U[x] ∩ V[y] again for every z, two kernel calls per candidate
// (auto: bitset-bitset=15768; uint: uint-shuffle=15732 uint-gallop=36);
// the scan makes one per candidate and one per call (7,884 + 5,028). The
// triangle's Q is one set, T[x], so its tally stays one call per
// candidate.
func TestCountKernelCounters(t *testing.T) {
	db := dbWithGraph(testGraph(400, 4000, 19))
	for _, c := range []struct {
		query  string
		layout *trie.Policy
		lines  []string
	}{
		{qKernelTriangle, nil, []string{
			"bag 0 -> scalar:  // actual: emitted=5028 ",
			"sy := πy R[x] ∩ πy S  // actual: ∩=400 in=168000 out=8000 kernels[bitset-bitset=400]\n",
			"for y in sy by count:  // actual: probes=8000 skipped=0\n",
			"sz := πz S[y] ∩ πz T[x]  // actual: ∩=8000 in=333588 out=7884 kernels[bitset-bitset=8000]\n",
		}},
		{qKernel4Clique, nil, []string{
			"bag 0 -> scalar:  // actual: emitted=486 ",
			"sz := πz S[y] ∩ πz T[x] ∩ πz Q  // actual: ∩=8000 in=3533588 out=7884 kernels[bitset-bitset=13028]\n",
			"for z in sz by count:  // actual: probes=7884 skipped=0\n",
			"sw_ := πw_ U[x] ∩ πw_ V[y] ∩ πw_ Q[z]  // actual: ∩=7884 in=513252 out=504 kernels[bitset-bitset=12912]\n",
		}},
		{qKernel4Clique, trie.UintLayout, []string{
			"bag 0 -> scalar:  // actual: emitted=486 ",
			"for z in sz by count:  // actual: probes=7884 skipped=0\n",
			"sw_ := πw_ U[x] ∩ πw_ V[y] ∩ πw_ Q[z]  // actual: ∩=7884 in=513252 out=504 kernels[uint-shuffle=12876 uint-gallop=36]\n",
		}},
	} {
		for _, par := range []int{1, 2, 4} {
			opts := Options{Parallelism: par, Layout: c.layout}
			res, err := prepareQOpts(t, db, c.query, opts).RunWith(db.Fork(), RunParams{Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			out := res.ExplainAnalyze()
			for _, l := range c.lines {
				if !strings.Contains(out, l) {
					t.Errorf("%s par=%d: EXPLAIN ANALYZE lacks %q:\n%s", c.layout, par, l, out)
				}
			}
		}
	}
}
