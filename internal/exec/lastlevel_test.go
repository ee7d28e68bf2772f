package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// kernelGraph is TestLastLevelKernels' graph: power-law, so under the
// auto layout the children of Edge are a mix of uint and bitset sets.
func kernelGraph() *graph.Graph { return gen.PowerLaw(3000, 15000, 2.3, 7) }

// annRel is a unary annotated relation as the references read it.
type annRel map[uint32]float64

// randomAnnRel draws each vertex of g with probability p and gives it a
// value from pick.
func randomAnnRel(g *graph.Graph, p float64, rng *rand.Rand, pick func() float64) annRel {
	r := annRel{}
	for v := range g.N {
		if rng.Float64() < p {
			r[uint32(v)] = pick()
		}
	}
	return r
}

// register adds r to db under name and semiring op.
func (r annRel) register(db *DB, name string, op semiring.Op) {
	vals := make([]uint32, 0, len(r))
	for v := range r {
		vals = append(vals, v)
	}
	slices.Sort(vals)
	addAnnotated(db, name, op, vals, func(v uint32) float64 { return r[v] })
}

// bitsOf renders a unary result of the references as resultBits does an
// engine result; nil values hold a set (a Boolean result, no annotation).
func bitsOf(vals map[uint32]float64, boolean bool) []string {
	keys := make([]uint32, 0, len(vals))
	for v := range vals {
		keys = append(keys, v)
	}
	slices.Sort(keys)
	out := make([]string, len(keys))
	for i, v := range keys {
		out[i] = fmt.Sprint([]uint32{v})
		if !boolean {
			out[i] += fmt.Sprintf(":%x", math.Float64bits(vals[v]))
		}
	}
	return out
}

// refFold is the reference of a fold over z: for every x with out-edges
// (and in outer, when outer is not nil), in ascending order, acc starts at
// the semiring's 0 and ⊕-folds ann ⊗ r₁[z] ⊗ r₂[z] ⊗ … over the z of
// Edge(x, z) in ascending order that every r holds, ann being 1 ⊗ outer[x].
// A tuple is kept when a z was folded and acc is not 0 (docs/LANGUAGE.md).
func refFold(g *graph.Graph, op semiring.Op, outer annRel, rs ...annRel) map[uint32]float64 {
	out := map[uint32]float64{}
	for x, zs := range g.Adj {
		ann := op.One()
		if outer != nil {
			o, ok := outer[uint32(x)]
			if !ok {
				continue
			}
			ann = op.Mul(ann, o)
		}
		acc, folded := op.Zero(), false
	next:
		for _, z := range zs {
			a := ann
			for _, r := range rs {
				v, ok := r[z]
				if !ok {
					continue next
				}
				a = op.Mul(a, v)
			}
			acc, folded = op.Add(acc, a), true
		}
		if folded && acc != op.Zero() {
			out[uint32(x)] = acc
		}
	}
	return out
}

// refScatter is the reference of an emit into the dense accumulator: for
// every w of in with out-edges, in ascending order, each x of Edge(w, x)
// takes 1 ⊗ in[w]; the first emit of x stores it, later ones ⊕ into it.
// A tuple whose fold is the semiring's 0 is dropped.
func refScatter(g *graph.Graph, op semiring.Op, in annRel) map[uint32]float64 {
	out := map[uint32]float64{}
	for w, xs := range g.Adj {
		a, ok := in[uint32(w)]
		if !ok {
			continue
		}
		a = op.Mul(op.One(), a)
		for _, x := range xs {
			if acc, seen := out[x]; seen {
				out[x] = op.Add(acc, a)
			} else {
				out[x] = a
			}
		}
	}
	for x, acc := range out {
		if acc == op.Zero() {
			delete(out, x)
		}
	}
	return out
}

// refPageRankBits is PageRank as qPageRank states it, in plain loops: N
// counts the vertices with out-edges, InvDeg(z) is 1/deg(z), the head
// starts at 1/N and each of five rounds folds, per x, the z of Edge(x, z)
// the head and InvDeg hold as 0 + (1·PageRank(z))·InvDeg(z) + …, in
// ascending z, then applies 0.15+0.85·sum. A round that changes nothing
// ends the recursion.
func refPageRankBits(g *graph.Graph) map[uint32]float64 {
	inv, pr := annRel{}, annRel{}
	for v, ns := range g.Adj {
		if len(ns) > 0 {
			inv[uint32(v)] = 1 / float64(len(ns))
		}
	}
	for v := range inv {
		pr[v] = 1 / float64(len(inv))
	}
	for range 5 {
		next := annRel{}
		for x, acc := range refFold(g, semiring.Sum, nil, pr, inv) {
			next[x] = 0.15 + float64(0.85*acc)
		}
		if slices.Equal(bitsOf(next, false), bitsOf(pr, false)) {
			break
		}
		pr = next
	}
	return pr
}

// refSSSPBits is the SSSP program from src in plain loops: the base rule
// seeds src's neighbours at 1, and a round improves x to (0 + d(w)) + 1
// over the w whose edge reaches it, until nothing improves.
func refSSSPBits(g *graph.Graph, src uint32) map[uint32]float64 {
	d := map[uint32]float64{}
	for _, x := range g.Adj[src] {
		d[x] = 1
	}
	for changed := true; changed; {
		changed = false
		for x, a := range refScatter(g, semiring.Min, d) {
			if old, ok := d[x]; !ok || a+1 < old {
				d[x], changed = a+1, true
			}
		}
	}
	return d
}

// refReach is the Boolean rule R(x)*[i=3] :- Edge(w,x),R(w) after the
// base R(x) :- Edge(src,x): each round replaces R by its successors.
func refReach(g *graph.Graph, src uint32, rounds int) map[uint32]float64 {
	r := map[uint32]float64{}
	for _, x := range g.Adj[src] {
		r[x] = 0
	}
	for range rounds {
		next := map[uint32]float64{}
		for w := range r {
			for _, x := range g.Adj[w] {
				next[x] = 0
			}
		}
		if slices.Equal(bitsOf(next, true), bitsOf(r, true)) {
			break
		}
		r = next
	}
	return r
}

// TestLastLevelKernels: the gather and scatter kernels give, to the bit,
// the answers of references written as plain loops in the documented ⊕
// order, at Parallelism 1, 2 and 4 under the auto, uint and bitset
// policies (so on mixed, uint and bitset children). Single rules also
// show which kernel their last level took.
func TestLastLevelKernels(t *testing.T) {
	g := kernelGraph()
	src := g.MaxDegreeNode()
	rng := rand.New(rand.NewSource(3))
	float := func() float64 { return rng.Float64() }
	// Holes: each misses about a third of the vertices. T annotates x, so
	// the annotation reaching z is not One and the vectors must not fuse.
	r, q, tx := randomAnnRel(g, 0.7, rng, float), randomAnnRel(g, 0.6, rng, float), randomAnnRel(g, 0.8, rng, float)
	specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -2.5, 1, 7}
	special := func() float64 { return specials[rng.Intn(len(specials))] }
	dmin, dmax := randomAnnRel(g, 0.5, rng, special), randomAnnRel(g, 0.5, rng, special)
	frontier := randomAnnRel(g, 0.3, rng, float)
	db := dbWithGraph(g)
	r.register(db, "R", semiring.Sum)
	q.register(db, "Q", semiring.Sum)
	tx.register(db, "T", semiring.Sum)
	dmin.register(db, "Dmin", semiring.Min)
	dmax.register(db, "Dmax", semiring.Max)
	fb := trie.NewColumnarBuilder(1, semiring.None, nil)
	for v := range frontier {
		fb.Add(v)
	}
	db.AddTrie("Frontier", fb.Build())

	// Re-associated as T·(R·Q), the not-One fold would differ: the row
	// shows a fusion that should not happen.
	notOne := refFold(g, semiring.Sum, tx, r, q)
	rq := annRel{}
	for v, a := range r {
		if c, ok := q[v]; ok {
			rq[v] = a * c
		}
	}
	if slices.Equal(bitsOf(notOne, false), bitsOf(refFold(g, semiring.Sum, tx, rq), false)) {
		t.Fatal("T·R·Q and T·(R·Q) agree to the bit here: the not-One row shows nothing")
	}

	s := itoa(int64(src))
	for _, c := range []struct {
		name, query string
		want        map[uint32]float64
		boolean     bool
		// tail is the kind a single rule's last level takes under the
		// auto and bitset policies (under uint, no atom is a vector).
		tail, uintTail levelKind
		skips          bool // the fold skips values a vector lacks, when there are vectors
	}{
		{name: "pagerank", query: qPageRank, want: refPageRankBits(g)},
		{name: "sssp", query: `S(x;y:int) :- Edge("` + s + `",x); y=1.
S(x;y:int)* :- Edge(w,x),S(w); y=<<MIN(w)>>+1.`, want: refSSSPBits(g, src)},
		{name: "reach_rounds", query: `R(x) :- Edge("` + s + `",x).
R(x)*[i=3] :- Edge(w,x),R(w).`, want: refReach(g, src, 3), boolean: true},
		{name: "reach_round", query: `P(x) :- Edge(w,x),Frontier(w).`, want: refScatter(g, semiring.Sum, frontier),
			boolean: true, tail: kindScatter, uintTail: kindScatter},
		{name: "fold_holes", query: `W(x;s:float) :- Edge(x,z),R(z),Q(z); s=<<SUM(z)>>.`,
			want: refFold(g, semiring.Sum, nil, r, q), tail: kindGather, uintTail: kindFold, skips: true},
		{name: "fold_not_one", query: `W(x;s:float) :- T(x),Edge(x,z),R(z),Q(z); s=<<SUM(z)>>.`,
			want: notOne, tail: kindFold, uintTail: kindFold, skips: true},
		{name: "scatter_min", query: `M(x;m:float) :- Dmin(w),Edge(w,x); m=<<MIN(w)>>.`,
			want: refScatter(g, semiring.Min, dmin), tail: kindScatter, uintTail: kindScatter},
		{name: "scatter_max", query: `M(x;m:float) :- Dmax(w),Edge(w,x); m=<<MAX(w)>>.`,
			want: refScatter(g, semiring.Max, dmax), tail: kindScatter, uintTail: kindScatter},
	} {
		want := bitsOf(c.want, c.boolean)
		for _, layout := range []*trie.Policy{nil, trie.UintLayout, trie.BitsetLayout} {
			for _, par := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/par=%d", c.name, layout, par), func(t *testing.T) {
					pr := prepareQOpts(t, db, c.query, Options{Parallelism: par, Layout: layout})
					res, err := pr.RunWith(db.Fork(), RunParams{Collect: true})
					if err != nil {
						t.Fatal(err)
					}
					got := resultBits(res)
					if c.boolean {
						got = nil
						res.ForEach(func(tp []uint32, _ float64) { got = append(got, fmt.Sprint(tp)) })
					}
					if len(want) == 0 || !slices.Equal(got, want) {
						t.Fatalf("%d tuples, reference %d; first difference %s", len(got), len(want), diffAt(got, want))
					}
					if c.tail == kindDescend {
						return // a program: its result carries no plan
					}
					tail := c.tail
					if layout == trie.UintLayout {
						tail = c.uintTail
					}
					if got := res.facts.bag(res.Plan.Root).kind; got != tail {
						t.Fatalf("last level ran as kind %d, want %d", got, tail)
					}
					var skipped int64
					for _, b := range res.Stats.Bags {
						for _, l := range b.Levels {
							skipped += l.Skipped
						}
					}
					if c.skips && layout != trie.UintLayout && skipped == 0 {
						t.Fatal("the fold skipped nothing: the vectors' holes show nothing")
					}
				})
			}
		}
	}
}

// diffAt names the first entry where got and want differ.
func diffAt(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("at %d: %s, reference %s", i, got[i], want[i])
		}
	}
	return "in length"
}

// One PageRank round and one SSSP round run their last level by kernel
// and report, at every Parallelism, the EXPLAIN ANALYZE counters the
// per-value path reported on the same database before the kernels (the
// values recorded here).
func TestLastLevelKernelCounters(t *testing.T) {
	db, _ := accumulatorDBs()
	for _, c := range []struct {
		query string
		lines []string
	}{
		{qPageRankRound, []string{
			"@bag0(x) → dense x[0..199]:  // actual: emitted=200 ",
			"sx := πx Edge  // actual: ∩=1 in=200 out=200\n",
			"for x in sx:  // actual: probes=200 skipped=0\n",
			"sz := πz Edge[x] · PageRank[z] · InvDeg[z]  // actual: ∩=200 in=2400 out=2400\n",
			"aggregate over z in sz by gather:  // actual: probes=2400 skipped=0\n",
		}},
		{`S(x;y:int) :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`, []string{
			"@bag0(x) → dense x[0..199]:  // actual: emitted=764 ",
			"sw := πw Edge ∩ πw SSSP  // actual: ∩=1 in=267 out=67 ",
			"for w in sw:  // actual: probes=67 skipped=0\n",
			"sx := πx Edge[w]  // actual: ∩=67 in=764 out=764\n",
			"for x in sx by scatter:  // actual: probes=764 skipped=0\n",
		}},
	} {
		for _, par := range []int{1, 2, 4} {
			res, err := prepareQOpts(t, db, c.query, Options{Parallelism: par}).RunWith(db.Fork(), RunParams{Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			out := res.ExplainAnalyze()
			for _, l := range c.lines {
				if !strings.Contains(out, l) {
					t.Errorf("par=%d: EXPLAIN ANALYZE lacks %q:\n%s", par, l, out)
				}
			}
		}
	}
}

// BenchmarkGather times the gather kernel alone over one PageRank round
// of BenchmarkRecursion's graph: one call per x over Edge(x, ·) against
// the fused PageRank·InvDeg vector, with Edge indexed under the auto
// policy (uint and bitset children) and under UintLayout (uint only).
// ns/edge is the time per candidate.
func BenchmarkGather(b *testing.B) {
	g := gen.PowerLaw(6000, 40000, 2.3, 1)
	db := dbWithGraph(g)
	addPageRankInputs(db, g)
	var vecs []*vector
	for _, name := range []string{"PageRank", "InvDeg"} {
		rel, _ := db.Relation(name)
		vecs = append(vecs, rel.vector(rel.Index([]int{0}, nil), nil))
	}
	fused := fuse(semiring.Sum, vecs)
	edge, _ := db.Relation("Edge")
	for _, layout := range []*trie.Policy{nil, trie.UintLayout} {
		root := edge.Index([]int{0, 1}, layout).Root
		b.Run(layout.String(), func(b *testing.B) {
			var scratch []uint32
			var sum float64
			edges := 0
			for b.Loop() {
				for _, c := range root.Children {
					acc, _ := gatherVec(semiring.Sum, &c.Set, &fused, 1, &scratch)
					sum += acc
					edges += c.Set.Card()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
			if sum == 0 {
				b.Fatal("the gather folded nothing")
			}
		})
	}
}
