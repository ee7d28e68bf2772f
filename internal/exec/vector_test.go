package exec

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// addAnnotated registers a unary relation annotated under op: ann(v) for
// every v of vals.
func addAnnotated(db *DB, name string, op semiring.Op, vals []uint32, ann func(v uint32) float64) {
	b := trie.NewColumnarBuilder(1, op, nil)
	for _, v := range vals {
		b.AddAnn(ann(v), v)
	}
	db.AddTrie(name, b.Build())
}

// upTo returns 0..n-1.
func upTo(n int) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	return vals
}

// qPageRankRound is one round of PageRank over registered PageRank and
// InvDeg relations: two vectors at the folded tail level z.
const qPageRankRound = `PR(x;y:float) :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.`

// addPageRankInputs registers PageRank and InvDeg over g's vertices as a
// PageRank round reads them.
func addPageRankInputs(db *DB, g *graph.Graph) {
	addAnnotated(db, "PageRank", semiring.Sum, upTo(g.N), func(uint32) float64 { return 1 / float64(g.N) })
	var deg []uint32
	for v, ns := range g.Adj {
		if len(ns) > 0 {
			deg = append(deg, uint32(v))
		}
	}
	addAnnotated(db, "InvDeg", semiring.Sum, deg, func(v uint32) float64 { return 1 / float64(len(g.Adj[v])) })
}

// A vector participant answers exactly as the intersection it replaces:
// each row runs under the auto layout, which reads its dense unary
// annotated atoms as vectors, and under OptNoLayout, whose uint sets
// never qualify, at one worker and four, and all four results agree to
// the bit. EXPLAIN shows which atoms each run read as vectors.
func TestVectorParticipantsMatchTrie(t *testing.T) {
	base := testGraph(200, 1200, 7)
	edges := [][2]uint32{{200, 201}, {200, 202}, {203, 204}, {203, 205}}
	for u, ns := range base.Adj {
		for _, v := range ns {
			edges = append(edges, [2]uint32{uint32(u), v})
		}
	}
	g := graph.FromEdges(206, edges, true)
	db := dbWithGraph(g)
	addPageRankInputs(db, g)
	rng := rand.New(rand.NewSource(3))
	weight := map[uint32]float64{}
	for v := range uint32(200) {
		if v%7 != 0 {
			weight[v] = float64(rng.Intn(20) + 1)
		}
	}
	// 200's neighbours 201 and 202 are absent; 203's one present
	// neighbour, 204, is annotated 0, so 203's SUM is 0.
	weight[204] = 0
	var support []uint32
	for v := range uint32(206) {
		if _, ok := weight[v]; ok {
			support = append(support, v)
		}
	}
	addAnnotated(db, "R", semiring.Sum, support, func(v uint32) float64 { return weight[v] })
	addAnnotated(db, "D", semiring.Min, support, func(v uint32) float64 { return weight[v] })
	addUnary(db, "A", support...)
	// Float annotations, where ⊗ order shows in the bits: F is dense (a
	// vector), S has three members (a uint set, intersected).
	float := func(uint32) float64 { return rng.Float64() }
	addAnnotated(db, "T", semiring.Sum, upTo(206), float)
	addAnnotated(db, "F", semiring.Sum, upTo(206), float)
	addAnnotated(db, "S", semiring.Sum, []uint32{1, 2, 3}, float)
	addAnnotated(db, "InDeg", semiring.Count, upTo(206), func(v uint32) float64 { return float64(len(g.Adj[v])) })

	rows := []struct {
		name, text string
		vectors    []string // what EXPLAIN shows read as vectors under auto
	}{
		{"pagerank_round", qPageRankRound, []string{"· PageRank[z] · InvDeg[z]"}},
		{"support_misses", `W(x;s:float) :- Edge(x,z),R(z); s=<<SUM(z)>>.`, []string{"· R[z]"}},
		{"min_unset_slots", `M(x;m:int) :- Edge(x,z),D(z); m=<<MIN(z)>>+1.`, []string{"· D[z]"}},
		// z binds values for y, so R is intersected there: only a gather
		// reads a vector.
		{"non_tail_level", `C(x;w:long) :- Edge(x,z),R(z),Edge(z,y),Edge(x,y); w=<<COUNT(*)>>.`, nil},
		// docs/LANGUAGE.md's MAX over 2-walks: InDeg[z] is a gather's
		// vector, and InDeg[y], where another atom annotates, is
		// intersected.
		{"binding_and_tail", `M(x;m:long) :- Edge(x,y),Edge(y,z),InDeg(y),InDeg(z); m=<<MAX(z)>>.`, []string{"· InDeg[z]"}},
		// The planner never puts an annotated atom in an existence tail,
		// so this tail's unary atom is a plain one.
		{"existence_tail", `E(;w:long) :- Edge(x,z),A(z); w=<<COUNT(x)>>.`, nil},
		{"sssp_level_0", `S(x;y:int) :- Edge(w,x),D(w); y=<<MIN(w)>>+1.`, nil},
		// S collects its annotation at z after F in atom order, so F stays
		// intersected: ⊗ runs T·F·S, never T·S·F.
		{"annotated_atom_after_vector", `W(x;s:float) :- T(x),Edge(x,z),F(z),S(z); s=<<SUM(z)>>.`, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var want string
			for _, opts := range []Options{{}, OptNoLayout} {
				for _, par := range []int{1, 4} {
					opts.Parallelism = par
					res, err := prepareQOpts(t, db, row.text, opts).Run(db.Fork())
					if err != nil {
						t.Fatal(err)
					}
					got := resultKey(t, res)
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("layout %s, parallelism %d: result differs from auto at one worker", opts.Layout, par)
					}
					plan := res.ExplainAnalyze()
					vectorized := opts.Layout == nil && row.vectors != nil
					want := 0
					for _, v := range row.vectors {
						if strings.Contains(plan, v) != vectorized {
							t.Errorf("layout %s: want %q in EXPLAIN %v:\n%s", opts.Layout, v, vectorized, plan)
						}
						if vectorized {
							want += strings.Count(v, "·")
						}
					}
					if n := strings.Count(plan, "·"); n != want {
						t.Errorf("layout %s: %d vectors in EXPLAIN, want %d:\n%s", opts.Layout, n, want, plan)
					}
				}
			}
			if row.name != "support_misses" {
				return
			}
			res, err := prepareQOpts(t, db, row.text, Options{}).Run(db.Fork())
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := res.Trie.Root.AnnOf(200, semiring.Sum); ok {
				t.Error("x=200, whose neighbours are all absent, has a tuple")
			}
			// Its SUM is the semiring's 0, so the tuple is not in the
			// relation (docs/LANGUAGE.md).
			if ann, ok := res.Trie.Root.AnnOf(203, semiring.Sum); ok {
				t.Errorf("x=203, whose one present neighbour is annotated 0: got %v, want no tuple", ann)
			}
		})
	}
}

// Two workers never write within a cache line of each other: every
// allocation a worker writes per value or per emit is padded, so the gap
// between any two workers' written regions is at least cacheLine bytes
// wherever the allocator put them. The regions are the worker's fields
// and its slots, output buffer, column headers, dense accumulator,
// scratch sets and level counters; the columns and annotations they
// point at hold rows, which are appended at their far end.
func TestWorkersWriteApart(t *testing.T) {
	db := dbWithGraph(testGraph(50, 200, 1))
	for _, tc := range []struct {
		name, query string
		span        *accSpan
	}{
		{"rows", qTriangleListing, nil},
		{"dense", `TC(x;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.`, &accSpan{0, 49}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(db, mustParse(t, tc.query).Rules[0], Options{})
			if err != nil {
				t.Fatal(err)
			}
			ex := &bagExec{p: p, r: &run{p: p, stats: &ExecStats{}}, bp: p.Root, op: semiring.Sum, nodes: make([]*trie.Node, 9), span: tc.span}
			type region struct{ lo, hi uintptr }
			span := func(p unsafe.Pointer, n uintptr) region {
				return region{uintptr(p), uintptr(p) + n}
			}
			regions := func(w *worker) []region {
				return slices.DeleteFunc([]region{
					span(unsafe.Pointer(&w.ex), unsafe.Offsetof(w.err)+unsafe.Sizeof(w.err)-unsafe.Offsetof(w.ex)),
					span(unsafe.Pointer(unsafe.SliceData(w.slots)), uintptr(len(w.slots))*unsafe.Sizeof(w.slots[0])),
					span(unsafe.Pointer(unsafe.SliceData(w.outBuf)), uintptr(len(w.outBuf))*unsafe.Sizeof(w.outBuf[0])),
					span(unsafe.Pointer(unsafe.SliceData(w.cols)), uintptr(len(w.cols))*unsafe.Sizeof(w.cols[0])),
					span(unsafe.Pointer(unsafe.SliceData(w.has)), uintptr(len(w.has))*unsafe.Sizeof(w.has[0])),
					span(unsafe.Pointer(unsafe.SliceData(w.acc)), uintptr(len(w.acc))*unsafe.Sizeof(w.acc[0])),
					span(unsafe.Pointer(unsafe.SliceData(w.scratch)), uintptr(len(w.scratch))*unsafe.Sizeof(w.scratch[0])),
					span(unsafe.Pointer(unsafe.SliceData(w.lc)), uintptr(len(w.lc))*unsafe.Sizeof(w.lc[0])),
				}, func(r region) bool { return r.lo == r.hi }) // rows: no accumulator
			}
			ws := make([]*worker, 8)
			for i := range ws {
				ws[i] = ex.newWorker()
			}
			for i := range ws {
				for j := range i {
					for _, a := range regions(ws[i]) {
						for _, b := range regions(ws[j]) {
							if a.hi+cacheLine > b.lo && b.hi+cacheLine > a.lo {
								t.Fatalf("workers %d and %d write within a cache line: [%#x, %#x) and [%#x, %#x)", j, i, b.lo, b.hi, a.lo, a.hi)
							}
						}
					}
				}
			}
		})
	}
}

// A vector is only what a gather reads: run rule by rule, each rule one
// round, every benchmark program and every docs/LANGUAGE.md example shows
// a vector ("· Rel[v]") in EXPLAIN ANALYZE only on a level that runs by
// gather. The programs run on a random graph, the examples on the
// document's relations.
func TestVectorsOnlyAtGathers(t *testing.T) {
	graphDB := dbWithGraph(testGraph(200, 1200, 7))
	docDB, examples := languageDoc(t)
	type program struct {
		db   *DB
		text string
	}
	var programs []program
	for _, q := range slices.Concat(recursionPrograms, patternPrograms) {
		programs = append(programs, program{graphDB, q.text})
	}
	for _, ex := range examples {
		programs = append(programs, program{docDB, ex[1]})
	}
	gathers := 0
	for _, pg := range programs {
		db := pg.db.Fork()
		for _, rule := range mustParse(t, pg.text).Rules {
			round := *rule
			round.Head.Recursive, round.Head.Iterations = false, 0
			pr, err := Prepare(db, &datalog.Program{Rules: []*datalog.Rule{&round}}, Options{})
			if err != nil {
				t.Fatalf("%s: %v", rule, err)
			}
			res, err := pr.RunWith(db, RunParams{Collect: true})
			if err != nil {
				t.Fatalf("%s: %v", rule, err)
			}
			plan := res.ExplainAnalyze()
			lines := strings.Split(plan, "\n")
			for i, l := range lines {
				if !strings.Contains(l, "·") {
					continue
				}
				gathers++
				if i+1 == len(lines) || !strings.Contains(lines[i+1], " by gather:") {
					t.Errorf("%s: a vector on a level that does not gather:\n%s", rule, plan)
				}
			}
		}
	}
	if gathers == 0 {
		t.Fatal("no rule read a vector: the check shows nothing")
	}
}

// One Prepared PageRank round run from eight goroutines at once, each on
// its own fork and each building its own vector, returns the bits of a
// run alone.
func TestPreparedVectorRoundsAgree(t *testing.T) {
	db, _ := accumulatorDBs()
	pr := prepareQOpts(t, db, qPageRankRound, Options{Parallelism: 2})
	alone, err := pr.Run(db.Fork())
	if err != nil {
		t.Fatal(err)
	}
	want := resultBits(alone)
	got := make([][]string, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pr.Run(db.Fork())
			if errs[i] = err; err == nil {
				got[i] = resultBits(res)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(got[i], want) {
			t.Fatalf("goroutine %d: %d tuples, alone %d; first difference %s", i, len(got[i]), len(want), diffAt(got[i], want))
		}
	}
}
