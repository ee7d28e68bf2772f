package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/delta"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// accumulatorRow is one query of TestUnaryAccumulator: form is what
// EXPLAIN shows after the run, inner marks a SUM whose output level is
// not the first, where workers share output values and so fold them in
// an order the scheduler picks.
type accumulatorRow struct {
	name  string
	small bool // runs on the small graph, where brute force over 7 atoms is quick
	query string
	form  string
	inner bool
}

var accumulatorRows = []accumulatorRow{
	{"pagerank_round", false, `PR(x;y:float) :- Edge(x,z),PageRank(z),InvDeg(z); y=<<SUM(z)>>.`, "@bag0(x) → dense x[", false},
	{"invdeg", false, `InvDeg(x;d:float) :- Edge(x,y); d=1/<<COUNT(*)>>.`, "@bag0(x) → dense x[", false},
	{"deg", false, `Deg(x;d:long) :- Edge(x,y); d=<<COUNT(*)>>.`, "@bag0(x) → dense x[", false},
	{"sssp_round", false, `S(x;y:int) :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`, "@bag0(x) → dense x[", false},
	{"inner_sum", false, `M(z;w:float) :- Edge(x,z),PageRank(x); w=<<SUM(x)>>.`, "@bag0(z) → dense z[", true},
	{"max", false, `X(x;m:float) :- Edge(x,z),W(z); m=<<MAX(z)>>.`, "@bag0(x) → dense x[", false},
	{"l31_child", true, `L31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,w); c=<<COUNT(*)>>.`, "(x) → dense x[", false},
	{"b31_child", true, `B31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,x2),Edge(x2,y2),Edge(y2,z2),Edge(x2,z2); c=<<COUNT(*)>>.`, "(x) → dense x[", false},
	{"boolean_listing", false, `P(x) :- Edge(x,y),Edge(y,z).`, "@bag0(x) → dense x[", false},
}

// accumulatorDBs returns the two databases of TestUnaryAccumulator: a
// 200-vertex graph with unary relations annotated under SUM (PageRank,
// random floats, so the order of a sum shows in its bits; InvDeg), MIN
// (SSSP, distances of a third of the vertices) and MAX (W), and a
// 40-vertex graph for L31 and B31.
func accumulatorDBs() (db, small *DB) {
	g := testGraph(200, 1200, 7)
	db = dbWithGraph(g)
	addPageRankInputs(db, g)
	rng := rand.New(rand.NewSource(5))
	addAnnotated(db, "PageRank", semiring.Sum, upTo(g.N), func(uint32) float64 { return rng.Float64() })
	var reached []uint32
	for v := range uint32(g.N) {
		if v%3 == 0 {
			reached = append(reached, v)
		}
	}
	addAnnotated(db, "SSSP", semiring.Min, reached, func(v uint32) float64 { return float64(1 + v%5) })
	addAnnotated(db, "W", semiring.Max, upTo(g.N), func(uint32) float64 { return float64(rng.Intn(50)) })
	return db, dbWithGraph(testGraph(40, 120, 3))
}

// runAccumulatorRow runs row at Parallelism par on a fork of db.
func runAccumulatorRow(t *testing.T, db *DB, row accumulatorRow, par int) *Result {
	t.Helper()
	res, err := runWith(t, db.Fork(), row.query, Options{Parallelism: par}, RunParams{})
	if err != nil {
		t.Fatalf("%s at Parallelism %d: %v", row.name, par, err)
	}
	return res
}

// naiveRelOf reads relation name of db for the brute-force evaluator.
func naiveRelOf(db *DB, name string) *naiveRel {
	rel, _ := db.Relation(name)
	t := rel.Canonical()
	r := &naiveRel{arity: t.Arity, op: t.Op, annot: t.Annotated}
	t.ForEachTuple(func(tp []uint32, ann float64) {
		r.tuples = append(r.tuples, slices.Clone(tp))
		r.anns = append(r.anns, ann)
	})
	return r
}

// naiveRows keys a result the way naiveEval does: the head tuple in head
// order, each value followed by a comma; a scalar is the row "".
func naiveRows(rule *datalog.Rule, res *Result) map[string]float64 {
	got := map[string]float64{}
	if res.Trie.Arity == 0 {
		got[""] = res.Scalar()
		return got
	}
	res.ForEach(func(tp []uint32, ann float64) {
		key := make([]uint32, len(tp))
		for i, a := range res.Attrs {
			key[slices.Index(rule.Head.Vars, a)] = tp[i]
		}
		var sb strings.Builder
		for _, v := range key {
			fmt.Fprintf(&sb, "%d,", v)
		}
		got[sb.String()] = ann
	})
	return got
}

// A bag with one output attribute folds into dense accumulators, and its
// answers are the brute-force evaluator's: exactly under MIN, MAX, COUNT
// and for a set, within rounding under SUM, whose brute force adds in
// another order. At four workers a level-0 output value is bound by one
// worker, so every result but the inner-level SUM's is bitwise the one
// worker's; that one differs in the last bits at most. EXPLAIN shows the
// accumulator and its span.
func TestUnaryAccumulator(t *testing.T) {
	db, small := accumulatorDBs()
	for _, row := range accumulatorRows {
		t.Run(row.name, func(t *testing.T) {
			on := db
			if row.small {
				on = small
			}
			rule := mustParse(t, row.query).Rules[0]
			rels := map[string]*naiveRel{}
			for _, a := range rule.Atoms {
				rels[a.Pred] = naiveRelOf(on, a.Pred)
			}
			want, op := naiveEval(rels, rule)
			if rule.Assign != nil {
				eval, err := compileExpr(on, rule.Assign.Expr)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range want {
					want[k] = eval(v)
				}
			}
			if len(want) == 0 {
				t.Fatal("the brute force finds nothing: the row checks nothing")
			}
			var serial map[string]float64
			for _, par := range []int{1, 4} {
				res := runAccumulatorRow(t, on, row, par)
				if plan := res.ExplainAnalyze(); !strings.Contains(plan, row.form) {
					t.Errorf("Parallelism %d: EXPLAIN lacks %q:\n%s", par, row.form, plan)
				}
				got := naiveRows(rule, res)
				if len(got) != len(want) {
					t.Fatalf("Parallelism %d: %d rows, brute force %d", par, len(got), len(want))
				}
				for k, w := range want {
					g, ok := got[k]
					if rule.Assign == nil {
						g, w = 0, 0 // a set: membership only
					}
					if !ok || g != w && (op != semiring.Sum || math.Abs(g-w) > 1e-12*math.Abs(w)) {
						t.Fatalf("Parallelism %d, tuple %s: got %v (%v), brute force %v", par, k, g, ok, w)
					}
				}
				if serial == nil {
					serial = got
					continue
				}
				for k, s := range serial {
					if g := got[k]; math.Float64bits(g) != math.Float64bits(s) && (!row.inner || math.Abs(g-s) > 1e-12*math.Abs(s)) {
						t.Fatalf("Parallelism %d, tuple %s: %v, one worker %v", par, k, g, s)
					}
				}
			}
		})
	}
}

// A unary aggregate over values 0 and 2³²−2 has a span of 2³²−1 slots
// for two tuples: it keeps rows, allocates next to nothing and answers
// right, at the first level and at an inner one. So does a bag whose
// selection constant leaves it two tuples, 0 and 99, of a relation whose
// column spans 100 values in 2,002 tuples. An inner output behind such a
// selection keeps rows too: F maps 20,000 values y to 5y, so its output
// column spans 99,996 values, under 8 per tuple of F, but the two values
// S("7",y) selects reach two tuples of F, not 20,000.
func TestUnaryAccumulatorHostileRange(t *testing.T) {
	const far = 0xFFFFFFFE
	db := NewDB()
	addAnnotated(db, "H", semiring.Sum, []uint32{0, far}, func(v uint32) float64 { return 1.5 + float64(v%3) })
	b := trie.NewColumnarBuilder(2, semiring.None, nil)
	for _, tp := range [][2]uint32{{1, 0}, {1, far}, {2, far}} {
		b.Add(tp[:]...)
	}
	db.AddTrie("G", b.Build())
	addUnary(db, "A", 1, 2)
	b = trie.NewColumnarBuilder(2, semiring.None, nil)
	for x := range uint32(20) {
		for y := range uint32(100) {
			b.Add(x, y)
		}
	}
	b.Add(50, 0)
	b.Add(50, 99)
	db.AddTrie("E", b.Build())
	b = trie.NewColumnarBuilder(2, semiring.None, nil)
	b.Add(7, 1)
	b.Add(7, 2)
	db.AddTrie("S", b.Build())
	b = trie.NewColumnarBuilder(2, semiring.None, nil)
	for y := range uint32(20000) {
		b.Add(y, 5*y)
	}
	db.AddTrie("F", b.Build())
	for _, tc := range []struct {
		name, query, form, want string
	}{
		{"level0", `Q(x;w:float) :- H(x); w=<<SUM(x)>>.`, "@bag0(x) → rows:\n  sx", "{(0): 1.5, (4294967294): 3.5}"},
		{"inner", `Q(y;w:long) :- A(x),G(x,y); w=<<COUNT(*)>>.`, "@bag0(y) → rows:\n  sx", "{(0): 1, (4294967294): 2}"},
		{"selection", `Q(;c:long) :- E("50",y),E(x,y); c=<<COUNT(*)>>.`, "(y) → rows:\n  E := E[50]", "42"},
		{"inner_selection", `Q(z;c:long) :- S("7",y),F(y,z); c=<<COUNT(*)>>.`, "@bag0(z) → rows:\n  sy := πy F ∩ πy @bag1", "{(5): 1, (10): 1}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []int{1, 4} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := runWith(t, db.Fork(), tc.query, Options{Parallelism: par}, RunParams{})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
					t.Errorf("Parallelism %d: allocated %d bytes", par, grew)
				}
				if got := renderAnswer(t, tc.query, res); got != tc.want {
					t.Errorf("Parallelism %d: got %s, want %s", par, got, tc.want)
				}
				if plan := res.ExplainAnalyze(); !strings.Contains(plan, tc.form) {
					t.Errorf("Parallelism %d: EXPLAIN lacks %q:\n%s", par, tc.form, plan)
				}
			}
		})
	}
}

// An inner output level's span covers a streaming-update relation's
// inserted values: the range is the base's unioned with the inserts'
// (deletes only narrow the exact one), and the dense answer is the one
// the compacted relation gives.
func TestUnaryAccumulatorOverOverlay(t *testing.T) {
	pairs := func(tps ...[2]uint32) *trie.Trie {
		b := trie.NewColumnarBuilder(2, semiring.None, nil)
		for _, tp := range tps {
			b.Add(tp[:]...)
		}
		return b.Build()
	}
	var grid, del [][2]uint32
	for x := range uint32(10) {
		for y := range uint32(10) {
			grid = append(grid, [2]uint32{x, y})
		}
		del = append(del, [2]uint32{x, 9})
	}
	ins := pairs([2]uint32{3, 40}, [2]uint32{4, 45})
	ov := delta.NewOverlay(2, false, semiring.None, nil).Apply(ins, pairs(del...))
	rel := NewOverlayRelation(NewRelation("G", pairs(grid...)), ov, 92, 1, 0)
	if cs, ok := rel.colSpan(1); !ok || cs.lo != 0 || cs.hi != 45 {
		t.Fatalf("colSpan(1) = %+v, want [0..45]", cs)
	}
	db, plain := NewDB(), NewDB()
	db.Install(rel)
	plain.AddTrie("G", delta.Compact(rel.Canonical()))
	const q = `Q(y;c:long) :- A(x),G(x,y); c=<<COUNT(*)>>.`
	for _, d := range []*DB{db, plain} {
		addUnary(d, "A", upTo(10)...)
	}
	for _, par := range []int{1, 4} {
		res, err := runWith(t, db.Fork(), q, Options{Parallelism: par}, RunParams{})
		if err != nil {
			t.Fatal(err)
		}
		if plan := res.ExplainAnalyze(); !strings.Contains(plan, "@bag0(y) → dense y[0..45]") {
			t.Errorf("Parallelism %d: EXPLAIN lacks the dense span:\n%s", par, plan)
		}
		want, err := runWith(t, plain.Fork(), q, Options{Parallelism: par}, RunParams{})
		if err != nil {
			t.Fatal(err)
		}
		if got, w := renderAnswer(t, q, res), renderAnswer(t, q, want); got != w {
			t.Errorf("Parallelism %d: got %s, compacted %s", par, got, w)
		}
	}
}
