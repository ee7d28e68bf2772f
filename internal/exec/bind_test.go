package exec

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/ghd"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trace"
	"emptyheaded/internal/trie"
)

// A plan is a function of the rule, the options and the schema of the
// relations the rule reads. The tests here hold the code to that: the
// rendered plan does not move with the data, a prepared program derives
// each rule's plan once, the bind step — Prepared.bind — is the only
// place a kept plan is checked against the database it runs on, and a
// run writes nothing into the plan it shares with every other run.

// derivations snapshots each rule's GHD, an object every Compile creates:
// the identity of a plan derivation.
func derivations(pr *Prepared) []*ghd.GHD {
	out := make([]*ghd.GHD, len(pr.plans))
	for i := range pr.plans {
		if p := pr.plans[i].Load(); p != nil {
			out[i] = p.GHD
		}
	}
	return out
}

func countDerived(gs []*ghd.GHD) int {
	n := 0
	for _, g := range gs {
		if g != nil {
			n++
		}
	}
	return n
}

// ringEdges is a ring of n vertices with chords: n rows short of 2n.
func ringEdges(n int) *trie.Trie {
	b := trie.NewColumnarBuilder(2, semiring.None, nil)
	for i := 0; i < n; i++ {
		b.Add(uint32(i), uint32((i+1)%n))
		if i%3 == 0 {
			b.Add(uint32(i), uint32((i+7)%n))
		}
	}
	return b.Build()
}

// TestPlanInvariantUnderCardinality: the same rule over relations whose
// sizes span four orders of magnitude — and differ from each other —
// renders byte-identical plans.
func TestPlanInvariantUnderCardinality(t *testing.T) {
	shapes := map[string]string{
		"triangle":  `TC(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.`,
		"barbell":   `B(;c:long) :- R(x,y),S(y,z),T(x,z),U(x,x2),R(x2,y2),S(y2,z2),T(x2,z2); c=<<COUNT(*)>>.`,
		"2-path":    `P2(x,z) :- R(x,y),S(y,z).`,
		"4-path":    `P4(a,e) :- R(a,b),S(b,c),T(c,d),U(d,e).`,
		"selection": `Sel(;c:long) :- R(4,y),S(y,z),T(4,z); c=<<COUNT(*)>>.`,
		"lollipop":  `L(;c:long) :- R(x,y),S(y,z),T(x,z),U(x,w); c=<<COUNT(*)>>.`,
	}
	// Per database, the sizes of R, S, T, U.
	sizings := [][4]int{
		{5, 5, 5, 5},
		{100000, 5, 300, 5},
		{5, 100000, 5, 70000},
		{60000, 60000, 60000, 60000},
	}
	dbs := make([]*DB, len(sizings))
	for i, sz := range sizings {
		dbs[i] = NewDB()
		for j, name := range []string{"R", "S", "T", "U"} {
			dbs[i].AddTrie(name, ringEdges(sz[j]))
		}
	}
	for name, text := range shapes {
		rule, err := datalog.ParseRule(text)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for i, db := range dbs {
			p, err := Compile(db, rule, Options{})
			if err != nil {
				t.Fatalf("%s on sizing %d: %v", name, i, err)
			}
			if got := p.Explain(db); i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: the plan moved with the relation sizes %v\n got %s\nwant %s", name, sizings[i], got, want)
			}
		}
	}
}

func sameResult(t *testing.T, when string, got, want *Result) {
	t.Helper()
	if !triesEqual(got.Trie, want.Trie) {
		t.Fatalf("%s: kept plans diverge from fresh ones: %v, want %v", when, got, want)
	}
}

// TestPreparedDerivesEachRuleOnce: a recursive program derives one plan
// per rule on its first run — the starred rule included — and none after,
// whatever happens to the data in between. A later run replays every
// fixpoint iteration over the kept plans, so a plan that some iteration
// had to derive again would show here as a replaced one.
func TestPreparedDerivesEachRuleOnce(t *testing.T) {
	g := testGraph(120, 500, 21)
	start := g.MaxDegreeNode()
	programs := []struct {
		name, text string
		rules      int
	}{
		{"pagerank", qPageRank, 4},
		{"sssp", `
SSSP(x;y:int) :- Edge("` + itoa(int64(start)) + `",x); y=1.
SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`, 2},
		{"sssp-naive", `
SSSP(x;y:int) :- Edge("` + itoa(int64(start)) + `",x); y=1.
SSSP(x;y:int)*[i=4] :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`, 2},
		// The starred rule written first: rule 0 reads a head that does not
		// exist until the base rule, rule 1, has run.
		{"sssp-starred-first", `
SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.
SSSP(x;y:int) :- Edge("` + itoa(int64(start)) + `",x); y=1.`, 2},
	}
	for _, pg := range programs {
		t.Run(pg.name, func(t *testing.T) {
			db := dbWithGraph(g)
			prog, err := datalog.Parse(pg.text)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := Prepare(db, prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if pr.HasPlan() {
				t.Fatal("HasPlan means a single non-recursive rule")
			}
			if n := countDerived(derivations(pr)); n != 1 {
				t.Fatalf("Prepare derived %d plans, want only the first rule to execute", n)
			}
			first, err := pr.RunWith(db.Fork(), RunParams{})
			if err != nil {
				t.Fatal(err)
			}
			kept := derivations(pr)
			if n := countDerived(kept); n != pg.rules {
				t.Fatalf("the first run derived %d plans, want one per rule (%d)", n, pg.rules)
			}
			fresh, err := RunProgram(db.Fork(), prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "first run", first, fresh)

			// Another graph under the same names: same schema, other data.
			g2 := testGraph(300, 2500, 22)
			db2 := dbWithGraph(g2)
			second, err := pr.RunWith(db2.Fork(), RunParams{})
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range derivations(pr) {
				if k != kept[i] {
					t.Errorf("rule %d was planned again on the second run", i)
				}
			}
			fresh, err = RunProgram(db2.Fork(), prog, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "second run, other data", second, fresh)
		})
	}
}

// TestBindChecksSchemaAndConstants drives one prepared selection through
// everything a kept plan takes from a database: data changes keep the
// plan, a schema change derives it again, constants follow the dictionary,
// and what cannot be planned fails with the error a fresh plan gives.
func TestBindChecksSchemaAndConstants(t *testing.T) {
	const text = `Q(y;m:long) :- A("20",y),B(y,z); m=<<COUNT(*)>>.`
	prog, err := datalog.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	pairs := func(rows ...[2]uint32) *trie.Trie {
		b := trie.NewColumnarBuilder(2, semiring.None, nil)
		for _, r := range rows {
			b.Add(r[0], r[1])
		}
		return b.Build()
	}
	dict := func(ids ...int64) *graph.Dictionary { return graph.DictFromOrigs(ids) }
	db := NewDB()
	db.SetDict(dict(10, 20, 30))
	db.AddTrie("A", pairs([2]uint32{1, 0}, [2]uint32{1, 2}, [2]uint32{0, 2}))
	db.AddTrie("B", pairs([2]uint32{0, 1}, [2]uint32{2, 0}, [2]uint32{2, 1}))
	pr, err := Prepare(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept := derivations(pr)[0]
	check := func(when string, wantKept bool) {
		t.Helper()
		got, gerr := pr.RunWith(db.Fork(), RunParams{})
		want, werr := RunProgram(db.Fork(), prog, Options{})
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: kept plan: %v; fresh plan: %v", when, gerr, werr)
		}
		if gerr == nil {
			sameResult(t, when, got, want)
		}
		now := derivations(pr)[0]
		if wantKept && now != kept {
			t.Fatalf("%s: the plan was derived again", when)
		}
		if !wantKept && now == kept {
			t.Fatalf("%s: the plan was kept", when)
		}
		kept = now
	}
	check("as prepared", true)

	db.AddTrie("B", pairs([2]uint32{0, 5}, [2]uint32{2, 5}, [2]uint32{2, 6}, [2]uint32{7, 7}))
	check("other rows in B", true)
	db.SetDict(dict(20, 10, 30)) // "20" is code 0 now; A and B untouched
	check("dictionary re-coded under untouched relations", true)
	db.SetDict(dict(10, 30))
	check("constant left the dictionary", true) // both fail alike; nothing derived
	db.SetDict(dict(30, 10, 20))
	check("constant entered the dictionary again", true)

	ab := trie.NewColumnarBuilder(2, semiring.Sum, nil)
	ab.AddAnn(3, 0, 1)
	ab.AddAnn(4, 2, 1)
	db.AddTrie("B", ab.Build())
	check("B became annotated", false)
	db.AddTrie("B", pairs([2]uint32{0, 1}, [2]uint32{2, 1}))
	check("B lost its annotation", false)

	b3 := trie.NewColumnarBuilder(3, semiring.None, nil)
	b3.Add(0, 1, 2)
	db.AddTrie("B", b3.Build())
	check("B became ternary", true) // an arity error both ways; nothing derived
	if _, err := pr.RunWith(db.Fork(), RunParams{}); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("B ternary: err = %v, want an arity error", err)
	}
	db.Drop("B")
	if _, err := pr.RunWith(db.Fork(), RunParams{}); err == nil || !strings.Contains(err.Error(), "unknown relation B") {
		t.Fatalf("B dropped: err = %v, want unknown relation", err)
	}
	db.AddTrie("B", pairs([2]uint32{0, 1}, [2]uint32{2, 1}))
	check("B binary again", true)
}

// TestTraceReachesEveryRule: RunParams.Trace receives bag spans from the
// base rule and from each fixpoint iteration — there is one way to run a
// rule, so no program shape runs untraced.
func TestTraceReachesEveryRule(t *testing.T) {
	g := testGraph(100, 600, 15)
	db := dbWithGraph(g)
	prog, err := datalog.Parse(qPageRank)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{ID: 1, Kind: "query", Start: time.Now()}
	if _, err := pr.RunWith(db.Fork(), RunParams{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	bags := 0
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "bag ") {
			bags++
		}
	}
	// N, InvDeg, the base rule and five iterations: at least a bag each.
	if bags < 8 {
		t.Fatalf("%d bag spans from a PageRank run, want at least 8", bags)
	}
}

// TestTraceOfLongFixpointIsBounded: SSSP down a path iterates once per
// hop; its trace keeps the bag spans of the base rule and the first
// tracedIters iterations and counts the rest.
func TestTraceOfLongFixpointIsBounded(t *testing.T) {
	const hops = 300
	b := trie.NewColumnarBuilder(2, semiring.None, nil)
	for i := 0; i < hops; i++ {
		b.Add(uint32(i), uint32(i+1))
	}
	db := NewDB()
	db.AddTrie("Edge", b.Build())
	prog, err := datalog.Parse("SSSP(x;y:int) :- Edge(0,x); y=1.\nSSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.")
	if err != nil {
		t.Fatal(err)
	}
	run := func(db *DB) (*Result, *trace.Trace) {
		tr := &trace.Trace{ID: 1, Kind: "query", Start: time.Now()}
		pr, err := Prepare(db, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := pr.RunWith(db.Fork(), RunParams{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res, tr
	}
	res, tr := run(db)
	if n := res.Trie.Cardinality(); n != hops {
		t.Fatalf("SSSP reached %d vertices, want %d", n, hops)
	}
	// What one traced pass of a rule leaves, from a fixpoint short enough
	// to be traced whole: the base rule and three iterations.
	short := NewDB()
	sb := trie.NewColumnarBuilder(2, semiring.None, nil)
	sb.Add(0, 1)
	sb.Add(1, 2)
	sb.Add(2, 3)
	short.AddTrie("Edge", sb.Build())
	_, str := run(short)
	if len(str.Attrs) != 0 {
		t.Fatalf("a 3-hop fixpoint left attrs %v, want every iteration traced", str.Attrs)
	}
	perPass := (len(str.Spans) + 3) / 4
	if max := (1 + tracedIters) * perPass; len(tr.Spans) == 0 || len(tr.Spans) > max {
		t.Fatalf("%d spans from a %d-hop fixpoint, want 1..%d", len(tr.Spans), hops, max)
	}
	if len(tr.Attrs) != 1 || tr.Attrs[0].Key != "untraced_iterations" {
		t.Fatalf("trace attrs %v, want untraced_iterations", tr.Attrs)
	}
	if n, _ := strconv.Atoi(tr.Attrs[0].Val); n < hops-tracedIters-1 {
		t.Fatalf("untraced_iterations = %s over %d hops with %d traced", tr.Attrs[0].Val, hops, tracedIters)
	}
}
