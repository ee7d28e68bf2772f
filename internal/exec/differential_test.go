package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// naiveEval evaluates a conjunctive rule by brute-force nested loops over
// the cross product of candidate bindings, with semiring aggregation —
// the specification our engine is tested against.
type naiveRel struct {
	arity  int
	tuples [][]uint32
	anns   []float64
	op     semiring.Op
	annot  bool
}

func naiveEval(rels map[string]*naiveRel, rule *datalog.Rule) (map[string]float64, semiring.Op) {
	vars := rule.Vars()
	idx := map[string]int{}
	for i, v := range vars {
		idx[v] = i
	}
	op := semiring.Sum
	aggVar := "*"
	if rule.Assign != nil {
		if agg := datalog.FindAgg(rule.Assign.Expr); agg != nil {
			op, _ = semiring.ParseOp(agg.Op)
			aggVar = agg.Arg
		}
	}
	type headKeyed struct {
		ann float64
		set bool
	}
	groups := map[string]*headKeyed{}
	// COUNT(v) counts distinct v per head tuple (docs/LANGUAGE.md): dedup
	// on (head vars, v) bindings. Every other aggregate folds each binding.
	seen := map[string]bool{}
	distinct := op == semiring.Count && aggVar != "*"

	binding := make([]uint32, len(vars))
	var rec func(ai int, ann float64)
	rec = func(ai int, ann float64) {
		if ai == len(rule.Atoms) {
			var hk strings.Builder
			for _, v := range rule.Head.Vars {
				fmt.Fprintf(&hk, "%d,", binding[idx[v]])
			}
			key := hk.String()
			if distinct {
				dk := key + "|" + fmt.Sprint(binding[idx[aggVar]])
				if seen[dk] {
					return
				}
				seen[dk] = true
			}
			g := groups[key]
			if g == nil {
				g = &headKeyed{ann: op.Zero()}
				groups[key] = g
			}
			g.ann = op.Add(g.ann, ann)
			g.set = true
			return
		}
		atom := rule.Atoms[ai]
		rel := rels[atom.Pred]
		for ti, tp := range rel.tuples {
			ok := true
			saved := map[int]uint32{}
			bound := map[int]bool{}
			for pos, arg := range atom.Args {
				if arg.Const != nil {
					if tp[pos] != uint32(arg.Const.Num) {
						ok = false
						break
					}
					continue
				}
				vi := idx[arg.Var]
				if bnd, was := varBound(binding, vi, ai, rule, idx); was {
					if bnd != tp[pos] {
						ok = false
						break
					}
				} else if prev, dup := saved[vi]; dup {
					if prev != tp[pos] {
						ok = false
						break
					}
				} else {
					saved[vi] = tp[pos]
					bound[vi] = true
				}
			}
			_ = ti
			if !ok {
				continue
			}
			for vi, val := range saved {
				binding[vi] = val
			}
			a := ann
			if rel.annot {
				a = op.Mul(a, rel.anns[indexOfTuple(rel, tp)])
			}
			markBound(ai, saved)
			rec(ai+1, a)
			unmarkBound(ai, saved)
		}
	}
	boundState = map[int]bool{}
	rec(0, op.One())
	// A head tuple annotated with the semiring's 0 is not in the relation
	// (docs/LANGUAGE.md); a scalar keeps its value.
	out := map[string]float64{}
	for k, g := range groups {
		if g.set && (g.ann != op.Zero() || len(rule.Head.Vars) == 0) {
			out[k] = g.ann
		}
	}
	return out, op
}

// Variable binding bookkeeping for the naive evaluator: a variable is
// bound once any earlier atom (or earlier position) fixed it.
var boundState map[int]bool

func varBound(binding []uint32, vi, ai int, rule *datalog.Rule, idx map[string]int) (uint32, bool) {
	if boundState[vi] {
		return binding[vi], true
	}
	return 0, false
}

func markBound(ai int, saved map[int]uint32) {
	for vi := range saved {
		boundState[vi] = true
	}
}

func unmarkBound(ai int, saved map[int]uint32) {
	for vi := range saved {
		delete(boundState, vi)
	}
}

func indexOfTuple(r *naiveRel, tp []uint32) int {
	for i, t := range r.tuples {
		same := true
		for k := range t {
			if t[k] != tp[k] {
				same = false
				break
			}
		}
		if same {
			return i
		}
	}
	return -1
}

// randomRel builds a random relation with optional annotations.
func randomRel(rng *rand.Rand, arity, maxCard int, domain uint32, annotated bool, op semiring.Op) *naiveRel {
	// Cap at the universe size so the rejection loop terminates.
	universe := 1
	for i := 0; i < arity; i++ {
		universe *= int(domain)
	}
	if maxCard > universe {
		maxCard = universe
	}
	n := 1 + rng.Intn(maxCard)
	seen := map[string]bool{}
	r := &naiveRel{arity: arity, op: op, annot: annotated}
	for len(r.tuples) < n {
		tp := make([]uint32, arity)
		var key strings.Builder
		for i := range tp {
			tp[i] = uint32(rng.Intn(int(domain)))
			fmt.Fprintf(&key, "%d,", tp[i])
		}
		if seen[key.String()] {
			continue
		}
		seen[key.String()] = true
		r.tuples = append(r.tuples, tp)
		if annotated {
			r.anns = append(r.anns, float64(1+rng.Intn(5)))
		}
	}
	return r
}

func registerNaive(db *DB, name string, r *naiveRel) {
	op := semiring.None
	if r.annot {
		op = r.op
	}
	b := trie.NewColumnarBuilder(r.arity, op, nil)
	for i, tp := range r.tuples {
		if r.annot {
			b.AddAnn(r.anns[i], tp...)
		} else {
			b.Add(tp...)
		}
	}
	db.AddTrie(name, b.Build())
}

// TestDifferentialRandomQueries generates random conjunctive queries over
// random relations and checks the engine (under several option sets)
// against the brute-force evaluator — the strongest end-to-end invariant
// in the suite.
func TestDifferentialRandomQueries(t *testing.T) {
	shapes := []string{
		`Q(a) :- R(a,b).`,
		`Q(a,c) :- R(a,b),S(b,c).`,
		`Q(a;n:long) :- R(a,b),S(b,c); n=<<COUNT(*)>>.`,
		`Q(;n:long) :- R(a,b),S(b,c),R(a,c); n=<<COUNT(*)>>.`,
		`Q(a;n:long) :- R(a,b),S(a,c); n=<<COUNT(b)>>.`,
		`Q(b;s:float) :- R(a,b),W(a); s=<<SUM(a)>>.`,
		`Q(b;s:float) :- R(a,b),W(a); s=<<MIN(a)>>.`,
		`Q(a,d) :- R(a,b),S(b,c),T(c,d).`,
		`Q(;n:long) :- R(a,b),S(b,c),T(c,d),R(a,d); n=<<COUNT(*)>>.`,
		`Q(a) :- R(a,b),S(b,7).`,
	}
	optionSets := map[string]Options{
		"default": OptDefault,
		"-RA":     OptNoLayoutNoAlgo,
		"-GHD":    OptNoGHD,
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		shape := shapes[trial%len(shapes)]
		rule, err := datalog.ParseRule(shape)
		if err != nil {
			t.Fatalf("shape %q: %v", shape, err)
		}
		op := semiring.Sum
		if rule.Assign != nil {
			if agg := datalog.FindAgg(rule.Assign.Expr); agg != nil {
				op, _ = semiring.ParseOp(agg.Op)
			}
		}
		rels := map[string]*naiveRel{}
		for _, a := range rule.Atoms {
			if _, ok := rels[a.Pred]; ok {
				continue
			}
			annotated := a.Pred == "W"
			arity := len(a.Args)
			rels[a.Pred] = randomRel(rng, arity, 60, 12, annotated, op)
		}
		want, wop := naiveEval(rels, rule)
		for oname, opts := range optionSets {
			db := NewDB()
			for n, r := range rels {
				registerNaive(db, n, r)
			}
			prog := &datalog.Program{Rules: []*datalog.Rule{rule}}
			res, err := RunProgram(db, prog, opts)
			if err != nil {
				t.Fatalf("trial %d %s shape %q: %v", trial, oname, shape, err)
			}
			got := map[string]float64{}
			if res.Trie.Arity == 0 {
				if len(rule.Head.Vars) == 0 {
					key := ""
					if res.Scalar() != wop.Zero() || len(want) > 0 {
						got[key] = res.Scalar()
					}
				}
			} else {
				res.ForEach(func(tp []uint32, ann float64) {
					var sb strings.Builder
					for _, v := range tp {
						fmt.Fprintf(&sb, "%d,", v)
					}
					got[sb.String()] = ann
				})
			}
			// Un-annotated listing queries: compare tuple sets only.
			if rule.Assign == nil {
				if len(got) != len(want) {
					t.Fatalf("trial %d %s shape %q: card %d want %d",
						trial, oname, shape, len(got), len(want))
				}
				for k := range want {
					if _, ok := got[k]; !ok {
						t.Fatalf("trial %d %s shape %q: missing %v", trial, oname, shape, k)
					}
				}
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %s shape %q: groups %d want %d\n got=%v\nwant=%v",
					trial, oname, shape, len(got), len(want), got, want)
			}
			for k, w := range want {
				g, ok := got[k]
				if !ok || math.Abs(g-w) > 1e-6 {
					t.Fatalf("trial %d %s shape %q key %q: got %v want %v",
						trial, oname, shape, k, g, w)
				}
			}
		}
	}
}

// TestDifferentialBagDedup holds redundant-bag elimination (App. B.2) to
// NoBagDedup and to a brute-force count over adjacency lists: a bag may
// reuse another's result only when both read the same relations at the
// same argument positions with the same constants, and produce the same
// output levels from the same children under the same aggregation. Bags
// that differ in a constant (AT with two anchors), in their output shape
// (the 3-walk M; Q's Edge(d,a) and Edge(d,b), whose second level only one
// outputs) or in their children (Q's Edge(e,c) and Edge(e,a), of which
// one joins the other's result) must not share a result; the barbell's
// two triangles and AT's two selections on one anchor still do. The
// COUNT(v) rows hold the same under the Boolean plans of distinct counts.
func TestDifferentialBagDedup(t *testing.T) {
	g := testGraph(200, 1500, 11)
	db := dbWithGraph(g)
	walks3 := func(f func(x, y, z, u uint32)) {
		for x := range g.Adj {
			for _, y := range g.Adj[x] {
				for _, z := range g.Adj[y] {
					for _, u := range g.Adj[z] {
						f(uint32(x), y, z, u)
					}
				}
			}
		}
	}
	anchored := func(a, b uint32, f func(y, z uint32)) {
		for _, y := range g.Adj[a] {
			for _, z := range g.Adj[y] {
				if hasEdge(g, b, z) {
					f(y, z)
				}
			}
		}
	}
	triangles := func(x uint32) float64 {
		n := 0.0
		anchored(x, x, func(_, _ uint32) { n++ })
		return n
	}
	barbells := func(f func(x uint32)) {
		for x := range g.Adj {
			for _, x2 := range g.Adj[x] {
				if triangles(uint32(x)) > 0 && triangles(x2) > 0 {
					f(uint32(x))
				}
			}
		}
	}
	for _, tc := range []struct {
		name, query string
		reused      bool // EXPLAIN shows a reused bag result
		want        func(add func(w float64, key ...uint32))
	}{
		{"anchors_count", `AT(;c:long) :- Edge("5",y),Edge(y,z),Edge("7",z); c=<<COUNT(*)>>.`, false,
			func(add func(float64, ...uint32)) { anchored(5, 7, func(_, _ uint32) { add(1) }) }},
		{"anchors_listing", `AT(y,z) :- Edge("5",y),Edge(y,z),Edge("7",z).`, false,
			func(add func(float64, ...uint32)) { anchored(5, 7, func(y, z uint32) { add(0, y, z) }) }},
		{"anchors_grouped", `AT(z;c:long) :- Edge("5",y),Edge(y,z),Edge("7",z); c=<<COUNT(*)>>.`, false,
			func(add func(float64, ...uint32)) { anchored(5, 7, func(_, z uint32) { add(1, z) }) }},
		{"anchor_repeated", `AT(;c:long) :- Edge("5",y),Edge(y,z),Edge("5",z); c=<<COUNT(*)>>.`, true,
			func(add func(float64, ...uint32)) { anchored(5, 5, func(_, _ uint32) { add(1) }) }},
		{"walk3_by_first", `M(x;w:long) :- Edge(x,y),Edge(y,z),Edge(z,u); w=<<COUNT(*)>>.`, false,
			func(add func(float64, ...uint32)) { walks3(func(x, _, _, _ uint32) { add(1, x) }) }},
		{"walk3_by_last", `M(u;w:long) :- Edge(x,y),Edge(y,z),Edge(z,u); w=<<COUNT(*)>>.`, false,
			func(add func(float64, ...uint32)) { walks3(func(_, _, _, u uint32) { add(1, u) }) }},
		{"same_atoms_other_output", `Q(c,d;w:long) :- Edge(d,a),Edge(d,b),Edge(a,c); w=<<COUNT(*)>>.`, false,
			func(add func(float64, ...uint32)) {
				for d := range g.Adj {
					for _, a := range g.Adj[d] {
						for _, c := range g.Adj[a] {
							add(float64(len(g.Adj[d])), c, uint32(d))
						}
					}
				}
			}},
		{"same_atoms_other_child", `Q(e;w:long) :- Edge(e,c),Edge("5",e),Edge(e,a); w=<<COUNT(*)>>.`, false,
			func(add func(float64, ...uint32)) {
				for _, e := range g.Adj[5] {
					add(float64(len(g.Adj[e])*len(g.Adj[e])), e)
				}
			}},
		{"barbell", `B31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,x2),Edge(x2,y2),Edge(y2,z2),Edge(x2,z2); c=<<COUNT(*)>>.`, true,
			func(add func(float64, ...uint32)) {
				for x := range g.Adj {
					for _, x2 := range g.Adj[x] {
						add(triangles(uint32(x)) * triangles(x2))
					}
				}
			}},
		{"anchors_distinct", `AT(;c:long) :- Edge("5",y),Edge(y,z),Edge("7",z); c=<<COUNT(z)>>.`, false,
			countDistinct(func(f func(v uint32, key ...uint32)) { anchored(5, 7, func(_, z uint32) { f(z) }) })},
		{"anchor_repeated_distinct", `AT(;c:long) :- Edge("5",y),Edge(y,z),Edge("5",z); c=<<COUNT(y)>>.`, true,
			countDistinct(func(f func(v uint32, key ...uint32)) { anchored(5, 5, func(y, _ uint32) { f(y) }) })},
		{"walk3_distinct_by_first", `M(x;w:long) :- Edge(x,y),Edge(y,z),Edge(z,u); w=<<COUNT(u)>>.`, false,
			countDistinct(func(f func(v uint32, key ...uint32)) { walks3(func(x, _, _, u uint32) { f(u, x) }) })},
		{"walk3_distinct_by_last", `M(u;w:long) :- Edge(x,y),Edge(y,z),Edge(z,u); w=<<COUNT(x)>>.`, false,
			countDistinct(func(f func(v uint32, key ...uint32)) { walks3(func(x, _, _, u uint32) { f(x, u) }) })},
		{"barbell_distinct", `B31(;c:long) :- Edge(x,y),Edge(y,z),Edge(x,z),Edge(x,x2),Edge(x2,y2),Edge(y2,z2),Edge(x2,z2); c=<<COUNT(x)>>.`, true,
			countDistinct(func(f func(v uint32, key ...uint32)) { barbells(func(x uint32) { f(x) }) })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A listing's tuples carry no count: add with w = 0 marks one.
			want := map[string]float64{}
			tc.want(func(w float64, key ...uint32) { want[fmt.Sprint(key)] += w })
			rows := func(opts Options) map[string]float64 {
				t.Helper()
				res, err := runWith(t, db, tc.query, opts, RunParams{})
				if err != nil {
					t.Fatalf("NoBagDedup=%v: %v", opts.NoBagDedup, err)
				}
				return resultRows(t, tc.query, res)
			}
			dedup, plain := rows(OptDefault), rows(Options{NoBagDedup: true})
			if len(want) == 0 {
				t.Fatal("the brute force finds nothing: the row checks nothing")
			}
			for _, side := range []struct {
				name string
				rows map[string]float64
			}{{"NoBagDedup", plain}, {"brute force", want}} {
				if fmt.Sprint(dedup) != fmt.Sprint(side.rows) {
					t.Fatalf("%d rows with dedup, %d from %s; first difference %s", len(dedup), len(side.rows), side.name, firstDiff(dedup, side.rows))
				}
			}
			p, err := Compile(db, mustParse(t, tc.query).Rules[0], OptDefault)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Contains(p.Explain(db), "result reused"); got != tc.reused {
				t.Fatalf("a bag result reused: %v, want %v\n%s", got, tc.reused, p.Explain(db))
			}
		})
	}
}

// countDistinct turns an enumeration of (v, head key) bindings into the
// brute-force COUNT(v): per head key, the number of distinct v.
func countDistinct(each func(f func(v uint32, key ...uint32))) func(add func(w float64, key ...uint32)) {
	return func(add func(float64, ...uint32)) {
		seen := map[string]bool{}
		each(func(v uint32, key ...uint32) {
			if k := fmt.Sprint(key, v); !seen[k] {
				seen[k] = true
				add(1, key...)
			}
		})
	}
}

// resultRows keys a result's rows by their head tuple, in head order (a
// result's attributes follow the plan's attribute order), to its
// annotation; a scalar is the row "[]". A listing is a set: its rows map
// to 0, and an annotated listing fails the test.
func resultRows(t *testing.T, query string, res *Result) map[string]float64 {
	t.Helper()
	prog := mustParse(t, query)
	rule := prog.Rules[len(prog.Rules)-1]
	got := map[string]float64{}
	if res.Trie.Arity == 0 {
		got["[]"] = res.Scalar()
		return got
	}
	if rule.Assign == nil && res.Trie.Annotated {
		t.Fatalf("%s: a listing carries annotations", rule.Head.Name)
	}
	res.ForEach(func(tp []uint32, ann float64) {
		key := make([]uint32, len(tp))
		for i, a := range res.Attrs {
			key[slices.Index(rule.Head.Vars, a)] = tp[i]
		}
		if rule.Assign == nil {
			ann = 0
		}
		got[fmt.Sprint(key)] = ann
	})
	return got
}

// firstDiff names the smallest key on which two row maps disagree.
func firstDiff(a, b map[string]float64) string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		va, oka := a[k]
		vb, okb := b[k]
		if va != vb || oka != okb {
			return fmt.Sprintf("%s: %g (%v) vs %g (%v)", k, va, oka, vb, okb)
		}
	}
	return "none"
}

// TestDifferentialSemantics holds the engine to docs/LANGUAGE.md, checked
// by brute force over adjacency lists at Parallelism 1 and 4: COUNT(v)
// counts distinct v per head tuple, however the plan splits the body into
// bags; a derived relation is a set, so counting it gives what counting
// the same tuples loaded gives; an empty disconnected component empties
// the answer; a head tuple annotated with the semiring's 0 is not in the
// relation.
func TestDifferentialSemantics(t *testing.T) {
	g := testGraph(200, 1500, 11)
	walks2 := func(f func(x, y, z uint32)) {
		for x := range g.Adj {
			for _, y := range g.Adj[x] {
				for _, z := range g.Adj[y] {
					f(uint32(x), y, z)
				}
			}
		}
	}
	walks3 := func(f func(x, u uint32)) {
		walks2(func(x, _, z uint32) {
			for _, u := range g.Adj[z] {
				f(x, u)
			}
		})
	}
	db := dbWithGraph(g)
	var twoWalkSources []uint32
	seen := map[uint32]bool{}
	walks2(func(x, _, _ uint32) {
		if !seen[x] {
			seen[x] = true
			twoWalkSources = append(twoWalkSources, x)
		}
	})
	addUnary(db, "PLoaded", twoWalkSources...)
	small := dbWithGraph(testGraph(50, 200, 3))
	addUnary(small, "B", 1, 2)
	addUnary(small, "C", 3, 4)
	// x = 1's two annotations cancel under SUM.
	cancel := NewDB()
	rb := trie.NewColumnarBuilder(2, semiring.Sum, nil)
	rb.AddAnn(1, 1, 5)
	rb.AddAnn(-1, 1, 6)
	rb.AddAnn(3, 2, 7)
	cancel.AddTrie("R", rb.Build())
	none := func(func(float64, ...uint32)) {}
	for _, tc := range []struct {
		name  string
		db    *DB
		query string
		// also, when set, must give the same rows as query.
		also string
		want func(add func(w float64, key ...uint32))
	}{
		{"count_first_of_2walk", db, `D(;w:long) :- Edge(x,y),Edge(y,z); w=<<COUNT(x)>>.`, "",
			countDistinct(func(f func(v uint32, key ...uint32)) { walks2(func(x, _, _ uint32) { f(x) }) })},
		{"count_target", db, `D(;w:long) :- Edge(x,y); w=<<COUNT(y)>>.`, "",
			countDistinct(func(f func(v uint32, key ...uint32)) { walks2(func(_, y, _ uint32) { f(y) }) })},
		{"count_last_of_2walk", db, `D(;w:long) :- Edge(x,y),Edge(y,z); w=<<COUNT(z)>>.`, "",
			countDistinct(func(f func(v uint32, key ...uint32)) { walks2(func(_, _, z uint32) { f(z) }) })},
		{"count_triangle_vertex", db, `D(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(z)>>.`, "",
			countDistinct(func(f func(v uint32, key ...uint32)) {
				walks2(func(x, _, z uint32) {
					if hasEdge(g, x, z) {
						f(z)
					}
				})
			})},
		{"count_3walk_targets", db, `M(x;w:long) :- Edge(x,y),Edge(y,z),Edge(z,u); w=<<COUNT(u)>>.`, "",
			countDistinct(func(f func(v uint32, key ...uint32)) { walks3(func(x, u uint32) { f(u, x) }) })},
		{"count_2walk_targets", db, `M(x;w:long) :- Edge(x,y),Edge(y,z); w=<<COUNT(z)>>.`, "",
			countDistinct(func(f func(v uint32, key ...uint32)) { walks2(func(x, _, z uint32) { f(z, x) }) })},
		{"derived_is_loaded", db, "P(x) :- Edge(x,y),Edge(y,z).\nD(;w:long) :- P(x); w=<<COUNT(*)>>.",
			`D(;w:long) :- PLoaded(x); w=<<COUNT(*)>>.`,
			func(add func(float64, ...uint32)) { add(float64(len(twoWalkSources))) }},
		{"empty_component_projection", small, `L(x) :- Edge(x,y),B(z),C(z).`, "", none},
		{"empty_component_listing", small, `L(x,y) :- Edge(x,y),B(z),C(z).`, "", none},
		{"empty_component_count", small, `L(x;w:long) :- Edge(x,y),B(z),C(z); w=<<COUNT(*)>>.`, "", none},
		// A head tuple whose ⊕ is the semiring's 0 is dropped before the
		// head expression applies, so 2+0 invents no tuple either.
		{"zero_sum_dropped", cancel, `S(x;w:float) :- R(x,y); w=<<SUM(y)>>.`, "",
			func(add func(float64, ...uint32)) { add(3, 2) }},
		{"zero_sum_dropped_before_expression", cancel, `S(x;w:float) :- R(x,y); w=2+<<SUM(y)>>.`, "",
			func(add func(float64, ...uint32)) { add(5, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := map[string]float64{}
			tc.want(func(w float64, key ...uint32) { want[fmt.Sprint(key)] += w })
			for _, par := range []int{1, 4} {
				for _, q := range []string{tc.query, tc.also} {
					if q == "" {
						continue
					}
					res, err := runWith(t, tc.db.Fork(), q, Options{Parallelism: par}, RunParams{})
					if err != nil {
						t.Fatalf("Parallelism %d: %v", par, err)
					}
					if got := resultRows(t, q, res); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("Parallelism %d, %q: %d rows, brute force %d; first difference %s",
							par, q, len(got), len(want), firstDiff(got, want))
					}
				}
			}
		})
	}
}
