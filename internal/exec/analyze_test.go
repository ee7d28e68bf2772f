package exec

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trace"
	"emptyheaded/internal/trie"
)

func prepareQ(t testing.TB, db *DB, query string) *Prepared {
	t.Helper()
	prog, err := datalog.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pr, err := Prepare(db, prog, Options{})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return pr
}

func TestRunWithCollectTriangle(t *testing.T) {
	g := testGraph(200, 1500, 11)
	db := dbWithGraph(g)
	pr := prepareQ(t, db, `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`)

	base, err := pr.Run(db.Fork())
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats != nil {
		t.Fatal("default run must not collect stats")
	}

	res, err := pr.RunWith(db.Fork(), RunParams{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != base.Scalar() {
		t.Fatalf("collected run changed the result: %g vs %g", res.Scalar(), base.Scalar())
	}
	st := res.Stats
	if st == nil || len(st.Bags) == 0 {
		t.Fatalf("no stats collected: %+v", st)
	}
	bs := st.Bags[0]
	if len(bs.Levels) != 3 {
		t.Fatalf("triangle bag has %d levels, want 3", len(bs.Levels))
	}
	if bs.Levels[0].Attr != "x" || bs.Levels[1].Attr != "y" || bs.Levels[2].Attr != "z" {
		t.Fatalf("level attrs = %v", bs.Levels)
	}
	if bs.Levels[0].Probes == 0 {
		t.Fatal("no probes recorded at level 0")
	}
	// Every level evaluates at least one intersection with inputs and
	// outputs booked.
	for i, l := range bs.Levels {
		if l.Intersections == 0 || l.InputCard == 0 {
			t.Fatalf("level %d counters empty: %+v", i, l)
		}
	}
	// The count tail's OutputCard sums the per-(x,y) triangle closers,
	// which is exactly the ordered triangle count.
	if got := bs.Levels[2].OutputCard; got != int64(base.Scalar()) {
		t.Fatalf("tail OutputCard = %d, want triangle count %g", got, base.Scalar())
	}
	if bs.Emitted == 0 {
		t.Fatal("no emits recorded")
	}
	if bs.WallUS < 0 {
		t.Fatalf("negative wall time %d", bs.WallUS)
	}
}

// addUnary registers a unary relation over vals.
func addUnary(db *DB, name string, vals ...uint32) {
	b := trie.NewColumnarBuilder(1, semiring.None, nil)
	for _, v := range vals {
		b.Add(v)
	}
	db.AddTrie(name, b.Build())
}

// Results and counter totals must not depend on how the work-stealing
// pool splits the first level: every worker's counters fold into the
// bag's once, so one worker and four agree on every bag and level, on
// every shape of loop nest and in every layout. Only a vector skips a
// candidate, so a row without one skips none.
func TestCollectParallelMatchesSerial(t *testing.T) {
	g := testGraph(300, 3000, 5)
	db := dbWithGraph(g)
	addPageRankInputs(db, g)
	addUnary(db, "A", 1, 2, 3, 5, 8)
	addUnary(db, "B", 2, 3, 4, 5)
	queries := []struct {
		name, text string
		vector     bool
	}{
		{"triangle_count", qTriangleCount, false},
		{"k4_count_tail", qKernel4Clique, false},
		{"exists_tail", `C(;w:long) :- Edge(x,y); w=<<COUNT(x)>>.`, false},
		{"grouped_fold", `G(x;w:long) :- Edge(x,y),Edge(y,z); w=<<COUNT(*)>>.`, false},
		{"triangle_listing", qTriangleListing, false},
		{"projected_assembly", `P(x,z) :- Edge(x,y),Edge(y,z).`, false},
		{"single_level", `Q(;w:long) :- A(x),B(x); w=<<COUNT(*)>>.`, false},
		// The second component's bag is one existence check from level 0
		// on: a split of its first level would emit once per block.
		{"exists_from_level_0", `D(;w:long) :- Edge(x,y),Edge(z,u); w=<<COUNT(x)>>.`, false},
		{"pagerank_round", qPageRankRound, true},
	}
	layouts := []struct {
		name string
		f    *trie.Policy
	}{
		{"auto", nil},
		{"uint", trie.UintLayout},
		{"bitset", trie.BitsetLayout},
	}
	for _, l := range layouts {
		for _, q := range queries {
			t.Run(l.name+"/"+q.name, func(t *testing.T) {
				run := func(par int) *Result {
					pr := prepareQOpts(t, db, q.text, Options{Layout: l.f, Parallelism: par})
					res, err := pr.RunWith(db.Fork(), RunParams{Collect: true})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				serial, par := run(1), run(4)
				if s, p := resultKey(t, serial), resultKey(t, par); s != p {
					t.Fatalf("results diverge: serial %.80s, parallel %.80s", s, p)
				}
				if len(serial.Stats.Bags) != len(par.Stats.Bags) {
					t.Fatalf("serial ran %d bags, parallel %d", len(serial.Stats.Bags), len(par.Stats.Bags))
				}
				for i, sb := range serial.Stats.Bags {
					pb := par.Stats.Bags[i]
					if sb.Emitted != pb.Emitted {
						t.Errorf("bag %d emitted: serial %d, parallel %d", sb.BagID, sb.Emitted, pb.Emitted)
					}
					if !reflect.DeepEqual(sb.Levels, pb.Levels) {
						t.Errorf("bag %d levels diverge:\nserial   %+v\nparallel %+v", sb.BagID, sb.Levels, pb.Levels)
					}
					for _, l := range sb.Levels {
						if !q.vector && l.Skipped != 0 {
							t.Errorf("bag %d level %s skipped %d candidates without a vector", sb.BagID, l.Attr, l.Skipped)
						}
					}
				}
			})
		}
	}
}

// A one-level count-tail bag books its only intersection once: its
// candidates already are the count, so the tail must not intersect again.
func TestCollectSingleLevelCountTail(t *testing.T) {
	db := NewDB()
	addUnary(db, "A", 1, 2, 3, 5, 8)
	addUnary(db, "B", 2, 3, 4, 5)
	for _, par := range []int{1, 4} {
		pr := prepareQOpts(t, db, `Q(;w:long) :- A(x),B(x); w=<<COUNT(*)>>.`, Options{Parallelism: par})
		res, err := pr.RunWith(db.Fork(), RunParams{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Scalar() != 3 {
			t.Fatalf("par=%d: |A ∩ B| = %v, want 3", par, res.Scalar())
		}
		l := res.Stats.Bags[0].Levels[0]
		if l.Intersections != 1 || l.InputCard != 9 || l.OutputCard != 3 || l.Probes != 0 || l.Skipped != 0 {
			t.Errorf("par=%d: level counters %+v, want intersections 1, input_card 9, output_card 3", par, l)
		}
		if n := l.Kernel.Total(); n != 1 {
			t.Errorf("par=%d: %d kernel dispatches, want 1", par, n)
		}
	}
}

// An existence tail reuses the intersection its caller made at its first
// level: that level books one intersection per caller binding, and its
// input and output are the one set's cardinality. No level of the tail
// books a probe.
func TestCollectExistenceTail(t *testing.T) {
	db := dbWithGraph(testGraph(200, 1500, 11))
	rows := []struct {
		name, query         string
		bag                 int
		attr                string
		inter, inOut, emits int64
	}{
		{"distinct_sources", `N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.`, 0, "y", 200, 3000, 200},
		{"child_bag", `D(;w:long) :- Edge(x,y),Edge(y,z); w=<<COUNT(x)>>.`, 1, "z", 200, 3000, 200},
		// The second component is one existence check from level 0 on.
		{"exists_from_level_0", `E(;w:long) :- Edge(x,y),Edge(z,u); w=<<COUNT(x)>>.`, 1, "z", 1, 200, 1},
	}
	for _, r := range rows {
		for _, par := range []int{1, 4} {
			pr := prepareQOpts(t, db, r.query, Options{Parallelism: par})
			res, err := pr.RunWith(db.Fork(), RunParams{Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, bs := range res.Stats.Bags {
				if bs.BagID != r.bag {
					continue
				}
				if bs.Emitted != r.emits {
					t.Errorf("%s par=%d: bag %d emitted %d, want %d", r.name, par, bs.BagID, bs.Emitted, r.emits)
				}
				l := bs.Levels[slices.Index(bs.Attrs, r.attr)]
				if l.Intersections != r.inter || l.InputCard != r.inOut || l.OutputCard != r.inOut ||
					l.Probes != 0 || l.Kernel.Total() != 0 {
					t.Errorf("%s par=%d: bag %d level %s: %+v; want ∩ %d, in = out = %d, no probe or dispatch",
						r.name, par, bs.BagID, r.attr, l, r.inter, r.inOut)
				}
			}
		}
	}
}

// A PageRank round reads PageRank and InvDeg as vectors, so its tail
// level z intersects nothing: no kernel dispatch, and Edge[x] is both the
// input and the output. It still probes every neighbour once and emits
// once per source vertex, as the three-way intersection did, and since
// every neighbour has a rank and an inverse degree nothing is skipped.
func TestCollectPageRankRound(t *testing.T) {
	g := testGraph(300, 3000, 5)
	db := dbWithGraph(g)
	addPageRankInputs(db, g)
	var sources, edges int64
	for _, ns := range g.Adj {
		if len(ns) > 0 {
			sources++
			edges += int64(len(ns))
		}
	}
	for _, par := range []int{1, 4} {
		pr := prepareQOpts(t, db, qPageRankRound, Options{Parallelism: par})
		res, err := pr.RunWith(db.Fork(), RunParams{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		bs := res.Stats.Bags[0]
		z := bs.Levels[1]
		if z.Attr != "z" || z.Kernel.Total() != 0 || z.InputCard != z.OutputCard {
			t.Errorf("par=%d: level %s: %d kernel dispatches, in %d, out %d; want z, 0, in == out",
				par, z.Attr, z.Kernel.Total(), z.InputCard, z.OutputCard)
		}
		if z.Intersections != sources || z.Probes != edges || z.Skipped != 0 || bs.Emitted != sources {
			t.Errorf("par=%d: ∩=%d probes=%d skipped=%d emitted=%d, want %d, %d, 0, %d",
				par, z.Intersections, z.Probes, z.Skipped, bs.Emitted, sources, edges, sources)
		}
	}
}

func TestExplainAnalyzeAnnotates(t *testing.T) {
	g := testGraph(100, 600, 3)
	db := dbWithGraph(g)
	pr := prepareQ(t, db, `P(x,z) :- Edge(x,y),Edge(y,z).`)
	res, err := pr.RunWith(db.Fork(), RunParams{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("no stats")
	}
	plain := res.Plan.Explain()
	if strings.Contains(plain, "actual:") {
		t.Fatal("plain Explain leaked annotations")
	}
	ann := res.Plan.ExplainAnalyze(res.Stats)
	for _, want := range []string{"actual:", "probes=", "emitted=", "∩="} {
		if !strings.Contains(ann, want) {
			t.Fatalf("ExplainAnalyze missing %q:\n%s", want, ann)
		}
	}
}

func TestRunWithTraceRecordsBagSpans(t *testing.T) {
	g := testGraph(100, 600, 3)
	db := dbWithGraph(g)
	pr := prepareQ(t, db, `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`)
	tr := &trace.Trace{ID: 1, Kind: "query", Start: time.Now()}
	if _, err := pr.RunWith(db.Fork(), RunParams{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	spans := tr.Spans
	found := false
	for _, sp := range spans {
		if sp.Name == "bag 0" && sp.DurUS >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no bag span recorded: %+v", spans)
	}
}
