package exec

import (
	"sync"
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// k4DB returns a DB with the complete directed graph on 4 vertices as
// Edge (24 directed edges, 4 triangles counted as 24 ordered instances).
func k4DB() *DB {
	b := trie.NewColumnarBuilder(2, semiring.None, nil)
	for i := uint32(0); i < 4; i++ {
		for j := uint32(0); j < 4; j++ {
			if i != j {
				b.Add(i, j)
			}
		}
	}
	db := NewDB()
	db.AddTrie("Edge", b.Build())
	return db
}

const triangleQ = `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`

func TestPreparedConcurrentRunsMatchSequential(t *testing.T) {
	db := k4DB()
	prog, err := datalog.Parse(triangleQ)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pr.HasPlan() {
		t.Fatal("single-rule program should carry a compiled plan")
	}
	seq, err := pr.Run(db.Fork())
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Scalar()
	if want == 0 {
		t.Fatal("expected non-zero triangle count")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pr.Run(db.Fork())
			if err != nil {
				errs <- err
				return
			}
			if got := res.Scalar(); got != want {
				t.Errorf("concurrent run: got %g, want %g", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedConcurrentFirstRuns: the plan slots of a recursive program
// fill on first execution; many first executions at once (run under
// -race) each get every rule planned and agree on the answer.
func TestPreparedConcurrentFirstRuns(t *testing.T) {
	db := dbWithGraph(testGraph(100, 600, 15))
	prog, err := datalog.Parse(qPageRank)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunProgram(db.Fork(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(db, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pr.RunWith(db.Fork(), RunParams{})
			if err != nil {
				t.Error(err)
				return
			}
			if !triesEqual(res.Trie, want.Trie) {
				t.Error("concurrent first run diverges from a sequential one")
			}
		}()
	}
	wg.Wait()
}

// TestPreparedSharesOnePlan: concurrent runs of one Prepared execute the
// plan it keeps, not copies, and leave it as Compile made it. The queries
// write every kind of run state: selection codes, count-scan and dense
// accumulator decisions, an assembly join, counters and a row budget.
// Run under -race.
func TestPreparedSharesOnePlan(t *testing.T) {
	db := dbWithGraph(testGraph(300, 2000, 1))
	for _, q := range []string{
		`A(;c:long) :- Edge("5",y),Edge(y,z),Edge("5",z); c=<<COUNT(*)>>.`,
		qTriangleCount,
		`P(x) :- Edge(x,y),Edge(y,z).`,
		`P2(x,z) :- Edge(x,y),Edge(y,z).`,
	} {
		pr, err := Prepare(db, mustParse(t, q), Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		kept := pr.plans[0].Load()
		before := kept.Explain(db)
		want, err := pr.Run(db.Fork())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rp := RunParams{Collect: i%2 == 0}
				if i%4 == 1 {
					rp.Limit = 10
				}
				res, err := pr.RunWith(db.Fork(), rp)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Plan != kept {
					t.Errorf("%s: run %d executed another plan than the kept one", q, i)
				}
				if limited := rp.Limit > 0 && !kept.Agg.Present; limited != res.Truncated {
					t.Errorf("%s: run %d truncated=%v under limit %d", q, i, res.Truncated, rp.Limit)
				} else if !res.Truncated && !triesEqual(res.Trie, want.Trie) {
					t.Errorf("%s: run %d diverges from a sequential run", q, i)
				}
			}()
		}
		wg.Wait()
		if pr.plans[0].Load() != kept {
			t.Fatalf("%s: the kept plan was replaced", q)
		}
		if after := kept.Explain(db); after != before {
			t.Fatalf("%s: the runs changed the plan\nbefore:\n%s\nafter:\n%s", q, before, after)
		}
	}
}

func TestForkIsolation(t *testing.T) {
	db := k4DB()
	f := db.Fork()

	prog, err := datalog.Parse(triangleQ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgram(f, prog, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Relation("TC"); !ok {
		t.Error("fork should see its own head relation TC")
	}
	if _, ok := db.Relation("TC"); ok {
		t.Error("parent must not see the fork's head relation TC")
	}

	// Dropping in a fork: the fork stops seeing Edge, the parent keeps it.
	f2 := db.Fork()
	f2.Drop("Edge")
	if _, ok := f2.Relation("Edge"); ok {
		t.Error("fork should not see dropped Edge")
	}
	if _, ok := db.Relation("Edge"); !ok {
		t.Error("parent lost Edge after fork drop")
	}
	for _, n := range f2.Names() {
		if n == "Edge" {
			t.Error("fork Names() still lists dropped Edge")
		}
	}

	// Snapshot semantics: relations loaded into the parent after the fork
	// are invisible to it.
	f3 := db.Fork()
	nb := trie.NewColumnarBuilder(1, semiring.None, nil)
	nb.Add(7)
	db.AddTrie("Late", nb.Build())
	if _, ok := f3.Relation("Late"); ok {
		t.Error("fork sees a relation loaded into the parent after Fork()")
	}
	if _, ok := db.Relation("Late"); !ok {
		t.Error("parent lost its own late relation")
	}

	// Re-adding in the fork shadows only the fork's view.
	b := trie.NewColumnarBuilder(2, semiring.None, nil)
	b.Add(0, 1)
	f2.AddTrie("Edge", b.Build())
	if r, ok := f2.Relation("Edge"); !ok || r.Cardinality() != 1 {
		t.Error("fork should see its re-added Edge")
	}
	if r, _ := db.Relation("Edge"); r.Cardinality() == 1 {
		t.Error("parent Edge replaced by fork re-add")
	}
}

func TestDBVersionAdvances(t *testing.T) {
	db := NewDB()
	v0 := db.Version()
	b := trie.NewColumnarBuilder(1, semiring.None, nil)
	b.Add(1)
	db.AddTrie("R", b.Build())
	if db.Version() == v0 {
		t.Error("AddTrie did not advance version")
	}
	v1 := db.Version()
	db.Drop("R")
	if db.Version() == v1 {
		t.Error("Drop did not advance version")
	}
}
