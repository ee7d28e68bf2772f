package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trie"
)

// Engine.Run keeps plans in the engine's plan cache, and no data event
// drops one: a plan looks every relation up at run time, so what it could
// get wrong is what it bakes in — selection constants as dictionary codes,
// each atom's arity and annotation, and the options. The first two are
// checked where a plan is bound to the database (exec.Plan.Clone), the
// options by the cache. The tests below change exactly those under a
// cached text and hold Run to RunIsolated, which always plans afresh.

// resultKey renders an outcome — rows, scalar or error — for comparison.
func resultKey(res *exec.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	if res.Trie.Arity == 0 {
		return fmt.Sprintf("scalar:%g", res.Scalar())
	}
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "%v card=%d truncated=%v;", res.Attrs, res.Cardinality(), res.Truncated)
	res.ForEach(func(tp []uint32, ann float64) { fmt.Fprintf(&sb, "%v:%g;", tp, ann) })
	return sb.String()
}

// checkRun holds Run(text) to RunIsolated of the same text on the same
// database state. RunIsolated goes first: it works on a fork, Run
// registers its head in the database.
func checkRun(t *testing.T, e *Engine, text, when string) {
	t.Helper()
	checkRunLimit(t, e, text, 0, when)
}

// checkRunLimit is checkRun under a listing row budget. A budget goes to
// each run (exec.RunParams), never into a plan: the cached preparation
// runs with it against a preparation made afresh on a fork.
func checkRunLimit(t *testing.T, e *Engine, text string, limit int, when string) {
	t.Helper()
	prog, err := datalog.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	var want, got string
	if limit == 0 {
		want = resultKey(e.RunIsolated(prog))
		got = resultKey(e.Run(text))
	} else {
		rp := exec.RunParams{Limit: limit}
		fork := e.DB.Fork()
		if fresh, err := exec.Prepare(fork, prog, e.Opts); err != nil {
			want = resultKey(nil, err)
		} else {
			want = resultKey(fresh.RunWith(fork, rp))
		}
		if lk, err := e.prepared(text); err != nil {
			got = resultKey(nil, err)
		} else {
			got = resultKey(lk.Plan.Prep.RunWith(e.DB, rp))
		}
	}
	if got != want {
		t.Fatalf("%s: Run(%q), limit %d, diverges from a fresh plan\n got %s\nwant %s", when, text, limit, got, want)
	}
}

// mustPrepared is the plan-cache lookup Run makes.
func mustPrepared(t *testing.T, e *Engine, text string) *exec.Prepared {
	t.Helper()
	lk, err := e.prepared(text)
	if err != nil {
		t.Fatal(err)
	}
	return lk.Plan.Prep
}

const memoTriangle = `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`

// triangleEdges loads one triangle and a tail as Edge: Run(memoTriangle)
// is 6 on it.
func triangleEdges(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.LoadEdgeList("Edge", strings.NewReader("1 2\n2 3\n3 1\n3 4\n"), true); err != nil {
		t.Error(err)
	}
}

// TestRunMemoHitsAndInvalidation pins down, one event at a time, what
// keeps a cached plan — every data event — and what drops it: an option
// a plan bakes in.
func TestRunMemoHitsAndInvalidation(t *testing.T) {
	e := New()
	triangleEdges(t, e)
	e.AddRelation("Other", 1, [][]uint32{{1}})
	if _, err := e.Run(memoTriangle); err != nil {
		t.Fatal(err)
	}
	pr := mustPrepared(t, e, memoTriangle)
	same := func(when string) {
		t.Helper()
		if mustPrepared(t, e, memoTriangle) != pr {
			t.Fatalf("%s: the plan was dropped", when)
		}
	}
	fresh := func(when string) {
		t.Helper()
		next := mustPrepared(t, e, memoTriangle)
		if next == pr {
			t.Fatalf("%s: the plan was kept", when)
		}
		pr = next
	}

	// Run registers the head TC on every call; the plan does not read it.
	if _, err := e.Run(memoTriangle); err != nil {
		t.Fatal(err)
	}
	same("after Run re-registered the head")
	e.AddRelation("Other", 1, [][]uint32{{2}})
	same("after a relation the rule does not read changed")
	if _, _, err := e.RunAnalyze(memoTriangle); err != nil {
		t.Fatal(err)
	}
	same("after RunAnalyze")

	if _, err := e.Update(UpdateBatch{Rel: "Edge", InsCols: [][]uint32{{0}, {3}}}); err != nil {
		t.Fatal(err)
	}
	same("after an insert into Edge")
	if did, err := e.Compact("Edge"); err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	same("after a compaction (same content, same epoch)")
	triangleEdges(t, e)
	same("after a load replaced Edge and the dictionary")
	if res, err := e.Run(memoTriangle); err != nil || res.Scalar() != 6 {
		t.Fatalf("after the load: %v, %v", res, err)
	}

	for _, change := range []func(){
		func() { e.Opts.SingleBag = true },
		func() { e.Opts.Parallelism = 1 },
		func() { e.Opts.Intersect = set.Config{Algo: set.AlgoMerge} },
		func() { e.Opts.Layout = trie.UintLayout },
	} {
		change()
		fresh("after an option a plan bakes in changed")
	}
	if st := e.Plans().Stats(); st.Size != 1 {
		t.Fatalf("%d cached plans for one text after option changes, want its entry replaced", st.Size)
	}

	dir := t.TempDir()
	if _, err := e.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	same("after a snapshot")
	if _, err := e.Restore(dir); err != nil {
		t.Fatal(err)
	}
	same("after a restore")
}

// TestRunMemoKeepsRecursivePrograms: multi-rule and recursive texts are
// cached like any other — the second Run parses and prepares nothing
// (exec's TestPreparedDerivesEachRuleOnce shows a kept preparation plans
// nothing either), across an update of the relation every rule reads.
func TestRunMemoKeepsRecursivePrograms(t *testing.T) {
	e := New()
	e.AddRelation("Edge", 2, [][]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}})
	for _, text := range []string{
		"N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.\nInvDeg(x;d:float) :- Edge(x,y); d=1/<<COUNT(*)>>.\n" +
			"PageRank(x;y:float) :- Edge(x,z); y=1/N.\nPageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.",
		"SSSP(x;y:int) :- Edge(0,x); y=1.\nSSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.",
	} {
		checkRun(t, e, text, "first run")
		pr := mustPrepared(t, e, text)
		if _, err := e.Update(UpdateBatch{Rel: "Edge", InsCols: [][]uint32{{4}, {0}}}); err != nil {
			t.Fatal(err)
		}
		checkRun(t, e, text, "second run, after an insert into Edge")
		if mustPrepared(t, e, text) != pr {
			t.Fatalf("%.20s…: the preparation was dropped", text)
		}
	}
}

// TestRunMemoOwnHead: a rule whose body reads its own head name sees a
// different relation on every call — here one of another arity, so the
// second call must fail the way a fresh plan does.
func TestRunMemoOwnHead(t *testing.T) {
	e := New()
	e.AddRelation("W", 2, [][]uint32{{1, 2}, {1, 3}, {2, 3}})
	const text = `W(x;c:long) :- W(x,y); c=<<COUNT(*)>>.`
	checkRun(t, e, text, "first call")
	checkRun(t, e, text, "second call, W now unary")
	if _, err := e.Run(text); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("third call: err = %v, want an arity error", err)
	}
}

// TestRunMemoConstantEntersDictionary: a selection constant missing from
// the dictionary is an error, not a cache entry; once a load brings it in
// the same text answers, and under the new codes.
func TestRunMemoConstantEntersDictionary(t *testing.T) {
	e := New()
	const text = `Nb(y) :- Edge("30",y).`
	if err := e.LoadEdgeList("Edge", strings.NewReader("10 20\n20 40\n"), true); err != nil {
		t.Fatal(err)
	}
	checkRun(t, e, text, "constant absent")
	if _, err := e.Run(text); err == nil {
		t.Fatal("constant absent from the dictionary: want an error")
	}
	if err := e.LoadEdgeList("Edge", strings.NewReader("30 10\n30 20\n10 20\n"), true); err != nil {
		t.Fatal(err)
	}
	checkRun(t, e, text, "constant present")
	if res, err := e.Run(text); err != nil || res.Cardinality() != 2 {
		t.Fatalf("constant present: %v, %v", res, err)
	}
	// Same ids, other codes: 30 is now the last code, not the first.
	if err := e.LoadEdgeList("Edge", strings.NewReader("10 20\n20 30\n"), true); err != nil {
		t.Fatal(err)
	}
	checkRun(t, e, text, "constant recoded")

	// A load swaps the dictionary under a relation it does not touch:
	// A's epoch stands still while its constant changes code.
	const onA = `SA(y) :- A("20",y).`
	e.AddRelation("A", 2, [][]uint32{{0, 5}, {1, 6}})
	checkRun(t, e, onA, "20 is code 1")
	if err := e.LoadEdgeList("Edge", strings.NewReader("20 10\n"), true); err != nil {
		t.Fatal(err)
	}
	checkRun(t, e, onA, "20 is code 0")
	if res, err := e.Run(onA); err != nil || resultKey(res, err) != "[y] card=1 truncated=false;[5]:1;" {
		t.Fatalf("20 is code 0: %s", resultKey(res, err))
	}
}

// TestRunMemoForeignRestore: a snapshot written by another engine brings
// another dictionary under a cached selection — the kept plan must
// answer under the restored codes.
func TestRunMemoForeignRestore(t *testing.T) {
	const text = `Nb(y) :- Edge("7",y).`
	a, b := New(), New()
	if err := a.LoadEdgeList("Edge", strings.NewReader("7 8\n7 9\n"), true); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadEdgeList("Edge", strings.NewReader("5 6\n5 9\n6 7\n"), true); err != nil {
		t.Fatal(err)
	}
	checkRun(t, a, text, "before the restore")
	dir := t.TempDir()
	if _, err := b.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Restore(dir); err != nil {
		t.Fatal(err)
	}
	checkRun(t, a, text, "after restoring another engine's snapshot")
}

// TestRunMemoEvicts: the plan cache holds its capacity in fingerprints;
// one more pushes the least recently used out, and that text is simply
// planned again.
func TestRunMemoEvicts(t *testing.T) {
	e := New()
	triangleEdges(t, e)
	text := func(i int) string {
		return fmt.Sprintf(`T%d(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`, i)
	}
	n := e.Plans().Stats().Capacity
	first := mustPrepared(t, e, text(0))
	second := mustPrepared(t, e, text(1))
	for i := 2; i < n; i++ {
		mustPrepared(t, e, text(i))
	}
	if mustPrepared(t, e, text(0)) != first {
		t.Fatalf("%d texts do not fit the cache", n)
	}
	mustPrepared(t, e, text(n))
	if mustPrepared(t, e, text(0)) != first {
		t.Fatal("the most recently used text was evicted")
	}
	if mustPrepared(t, e, text(1)) == second {
		t.Fatal("the least recently used text survived an overflow")
	}
	for i := 0; i <= n; i++ {
		checkRun(t, e, text(i), "after the overflow")
	}
}

// TestRunMemoConcurrent runs more distinct texts than the cache holds from
// as many goroutines, beside a loader that keeps replacing Edge with the
// same edges; run it under -race.
func TestRunMemoConcurrent(t *testing.T) {
	e := New()
	triangleEdges(t, e)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				triangleEdges(t, e)
			}
		}
	}()
	var runners sync.WaitGroup
	for g := 0; g < e.Plans().Stats().Capacity+4; g++ {
		runners.Add(1)
		go func(g int) {
			defer runners.Done()
			text := fmt.Sprintf(`T%d(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`, g)
			for i := 0; i < 40; i++ {
				res, err := e.Run(text)
				if err != nil || res.Scalar() != 6 {
					t.Errorf("goroutine %d: %v, %v", g, res, err)
					return
				}
			}
		}(g)
	}
	runners.Wait()
	close(stop)
	wg.Wait()
}

// TestRunMemoDifferential drives one engine through a seeded history of
// everything that can change under a cached text — loads that swap the
// dictionary, relations replaced with another arity or annotation,
// inserts, deletes, compactions, aliases, snapshot and restore, option
// changes — and holds every Run to a fresh plan.
func TestRunMemoDifferential(t *testing.T) {
	texts := []string{
		memoTriangle,
		`P2(x,z) :- Edge(x,y),Edge(y,z).`,
		`Deg(x;w:long) :- Edge(x,y); w=<<COUNT(y)>>.`,
		`Nb(y) :- Edge("104",y).`,
		`AT(;c:long) :- Edge("102",y),Edge(y,z),Edge("102",z); c=<<COUNT(*)>>.`,
		`TR(;w:long) :- R(x,y),R(y,z),R(x,z); w=<<COUNT(*)>>.`,
		`N(;w:long) :- Edge(x,y); w=<<COUNT(*)>>.`,
		`Inv(x;y:float) :- Edge(x,z); y=1/N.`,
		`W(x,y) :- Edge(x,y).`,
		`W(x;c:long) :- W(x,y); c=<<COUNT(*)>>.`,
		`M(x;m:long) :- A(x,y); m=<<MIN(y)>>.`,
		`J(x,z) :- A(x,y),Edge(y,z).`,
		`SA(y) :- A("101",y).`,
		"N(;w:long) :- Edge(x,y); w=<<COUNT(*)>>.\nInv2(x;y:float) :- Edge(x,z); y=1/N.",
		"SSSP(x;y:int) :- Edge(\"101\",x); y=1.\nSSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.",
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := New()
			var snapshot string
			limit := 0 // of the checked runs; the options change below sets it
			pairs := func(n, span int) [][2]uint32 {
				out := make([][2]uint32, n)
				for i := range out {
					out[i] = [2]uint32{uint32(rng.Intn(span)), uint32(rng.Intn(span))}
				}
				return out
			}
			// load swaps the dictionary: ids come from a window that moves,
			// so an id keeps neither its presence nor its code.
			load := func() string {
				var b strings.Builder
				lo := 95 + rng.Intn(10)
				for i := 0; i < 30; i++ {
					fmt.Fprintf(&b, "%d %d\n", lo+rng.Intn(12), lo+rng.Intn(12))
				}
				if err := e.LoadEdgeList("Edge", strings.NewReader(b.String()), rng.Intn(2) == 0); err != nil {
					t.Fatal(err)
				}
				return "load"
			}
			ops := []func() string{
				load,
				func() string {
					if err := e.AddRelationColumns("Edge", toCols(pairs(25, 10)), nil, semiring.None); err != nil {
						t.Fatal(err)
					}
					return "replace Edge by columns"
				},
				func() string {
					// A changes arity and annotation under the texts that read it.
					switch rng.Intn(3) {
					case 0:
						e.AddRelation("A", 2, [][]uint32{{1, 2}, {1, 3}, {2, 5}, {4, 0}})
					case 1:
						e.AddRelation("A", 3, [][]uint32{{1, 2, 3}, {2, 5, 1}})
					default:
						rows := [][]uint32{{1, 2}, {2, 5}, {4, 0}}
						if err := e.AddAnnotatedRelation("A", 2, semiring.Min, rows, []float64{7, 3, 9}); err != nil {
							t.Fatal(err)
						}
					}
					return "replace A"
				},
				func() string {
					if _, ok := e.DB.Relation("Edge"); !ok {
						return load()
					}
					b := UpdateBatch{Rel: "Edge", InsCols: toCols(pairs(1+rng.Intn(4), 10))}
					if rng.Intn(2) == 0 {
						b = UpdateBatch{Rel: "Edge", DelCols: toCols(pairs(1+rng.Intn(6), 10))}
					}
					if _, err := e.Update(b); err != nil {
						t.Fatal(err)
					}
					return "update"
				},
				func() string {
					if _, err := e.Compact("Edge"); err != nil {
						t.Fatal(err)
					}
					return "compact"
				},
				func() string {
					if err := e.Alias("R", "Edge"); err != nil {
						return load()
					}
					return "alias"
				},
				func() string {
					snapshot = t.TempDir()
					if _, err := e.Snapshot(snapshot); err != nil {
						t.Fatal(err)
					}
					return "snapshot"
				},
				func() string {
					if snapshot == "" {
						return "no snapshot yet"
					}
					if _, err := e.Restore(snapshot); err != nil {
						t.Fatal(err)
					}
					return "restore"
				},
				func() string {
					e.Opts = exec.Options{SingleBag: rng.Intn(2) == 0, NoPushdown: rng.Intn(2) == 0, Parallelism: rng.Intn(3)}
					if rng.Intn(2) == 0 {
						e.Opts.Layout = trie.UintLayout
					}
					if rng.Intn(2) == 0 {
						e.Opts.Intersect = set.Config{Algo: set.AlgoMerge}
					}
					limit = 0
					if rng.Intn(3) == 0 {
						// One worker makes a limited listing's rows repeat.
						limit, e.Opts.Parallelism = 1+rng.Intn(5), 1
					}
					return "options"
				},
			}
			last := load()
			for step := 0; step < 300; step++ {
				if rng.Intn(3) == 0 {
					last = ops[rng.Intn(len(ops))]()
					continue
				}
				checkRunLimit(t, e, texts[rng.Intn(len(texts))], limit, fmt.Sprintf("step %d, last change %q", step, last))
			}
		})
	}
}
