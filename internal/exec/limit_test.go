package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/gen"
)

func mustParse(t *testing.T, query string) *datalog.Program {
	t.Helper()
	prog, err := datalog.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// runWith prepares query against db and executes it once with rp.
func runWith(t *testing.T, db *DB, query string, opts Options, rp RunParams) (*Result, error) {
	t.Helper()
	pr, err := Prepare(db, mustParse(t, query), opts)
	if err != nil {
		return nil, err
	}
	return pr.RunWith(db, rp)
}

func mustRunWith(t *testing.T, db *DB, query string, opts Options, rp RunParams) *Result {
	t.Helper()
	res, err := runWith(t, db, query, opts, rp)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

const qTriangleListing = `Tri(x,y,z) :- R(x,y),S(y,z),T(x,z).`

func TestLimitPushdownTriangleListing(t *testing.T) {
	g := testGraph(200, 1500, 11)
	db := dbWithGraph(g)
	total := int(bruteTriangles(g))
	if total < 50 {
		t.Fatalf("graph too sparse for the test: %d triangles", total)
	}

	for _, par := range []int{1, 8} {
		limit := 25
		res := mustRunWith(t, db, qTriangleListing, Options{Parallelism: par}, RunParams{Limit: limit})
		if !res.Truncated {
			t.Fatalf("par=%d: expected truncated result", par)
		}
		// The stop is cooperative: every worker finishes its current
		// candidate, so the result holds at least `limit` tuples and at
		// most a small overshoot — never the full join.
		if got := res.Cardinality(); got < limit || got >= total {
			t.Fatalf("par=%d: cardinality=%d want [%d,%d)", par, got, limit, total)
		}
		// Whatever was materialized must be real triangles.
		res.ForEach(func(tp []uint32, _ float64) {
			if !hasEdge(g, tp[0], tp[1]) || !hasEdge(g, tp[1], tp[2]) || !hasEdge(g, tp[0], tp[2]) {
				t.Fatalf("par=%d: non-triangle %v in limited result", par, tp)
			}
		})
	}

	// A limit above the full cardinality must not truncate anything.
	res := mustRunWith(t, db, qTriangleListing, OptDefault, RunParams{Limit: total + 1})
	if res.Truncated || res.Cardinality() != total {
		t.Fatalf("limit>total: card=%d truncated=%v want %d,false", res.Cardinality(), res.Truncated, total)
	}
}

// TestLimitProjectedCountsDistinct pins the post-dedup limit semantics:
// a projected listing (P2 projects y away, so the loop nest emits the
// same (x,z) pair once per witness y) with limit k must return at least
// k distinct tuples whenever the full result has that many — the budget
// counts distinct output tuples, not pre-dedup emitted rows.
func TestLimitProjectedCountsDistinct(t *testing.T) {
	g := testGraph(120, 2400, 17) // dense enough that (x,z) pairs have many witnesses
	db := dbWithGraph(g)
	const q = `P2(x,z) :- R(x,y),S(y,z).`

	full := mustRun(t, db, q, OptDefault)
	total := full.Cardinality()
	if total < 200 {
		t.Fatalf("graph too sparse: %d distinct 2-paths", total)
	}

	for _, par := range []int{1, 8} {
		limit := 50
		res := mustRunWith(t, db, q, Options{Parallelism: par}, RunParams{Limit: limit})
		if !res.Truncated {
			t.Fatalf("par=%d: expected truncated result", par)
		}
		if got := res.Cardinality(); got < limit || got >= total {
			t.Fatalf("par=%d: %d distinct tuples, want [%d,%d) — limit must count post-dedup",
				par, got, limit, total)
		}
		// Every returned pair must be a real 2-path.
		res.ForEach(func(tp []uint32, _ float64) {
			okPath := false
			for _, y := range g.Adj[tp[0]] {
				if hasEdge(g, y, tp[1]) {
					okPath = true
					break
				}
			}
			if !okPath {
				t.Fatalf("par=%d: %v is not a 2-path", par, tp)
			}
		})
	}
}

// TestLimitIgnoredForAggregates: a limit truncates listings only. Both
// queries end in a count scan, which therefore never runs under a row
// budget (see countScan).
func TestLimitIgnoredForAggregates(t *testing.T) {
	g := testGraph(150, 900, 12)
	db := dbWithGraph(g)
	for _, q := range []string{qTriangleCount, `P(x,y;c:long) :- R(x,y),S(y,z),T(x,z); c=<<COUNT(*)>>.`} {
		want := resultBits(mustRun(t, db, q, OptDefault))
		res := mustRunWith(t, db, q, OptDefault, RunParams{Limit: 1})
		if got := resultBits(res); res.Truncated || !slices.Equal(got, want) {
			t.Fatalf("%s under limit: %d tuples (truncated=%v), want %d", q, len(got), res.Truncated, len(want))
		}
		if plan := res.Plan.Explain(); !strings.Contains(plan, " by count:") {
			t.Fatalf("%s: no count scan:\n%s", q, plan)
		}
	}
}

func TestLimitPreparedPerRunOverride(t *testing.T) {
	g := testGraph(150, 900, 13)
	db := dbWithGraph(g)
	prog := mustParse(t, qTriangleListing)
	pr, err := Prepare(db, prog, OptDefault)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	full, err := pr.Run(db.Fork())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	limited, err := pr.RunWith(db.Fork(), RunParams{Limit: 10})
	if err != nil {
		t.Fatalf("run limited: %v", err)
	}
	if !limited.Truncated || limited.Cardinality() >= full.Cardinality() {
		t.Fatalf("limited run: card=%d truncated=%v (full=%d)",
			limited.Cardinality(), limited.Truncated, full.Cardinality())
	}
	// The same prepared plan must still serve unlimited runs.
	again, err := pr.Run(db.Fork())
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if again.Truncated || again.Cardinality() != full.Cardinality() {
		t.Fatalf("full rerun after limited: card=%d truncated=%v", again.Cardinality(), again.Truncated)
	}
}

// TestWorkStealingMatchesSequential pins the work-stealing scheduler
// against single-threaded execution on a power-law graph (the skewed
// degree distribution the block scheduler exists for): identical tuples
// and annotations regardless of worker count.
func TestWorkStealingMatchesSequential(t *testing.T) {
	g := gen.PowerLaw(400, 4000, 2.2, 21)
	db := dbWithGraph(g)
	queries := []string{
		qTriangleListing,
		`P2(x,z) :- R(x,y),S(y,z).`,
		qTriangleCount,
		`Deg(x;w:long) :- Edge(x,y); w=<<COUNT(y)>>.`,
	}
	for _, q := range queries {
		want := resultKey(t, mustRun(t, db, q, Options{Parallelism: 1}))
		for _, par := range []int{2, 4, 16} {
			got := resultKey(t, mustRun(t, db, q, Options{Parallelism: par}))
			if got != want {
				t.Fatalf("query %q: parallelism %d diverges from sequential", q, par)
			}
		}
	}
}

// resultKey renders a result into a canonical comparable string.
func resultKey(t *testing.T, res *Result) string {
	t.Helper()
	if res.Trie.Arity == 0 {
		return fmt.Sprintf("scalar:%v", res.Scalar())
	}
	var rows []string
	res.ForEach(func(tp []uint32, ann float64) {
		rows = append(rows, fmt.Sprintf("%v:%v", tp, ann))
	})
	sort.Strings(rows)
	return fmt.Sprintf("%d|%v", res.Cardinality(), rows)
}
