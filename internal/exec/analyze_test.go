package exec

import (
	"strings"
	"testing"
	"time"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/trace"
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

// Counter totals must not depend on how the work-stealing pool splits the
// first level: per-worker counters merge losslessly.
func TestCollectParallelMatchesSerial(t *testing.T) {
	g := testGraph(300, 3000, 5)
	db := dbWithGraph(g)
	q := `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`

	prog, err := datalog.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	serialPr, err := Prepare(db, prog, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parPr, err := Prepare(db, prog, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialPr.RunWith(db.Fork(), RunParams{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := parPr.RunWith(db.Fork(), RunParams{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	sb, pb := serial.Stats.Bags[0], par.Stats.Bags[0]
	if sb.Emitted != pb.Emitted {
		t.Fatalf("emitted: serial %d, parallel %d", sb.Emitted, pb.Emitted)
	}
	for i := range sb.Levels {
		if sb.Levels[i] != pb.Levels[i] {
			t.Fatalf("level %d diverges: serial %+v, parallel %+v", i, sb.Levels[i], pb.Levels[i])
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
