package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"emptyheaded/internal/exec"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// exampleQueries mirrors the workloads of examples/: pattern counting
// and listing (quickstart, patterns), aggregation with projection, and
// the annotated PageRank pipeline whose intermediates register extra
// relations (scalars, annotated unaries) in the database.
var exampleQueries = []string{
	`TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`,
	`Tri(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).`,
	`P2(x,z) :- Edge(x,y),Edge(y,z).`,
	`Deg(x;w:long) :- Edge(x,y); w=<<COUNT(y)>>.`,
}

const pagerankQuery = `
N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.
InvDeg(x;d:float) :- Edge(x,y); d=1/<<COUNT(*)>>.
PageRank(x;y:float) :- Edge(x,z); y=1/N.
PageRank(x;y:float)*[i=3] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.
`

func queryKey(t *testing.T, eng *Engine, q string) string {
	t.Helper()
	res, err := eng.Run(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	if res.Trie.Arity == 0 {
		return fmt.Sprintf("scalar:%g", res.Scalar())
	}
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "card=%d;", res.Cardinality())
	res.ForEach(func(tp []uint32, ann float64) {
		fmt.Fprintf(&sb, "%v:%g;", tp, ann)
	})
	return sb.String()
}

// TestSnapshotRestoreRoundTrip: for each example-style dataset and both
// relation-level set layouts (plus the auto optimizer), every query must
// return identical results before snapshot and after restore, and
// re-snapshotting the restored database must be byte-identical.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	layouts := []struct {
		name string
		opts exec.Options
	}{
		{"auto", exec.Options{}},
		{"uint", exec.OptNoLayout},
		{"bitset", exec.Options{Layout: trie.BitsetLayout}},
	}
	datasets := []struct {
		name string
		load func(e *Engine)
	}{
		{"quickstart", func(e *Engine) { e.LoadGraph("Edge", gen.PowerLaw(800, 5000, 2.2, 42)) }},
		{"erdos", func(e *Engine) { e.LoadGraph("Edge", gen.ErdosRenyi(600, 4000, 9)) }},
		{"dict", func(e *Engine) {
			// Dictionary-encoded load: original ids are sparse multiples,
			// exercising selection-constant decoding after restore.
			var sb bytes.Buffer
			g := gen.PowerLaw(400, 2500, 2.1, 5)
			for u, ns := range g.Adj {
				for _, v := range ns {
					fmt.Fprintf(&sb, "%d %d\n", u*7+1, int(v)*7+1)
				}
			}
			if err := e.LoadEdgeList("Edge", &sb, false); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, lc := range layouts {
		for _, ds := range datasets {
			t.Run(lc.name+"/"+ds.name, func(t *testing.T) {
				eng := NewWithOptions(lc.opts)
				ds.load(eng)
				// PageRank first: its pipeline registers scalar and
				// annotated intermediates that the snapshot must carry.
				prKey := queryKey(t, eng, pagerankQuery)
				before := make([]string, len(exampleQueries))
				for i, q := range exampleQueries {
					before[i] = queryKey(t, eng, q)
				}

				dir1 := t.TempDir()
				cat, err := eng.Snapshot(dir1)
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				if len(cat.Relations) < 5 { // Edge + TC/Tri/P2/Deg/N/InvDeg/PageRank heads
					t.Fatalf("catalog has only %d relations", len(cat.Relations))
				}

				restored := NewWithOptions(lc.opts)
				if _, err := restored.Restore(dir1); err != nil {
					t.Fatalf("restore: %v", err)
				}
				for i, q := range exampleQueries {
					if got := queryKey(t, restored, q); got != before[i] {
						t.Fatalf("query %q diverges after restore", q)
					}
				}
				if got := queryKey(t, restored, pagerankQuery); got != prKey {
					t.Fatal("pagerank diverges after restore")
				}

				// Byte-identical re-snapshot. Restore from dir1 again into
				// a third engine so the re-snapshot sees exactly the
				// restored state (the query runs above registered fresh
				// head relations in `restored`).
				again := NewWithOptions(lc.opts)
				if _, err := again.Restore(dir1); err != nil {
					t.Fatalf("re-restore: %v", err)
				}
				dir2 := t.TempDir()
				if _, err := again.Snapshot(dir2); err != nil {
					t.Fatalf("re-snapshot: %v", err)
				}
				compareDirs(t, dir1, dir2)
			})
		}
	}
}

func compareDirs(t *testing.T, dir1, dir2 string) {
	t.Helper()
	for _, dir := range []string{dir1, dir2} {
		_ = dir
	}
	e1, err := os.ReadDir(dir1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := os.ReadDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	names := func(es []os.DirEntry) []string {
		var out []string
		for _, e := range es {
			out = append(out, e.Name())
		}
		sort.Strings(out)
		return out
	}
	n1, n2 := names(e1), names(e2)
	if fmt.Sprint(n1) != fmt.Sprint(n2) {
		t.Fatalf("snapshot file sets differ: %v vs %v", n1, n2)
	}
	for _, name := range n1 {
		b1, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(dir2, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("file %s not byte-identical after restore + re-snapshot", name)
		}
	}
}

// TestSnapshotRestoreAnnotatedRelation round-trips a standalone annotated
// relation registered outside any graph load (MIN semiring, arity 2).
func TestSnapshotRestoreAnnotatedRelation(t *testing.T) {
	eng := New()
	tuples := make([][]uint32, 0, 2000)
	anns := make([]float64, 0, 2000)
	for i := 0; i < 2000; i++ {
		tuples = append(tuples, []uint32{uint32(i % 50), uint32(i % 133)})
		anns = append(anns, float64(i%17)+0.25)
	}
	if err := eng.AddAnnotatedRelation("W", 2, semiring.Min, tuples, anns); err != nil {
		t.Fatal(err)
	}
	before := queryKey(t, eng, `Out(x;m:float) :- W(x,y); m=<<MIN(y)>>.`)

	dir := t.TempDir()
	if _, err := eng.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if _, err := restored.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if got := queryKey(t, restored, `Out(x;m:float) :- W(x,y); m=<<MIN(y)>>.`); got != before {
		t.Fatal("MIN-annotated relation diverges after restore")
	}
}

func TestRestoreMissingDir(t *testing.T) {
	eng := New()
	if _, err := eng.Restore(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("restore of a missing snapshot succeeded")
	}
}

// edgeListText renders g as the "src dst" text format served by /load
// and LoadEdgeList.
func edgeListText(g *graph.Graph) []byte {
	var sb bytes.Buffer
	for u, ns := range g.Adj {
		for _, v := range ns {
			fmt.Fprintf(&sb, "%d %d\n", u, v)
		}
	}
	return sb.Bytes()
}

// TestRestoreLargeTextLoadedGraph: a 256k-edge text-loaded (dictionary-
// encoded) graph, whose segments span hundreds of mmap pages, answers
// identically after restore. How much faster restore is than the text
// load is the benchmark's storage.restore_ms against setup_s.
func TestRestoreLargeTextLoadedGraph(t *testing.T) {
	loader := New()
	text := edgeListText(gen.PowerLaw(60000, 262144, 2.2, 3))
	if err := loader.LoadEdgeList("Edge", bytes.NewReader(text), false); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := loader.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	eng := New()
	if _, err := eng.Restore(dir); err != nil {
		t.Fatal(err)
	}
	const q = `TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`
	if a, b := queryKey(t, loader, q), queryKey(t, eng, q); a != b {
		t.Fatalf("triangle count diverges after restore: %s vs %s", a, b)
	}
}
