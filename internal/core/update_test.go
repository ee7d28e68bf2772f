package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/semiring"
)

// updateQueries exercises identity and permuted indexes plus joins over
// the merged base+overlay view.
var updateQueries = []string{
	`TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`,
	`Tri(x,y,z) :- Edge(x,y),Edge(y,z),Edge(x,z).`,
	`P2(x,z) :- Edge(x,y),Edge(y,z).`,
	`Deg(x;w:long) :- Edge(x,y); w=<<COUNT(y)>>.`,
	`In(y;w:long) :- Edge(x,y); w=<<COUNT(x)>>.`,
}

// edgeSet tracks the ground-truth tuple set of the Edge relation.
type edgeSet map[[2]uint32]bool

func (s edgeSet) cols() [][]uint32 {
	keys := make([][2]uint32, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	cols := [][]uint32{make([]uint32, len(keys)), make([]uint32, len(keys))}
	for i, k := range keys {
		cols[0][i] = k[0]
		cols[1][i] = k[1]
	}
	return cols
}

// referenceEngine builds a fresh engine holding exactly the model's
// tuples (the from-scratch rebuild the overlay view must match).
func referenceEngine(s edgeSet) *Engine {
	ref := New()
	cols := s.cols()
	if err := ref.AddRelationColumns("Edge", cols, nil, semiring.None); err != nil {
		panic(err)
	}
	return ref
}

func toCols(rows [][2]uint32) [][]uint32 {
	cols := [][]uint32{make([]uint32, len(rows)), make([]uint32, len(rows))}
	for i, r := range rows {
		cols[0][i] = r[0]
		cols[1][i] = r[1]
	}
	return cols
}

func TestUpdateInsertDeleteQuery(t *testing.T) {
	eng := New()
	model := edgeSet{}
	// Seed a small cycle graph plus chords.
	var rows [][2]uint32
	for v := uint32(0); v < 10; v++ {
		rows = append(rows, [2]uint32{v, (v + 1) % 10})
		model[[2]uint32{v, (v + 1) % 10}] = true
	}
	eng.AddRelationColumns("Edge", toCols(rows), nil, semiring.None)

	// Insert a triangle 0→2→4→0 chord set.
	ins := [][2]uint32{{0, 2}, {2, 4}, {4, 0}}
	res, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols(ins)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ins {
		model[r] = true
	}
	if res.Inserted != 3 || res.Cardinality != len(model) || res.OverlayRows != 3 {
		t.Fatalf("insert result %+v (model %d)", res, len(model))
	}
	ref := referenceEngine(model)
	for _, q := range updateQueries {
		if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
			t.Fatalf("after insert, %q: got %s want %s", q, got, want)
		}
	}

	// Delete one triangle edge and one never-present tuple.
	res, err = eng.Update(UpdateBatch{Rel: "Edge", DelCols: toCols([][2]uint32{{2, 4}, {99, 99}})})
	if err != nil {
		t.Fatal(err)
	}
	delete(model, [2]uint32{2, 4})
	if res.Deleted != 2 || res.Cardinality != len(model) {
		t.Fatalf("delete result %+v (model %d)", res, len(model))
	}
	ref = referenceEngine(model)
	for _, q := range updateQueries {
		if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
			t.Fatalf("after delete, %q: got %s want %s", q, got, want)
		}
	}

	// Same-batch delete+insert: net effect present.
	_, err = eng.Update(UpdateBatch{
		Rel:     "Edge",
		InsCols: toCols([][2]uint32{{7, 3}}),
		DelCols: toCols([][2]uint32{{7, 3}, {0, 2}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	model[[2]uint32{7, 3}] = true
	delete(model, [2]uint32{0, 2})
	ref = referenceEngine(model)
	for _, q := range updateQueries {
		if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
			t.Fatalf("after mixed batch, %q: got %s want %s", q, got, want)
		}
	}
}

func TestUpdateValidation(t *testing.T) {
	eng := New()
	eng.AddRelationColumns("Edge", [][]uint32{{1}, {2}}, nil, semiring.None)
	cases := []UpdateBatch{
		{},                                      // no relation
		{Rel: "Edge"},                           // no columns
		{Rel: "Edge", InsCols: [][]uint32{{1}}}, // arity 1 vs 2
		{Rel: "Edge", InsCols: [][]uint32{{1}, {2, 3}}},                     // ragged
		{Rel: "Edge", InsCols: [][]uint32{{1}, {2}}, InsAnns: []float64{1}}, // anns on un-annotated
		{Rel: "New", InsCols: [][]uint32{{1}}, InsAnns: []float64{2}},       // annotated, no op
	}
	for i, b := range cases {
		if _, err := eng.Update(b); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Creating a new relation by insert works, deletes on it too.
	if _, err := eng.Update(UpdateBatch{Rel: "R3", InsCols: [][]uint32{{1, 2}, {3, 4}, {5, 6}}}); err != nil {
		t.Fatal(err)
	}
	rel, ok := eng.DB.Relation("R3")
	if !ok || rel.Arity != 3 || rel.Cardinality() != 2 {
		t.Fatalf("created relation: %+v ok=%v", rel, ok)
	}
}

func TestUpdateAnnotatedReplace(t *testing.T) {
	eng := New()
	eng.AddAnnotatedRelation("W", 2, semiring.Sum, [][]uint32{{1, 2}, {3, 4}}, []float64{10, 20})
	// Upsert {1,2} with a new weight; insert {5,6}.
	_, err := eng.Update(UpdateBatch{
		Rel:     "W",
		InsCols: [][]uint32{{1, 5}, {2, 6}},
		InsAnns: []float64{99, 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(`S(;w:float) :- W(x,y); w=<<SUM(*)>>.`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scalar(); got != 99+20+7 {
		t.Fatalf("sum after upsert = %g, want 126", got)
	}
	// Un-annotated insert into annotated relation defaults to ⊗-identity.
	if _, err := eng.Update(UpdateBatch{Rel: "W", InsCols: [][]uint32{{8}, {8}}}); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Run(`S(;w:float) :- W(x,y); w=<<SUM(*)>>.`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Scalar(); got != 99+20+7+1 {
		t.Fatalf("sum after default-ann insert = %g, want 127", got)
	}
}

// TestUpdateDifferentialRandom replays random insert/delete batches and
// checks every query over the live base+overlay view against a rebuild
// of the model, then that compaction changes no answer: the overlay
// listing and the compacted listing agree in cardinality and tuples.
// (What the overlay costs in time is the benchmark's
// delta.overlay_read_penalty.) Two fixtures: a 25-vertex domain where
// every set is dense, and a skewed power-law graph whose hubs and leaves
// land in different set layouts, with tombstones aimed at live edges
// (without the 2-path listing there: its output is quadratic in hub
// degree and would be most of the package's test time).
func TestUpdateDifferentialRandom(t *testing.T) {
	for _, fx := range []struct {
		name                            string
		base                            func(rng *rand.Rand) [][2]uint32
		domain, batches, maxIns, maxDel int
		queries                         []string
	}{
		{"dense25", func(rng *rand.Rand) [][2]uint32 {
			rows := make([][2]uint32, 150)
			for i := range rows {
				rows[i] = [2]uint32{uint32(rng.Intn(25)), uint32(rng.Intn(25))}
			}
			return rows
		}, 25, 20, 8, 6, updateQueries},
		{"powerlaw", func(*rand.Rand) [][2]uint32 {
			var rows [][2]uint32
			for u, ns := range gen.PowerLaw(4000, 8000, 2.2, 3).Adj {
				for _, v := range ns {
					rows = append(rows, [2]uint32{uint32(u), v})
				}
			}
			return rows
		}, 4000, 6, 48, 24, slices.DeleteFunc(slices.Clone(updateQueries), func(q string) bool { return strings.HasPrefix(q, "P2(") })},
	} {
		t.Run(fx.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			eng := New()
			eng.SetAutoCompact(0, 0) // the overlay stays live until the explicit Compact
			model := edgeSet{}
			rows := fx.base(rng)
			for _, e := range rows {
				model[e] = true
			}
			eng.AddRelationColumns("Edge", toCols(rows), nil, semiring.None)

			live := func() [][2]uint32 {
				out := make([][2]uint32, 0, len(model))
				for k := range model {
					out = append(out, k)
				}
				slices.SortFunc(out, func(a, b [2]uint32) int { return slices.Compare(a[:], b[:]) })
				return out
			}
			for batch := 0; batch < fx.batches; batch++ {
				var ins, del [][2]uint32
				for i := 0; i < rng.Intn(fx.maxIns); i++ {
					ins = append(ins, [2]uint32{uint32(rng.Intn(fx.domain)), uint32(rng.Intn(fx.domain))})
				}
				if l := live(); len(l) > 0 {
					for i := 0; i < rng.Intn(fx.maxDel); i++ {
						del = append(del, l[rng.Intn(len(l))])
					}
				}
				b := UpdateBatch{Rel: "Edge"}
				if len(ins) > 0 {
					b.InsCols = toCols(ins)
				}
				if len(del) > 0 {
					b.DelCols = toCols(del)
				}
				if b.InsCols == nil && b.DelCols == nil {
					continue
				}
				if _, err := eng.Update(b); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				for _, e := range del {
					delete(model, e)
				}
				for _, e := range ins {
					model[e] = true
				}
				ref := referenceEngine(model)
				for _, q := range fx.queries {
					if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
						t.Fatalf("batch %d, %q: overlay view diverges from rebuild\n got %s\nwant %s", batch, q, got, want)
					}
				}
			}

			// Compaction is invisible to queries and resets the overlay.
			if len(eng.Durability().Overlays) == 0 {
				t.Fatal("no live overlay before compaction")
			}
			overlay := make([]string, len(fx.queries))
			for i, q := range fx.queries {
				overlay[i] = queryKey(t, eng, q)
			}
			if did, err := eng.Compact("Edge"); err != nil || !did {
				t.Fatalf("compact: did=%v err=%v", did, err)
			}
			for i, q := range fx.queries {
				if got := queryKey(t, eng, q); got != overlay[i] {
					t.Fatalf("%q: compacted answer differs from the overlay's", q)
				}
			}
			st := eng.Durability()
			if st.Compactions != 1 || len(st.Overlays) != 0 {
				t.Fatalf("durability after compaction: %+v", st)
			}
			// Updates keep working on the compacted base.
			if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{1, 24}})}); err != nil {
				t.Fatal(err)
			}
			model[[2]uint32{1, 24}] = true
			ref := referenceEngine(model)
			for _, q := range fx.queries {
				if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
					t.Fatalf("after post-compaction update, %q diverges", q)
				}
			}
		})
	}
}

func TestUpdateEpochInvalidation(t *testing.T) {
	eng := New()
	eng.AddRelationColumns("Edge", [][]uint32{{1, 2}, {2, 3}}, nil, semiring.None)
	eng.AddRelationColumns("Other", [][]uint32{{9}, {9}}, nil, semiring.None)
	e0, o0 := eng.DB.EpochOf("Edge"), eng.DB.EpochOf("Other")
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: [][]uint32{{5}, {5}}}); err != nil {
		t.Fatal(err)
	}
	if eng.DB.EpochOf("Edge") == e0 {
		t.Fatal("Edge epoch did not advance on update")
	}
	if eng.DB.EpochOf("Other") != o0 {
		t.Fatal("Other epoch advanced on unrelated update")
	}
}

func TestAutoCompaction(t *testing.T) {
	eng := New()
	var rows [][2]uint32
	for i := uint32(0); i < 200; i++ {
		rows = append(rows, [2]uint32{i, i + 1})
	}
	eng.AddRelationColumns("Edge", toCols(rows), nil, semiring.None)
	eng.SetAutoCompact(0.05, 8) // trigger at 8 overlay rows

	var ins [][2]uint32
	for i := uint32(0); i < 32; i++ {
		ins = append(ins, [2]uint32{1000 + i, i})
	}
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols(ins)}); err != nil {
		t.Fatal(err)
	}
	eng.WaitCompactions()
	st := eng.Durability()
	if st.Compactions == 0 {
		t.Fatalf("auto-compaction never ran: %+v", st)
	}
	if len(st.Overlays) != 0 {
		t.Fatalf("overlay not reset after compaction: %+v", st.Overlays)
	}
	rel, _ := eng.DB.Relation("Edge")
	if rel.Cardinality() != 232 {
		t.Fatalf("cardinality %d, want 232", rel.Cardinality())
	}
}

// TestUpdateExternalReplaceResetsOverlay: a /load-style replacement
// discards the overlay; subsequent updates start fresh from the new
// base.
func TestUpdateExternalReplaceResetsOverlay(t *testing.T) {
	eng := New()
	eng.AddRelationColumns("Edge", [][]uint32{{1}, {2}}, nil, semiring.None)
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: [][]uint32{{5}, {6}}}); err != nil {
		t.Fatal(err)
	}
	// External replace (a fresh load).
	eng.AddRelationColumns("Edge", [][]uint32{{7}, {8}}, nil, semiring.None)
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: [][]uint32{{9}, {10}}}); err != nil {
		t.Fatal(err)
	}
	model := edgeSet{{7, 8}: true, {9, 10}: true}
	ref := referenceEngine(model)
	q := `L(x,y) :- Edge(x,y).`
	if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
		t.Fatalf("after external replace: got %s want %s", got, want)
	}
}

// TestCompactionPreservesEpoch: compaction installs identical content
// through SwapTrie, so the relation's epoch (and therefore every
// epoch-keyed cached result over it) survives.
func TestCompactionPreservesEpoch(t *testing.T) {
	eng := New()
	eng.AddRelationColumns("Edge", toCols([][2]uint32{{1, 2}, {2, 3}}), nil, semiring.None)
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{3, 4}})}); err != nil {
		t.Fatal(err)
	}
	before := eng.DB.EpochOf("Edge")
	if did, err := eng.Compact("Edge"); err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	if got := eng.DB.EpochOf("Edge"); got != before {
		t.Fatalf("compaction bumped epoch %d → %d; cached results would flush for identical content", before, got)
	}
	rel, _ := eng.DB.Relation("Edge")
	if rel.Cardinality() != 3 {
		t.Fatalf("cardinality %d after compaction, want 3", rel.Cardinality())
	}
	// The next real update still bumps.
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{9, 9}})}); err != nil {
		t.Fatal(err)
	}
	if eng.DB.EpochOf("Edge") == before {
		t.Fatal("post-compaction update did not bump the epoch")
	}
}

// TestConcurrentUpdatesQueriesCompactions races updaters, queriers and
// aggressive auto-compaction against one relation; each updater owns a
// disjoint source-id range so the final state is deterministic
// regardless of interleaving.
func TestConcurrentUpdatesQueriesCompactions(t *testing.T) {
	eng := New()
	var seedRows [][2]uint32
	for i := uint32(0); i < 300; i++ {
		seedRows = append(seedRows, [2]uint32{i % 40, (i * 7) % 40})
	}
	eng.AddRelationColumns("Edge", toCols(seedRows), nil, semiring.None)
	eng.SetAutoCompact(0.01, 16) // compact constantly

	const (
		updaters = 3
		batches  = 25
		rows     = 8
	)
	var updWG, queryWG sync.WaitGroup
	stop := make(chan struct{})
	// Queriers: results must always be internally consistent (never a
	// torn view); errors are the only failure signal here.
	for q := 0; q < 2; q++ {
		queryWG.Add(1)
		go func() {
			defer queryWG.Done()
			prog, err := datalog.Parse(`P(x,z) :- Edge(x,y),Edge(y,z).`)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.RunIsolated(prog); err != nil {
					t.Errorf("query under churn: %v", err)
					return
				}
			}
		}()
	}
	for u := 0; u < updaters; u++ {
		updWG.Add(1)
		go func(u int) {
			defer updWG.Done()
			rng := rand.New(rand.NewSource(int64(u)))
			base := uint32(1000 * (u + 1))
			for b := 0; b < batches; b++ {
				var ins [][2]uint32
				for r := 0; r < rows; r++ {
					ins = append(ins, [2]uint32{base + uint32(rng.Intn(50)), uint32(rng.Intn(50))})
				}
				if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols(ins)}); err != nil {
					t.Errorf("updater %d: %v", u, err)
					return
				}
			}
		}(u)
	}
	// Wait for updaters, then stop queriers.
	updWG.Wait()
	close(stop)
	queryWG.Wait()
	eng.WaitCompactions()

	// Deterministic final state: seed ∪ each updater's inserts.
	model := edgeSet{}
	for _, r := range seedRows {
		model[r] = true
	}
	for u := 0; u < updaters; u++ {
		rng := rand.New(rand.NewSource(int64(u)))
		base := uint32(1000 * (u + 1))
		for b := 0; b < batches; b++ {
			for r := 0; r < rows; r++ {
				model[[2]uint32{base + uint32(rng.Intn(50)), uint32(rng.Intn(50))}] = true
			}
		}
	}
	ref := referenceEngine(model)
	q := `L(x,y) :- Edge(x,y).`
	if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
		t.Fatalf("state after concurrent churn diverges:\n got %s\nwant %s", got, want)
	}
}

// sanity helper so the file compiles if fmt is otherwise unused.
var _ = fmt.Sprintf
