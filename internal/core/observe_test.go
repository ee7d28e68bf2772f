package core

import (
	"math/rand"
	"testing"
	"time"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trace"
	"emptyheaded/internal/wal"
)

// TestMaintainedCardinalityMatchesWalk drives a randomized batch
// sequence (duplicate inserts, deletes of absent tuples, re-inserts of
// deleted tuples) and checks the incrementally maintained cardinality
// in every UpdateResult against both the ground-truth model and a full
// walk of the installed merged trie — the walk the maintained count
// replaced.
func TestMaintainedCardinalityMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	eng := New()
	model := edgeSet{}
	var rows [][2]uint32
	for i := 0; i < 120; i++ {
		e := [2]uint32{uint32(rng.Intn(20)), uint32(rng.Intn(20))}
		rows = append(rows, e)
		model[e] = true
	}
	eng.AddRelationColumns("Edge", toCols(rows), nil, semiring.None)

	check := func(step string, got int) {
		t.Helper()
		if got != len(model) {
			t.Fatalf("%s: maintained cardinality %d, model has %d", step, got, len(model))
		}
		rel, ok := eng.DB.Relation("Edge")
		if !ok {
			t.Fatalf("%s: Edge vanished", step)
		}
		if walk := rel.Canonical().Cardinality(); walk != got {
			t.Fatalf("%s: maintained cardinality %d, trie walk says %d", step, got, walk)
		}
	}

	for batch := 0; batch < 30; batch++ {
		var ins, del [][2]uint32
		// Deletes first (batch semantics), drawn from live and absent
		// tuples alike; inserts include duplicates of live tuples and
		// re-inserts of tuples this very batch deletes.
		for i := 0; i < rng.Intn(6); i++ {
			del = append(del, [2]uint32{uint32(rng.Intn(22)), uint32(rng.Intn(22))})
		}
		for i := 0; i < rng.Intn(8); i++ {
			ins = append(ins, [2]uint32{uint32(rng.Intn(22)), uint32(rng.Intn(22))})
		}
		if len(del) > 0 && rng.Intn(2) == 0 {
			ins = append(ins, del[rng.Intn(len(del))]) // delete-then-reinsert
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
		res, err := eng.Update(b)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for _, e := range del {
			delete(model, e)
		}
		for _, e := range ins {
			model[e] = true
		}
		check("batch", res.Cardinality)
	}

	// Compaction re-anchors the count to the compacted base.
	if did, err := eng.Compact("Edge"); err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	res, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{30, 30}})})
	if err != nil {
		t.Fatal(err)
	}
	model[[2]uint32{30, 30}] = true
	check("post-compaction", res.Cardinality)
}

// TestUpdateTracedSpans checks UpdateTraced records the apply-path
// spans (and wal_append once a WAL is open) with fsync attribution.
func TestUpdateTracedSpans(t *testing.T) {
	eng := New()
	if _, err := eng.OpenWAL(WALConfig{Dir: t.TempDir(), Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	defer eng.CloseWAL()
	tr := &trace.Trace{ID: 1, Kind: "update", Start: time.Now()}
	if _, err := eng.UpdateTraced(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{1, 2}, {2, 3}})}, tr); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	got := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.DurUS < 0 {
			t.Fatalf("span %q left open", sp.Name)
		}
		got[sp.Name] = true
	}
	for _, want := range []string{"wal_append", "cardinality", "overlay_merge"} {
		if !got[want] {
			t.Fatalf("missing span %q in %v", want, got)
		}
	}
}

// TestOverlayMemoryAndObservers checks per-overlay byte accounting in
// /stats and the compaction latency observer.
func TestOverlayMemoryAndObservers(t *testing.T) {
	eng := New()
	var compactions []time.Duration
	eng.SetObservers(Observers{Compaction: func(d time.Duration) { compactions = append(compactions, d) }})

	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{1, 2}, {3, 4}, {5, 6}})}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", DelCols: toCols([][2]uint32{{3, 4}})}); err != nil {
		t.Fatal(err)
	}
	st := eng.Durability()
	if len(st.Overlays) != 1 {
		t.Fatalf("overlays: %+v", st.Overlays)
	}
	ov := st.Overlays[0]
	if ov.InsBytes <= 0 || ov.DelBytes <= 0 {
		t.Fatalf("overlay byte accounting empty: %+v", ov)
	}
	if did, err := eng.Compact("Edge"); err != nil || !did {
		t.Fatalf("compact: did=%v err=%v", did, err)
	}
	if len(compactions) != 1 || compactions[0] < 0 {
		t.Fatalf("compaction observer calls: %v", compactions)
	}
}
