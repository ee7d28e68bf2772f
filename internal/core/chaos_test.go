package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"emptyheaded/internal/fault"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/storage"
	"emptyheaded/internal/trie"
	"emptyheaded/internal/wal"
)

// chaosQueries is the invariant probe: listing, join, and aggregate over
// the surviving Edge relation.
var chaosQueries = []string{
	`L(x,y) :- Edge(x,y).`,
	`P2(x,z) :- Edge(x,y),Edge(y,z).`,
	`TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`,
}

// TestChaosWALUpdateSchedule replays seeded probabilistic fault
// schedules over a stream of update batches and asserts the
// crash-consistency contract: after dropping the engine mid-stream and
// replaying the WAL, the recovered state holds exactly the acknowledged
// batches — failed appends (clean errors, short writes, fsync failures)
// leave no trace, and no acked record is lost.
func TestChaosWALUpdateSchedule(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			in := fault.New(seed)
			eng := New()
			// Open through a clean injector; faults arm only after boot so
			// segment creation isn't part of the schedule.
			if _, err := eng.OpenWAL(WALConfig{Dir: dir, Sync: wal.SyncAlways, FS: fault.NewFS(in, "wal")}); err != nil {
				t.Fatal(err)
			}
			in.Add(
				fault.Rule{Point: "wal.write", Kind: fault.ShortWrite, Prob: 0.1, Times: -1},
				fault.Rule{Point: "wal.write", Kind: fault.Err, Prob: 0.1, Times: -1},
				fault.Rule{Point: "wal.sync", Kind: fault.Err, Prob: 0.15, Times: -1},
			)

			rng := rand.New(rand.NewSource(seed))
			model := edgeSet{}
			acked, failed := 0, 0
			for i := 0; i < 60; i++ {
				var ins, del [][2]uint32
				for n := rng.Intn(4) + 1; n > 0; n-- {
					ins = append(ins, [2]uint32{uint32(rng.Intn(12)), uint32(rng.Intn(12))})
				}
				if rng.Intn(3) == 0 && len(model) > 0 {
					for e := range model {
						del = append(del, e)
						break
					}
				}
				b := UpdateBatch{Rel: "Edge", InsCols: toCols(ins)}
				if len(del) > 0 {
					b.DelCols = toCols(del)
				}
				_, err := eng.Update(b)
				if err != nil {
					if !errors.Is(err, ErrDurability) {
						t.Fatalf("batch %d: non-durability failure %v (%s)", i, err, in)
					}
					failed++
					continue // NOT acked: the model must not absorb it
				}
				acked++
				for _, e := range del {
					delete(model, e)
				}
				for _, e := range ins {
					model[e] = true
				}
			}
			if failed == 0 {
				t.Fatalf("schedule injected no faults — dead test (%s)", in)
			}
			if acked == 0 {
				t.Skipf("schedule failed every batch; nothing to verify (%s)", in)
			}
			in.Clear()

			// Crash: no snapshot, no clean close. A fresh engine replays.
			eng2 := New()
			if _, err := eng2.OpenWAL(WALConfig{Dir: dir, Sync: wal.SyncAlways}); err != nil {
				t.Fatalf("replay after chaos: %v (%s)", err, in)
			}
			ref := referenceEngine(model)
			for _, q := range chaosQueries {
				if got, want := queryKey(t, eng2, q), queryKey(t, ref, q); got != want {
					t.Fatalf("query %q diverges after replay (acked=%d failed=%d):\n got %s\nwant %s\n%s",
						q, acked, failed, got, want, in)
				}
			}
		})
	}
}

// TestChaosCompactionFault: an injected failure inside compaction
// installs nothing — the relation keeps serving its pre-compaction
// state — and a retry after the fault clears succeeds.
func TestChaosCompactionFault(t *testing.T) {
	eng := New()
	if err := eng.AddRelationColumns("Edge", toCols([][2]uint32{{1, 2}, {2, 3}}), nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{3, 1}, {4, 2}})}); err != nil {
		t.Fatal(err)
	}
	before := queryKey(t, eng, chaosQueries[0])

	in := fault.New(21, fault.Rule{Point: "core.compact", Kind: fault.Err, OnCall: 1})
	restore := fault.Enable(in)
	did, err := eng.Compact("Edge")
	restore()
	if did || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("faulted compact: did=%v err=%v (%s)", did, err, in)
	}
	if got := queryKey(t, eng, chaosQueries[0]); got != before {
		t.Fatalf("failed compaction changed visible state:\n got %s\nwant %s", got, before)
	}
	// Fault cleared: the retry compacts for real and is invisible.
	did, err = eng.Compact("Edge")
	if err != nil || !did {
		t.Fatalf("retry compact: did=%v err=%v", did, err)
	}
	if got := queryKey(t, eng, chaosQueries[0]); got != before {
		t.Fatalf("compaction changed visible state:\n got %s\nwant %s", got, before)
	}
}

// TestChaosSnapshotWriteFault: a snapshot that dies mid-write must not
// damage the previous good snapshot in the same directory (atomic
// tmp+rename per file), and a retry persists the new state.
func TestChaosSnapshotWriteFault(t *testing.T) {
	dir := t.TempDir()
	eng := New()
	if err := eng.AddRelationColumns("Edge", toCols([][2]uint32{{1, 2}, {2, 3}}), nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	v1 := queryKey(t, eng, chaosQueries[0])
	if _, err := eng.Snapshot(dir); err != nil {
		t.Fatal(err)
	}

	// The state advances, then the next snapshot hits a dying disk.
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{3, 1}})}); err != nil {
		t.Fatal(err)
	}
	v2 := queryKey(t, eng, chaosQueries[0])
	in := fault.New(22, fault.Rule{Point: "storage.writefile", Kind: fault.Err, OnCall: 1})
	restoreFS := storage.SetFS(fault.NewFS(in, "storage"))
	if _, err := eng.Snapshot(dir); !errors.Is(err, fault.ErrInjected) {
		restoreFS()
		t.Fatalf("faulted snapshot err = %v (%s)", err, in)
	}
	restoreFS()

	// The old snapshot is still restorable, bit for bit.
	eng2 := New()
	if _, err := eng2.Restore(dir); err != nil {
		t.Fatalf("restore after failed snapshot: %v (%s)", err, in)
	}
	if got := queryKey(t, eng2, chaosQueries[0]); got != v1 {
		t.Fatalf("failed snapshot damaged the previous one:\n got %s\nwant %s", got, v1)
	}
	// The retry persists the new state.
	if _, err := eng.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	eng3 := New()
	if _, err := eng3.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if got := queryKey(t, eng3, chaosQueries[0]); got != v2 {
		t.Fatalf("retried snapshot lost state:\n got %s\nwant %s", got, v2)
	}
}

// TestChaosPoisonedWALDegradesAndProbes: at the engine level, a failed
// rollback poisons the log, every further update fails fast with
// ErrDurability, and ProbeDurability (the breaker's probe) repairs it.
func TestChaosPoisonedWALDegradesAndProbes(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(23)
	eng := New()
	if _, err := eng.OpenWAL(WALConfig{Dir: dir, Sync: wal.SyncAlways, FS: fault.NewFS(in, "wal")}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{1, 2}})}); err != nil {
		t.Fatal(err)
	}
	in.Add(
		fault.Rule{Point: "wal.sync", Kind: fault.Err, OnCall: 1},
		fault.Rule{Point: "wal.ftruncate", Kind: fault.Err, OnCall: 1},
	)
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{2, 3}})}); !errors.Is(err, ErrDurability) {
		t.Fatalf("poisoning update err = %v (%s)", err, in)
	}
	// Degraded: fails fast without touching in-memory state.
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{3, 4}})}); !errors.Is(err, ErrDurability) {
		t.Fatalf("update on poisoned WAL err = %v", err)
	}
	// A probe against the still-broken disk fails and repairs nothing
	// (the poisoning rules are spent, so arm a fresh one for it).
	in.Add(fault.Rule{Point: "wal.sync", Kind: fault.Err, OnCall: 1})
	if err := eng.ProbeDurability(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("probe on broken disk err = %v (%s)", err, in)
	}
	in.Clear()
	if err := eng.ProbeDurability(); err != nil {
		t.Fatalf("probe after heal: %v (%s)", err, in)
	}
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{4, 5}})}); err != nil {
		t.Fatalf("update after probe repair: %v", err)
	}

	// The recovered log replays exactly the acked updates.
	eng2 := New()
	if _, err := eng2.OpenWAL(WALConfig{Dir: dir, Sync: wal.SyncAlways}); err != nil {
		t.Fatal(err)
	}
	ref := referenceEngine(edgeSet{{1, 2}: true, {4, 5}: true})
	if got, want := queryKey(t, eng2, chaosQueries[0]), queryKey(t, ref, chaosQueries[0]); got != want {
		t.Fatalf("replay after poison+repair:\n got %s\nwant %s\n%s", got, want, in)
	}
}

// heldCompaction runs Compact(name) in the background with its rebuild
// held open by a core.compact Latency rule, and returns once the
// compaction has captured the relation (Durability reports it in
// flight): whatever the caller does next lands mid-rebuild. The channel
// yields Compact's result.
func heldCompaction(t *testing.T, eng *Engine, name string) <-chan error {
	t.Helper()
	in := fault.New(41, fault.Rule{Point: "core.compact", Kind: fault.Latency, OnCall: 1, Sleep: 400 * time.Millisecond})
	restore := fault.Enable(in)
	done := make(chan error, 1)
	go func() {
		defer restore()
		did, err := eng.Compact(name)
		if err == nil && !did {
			err = errNotCompacted
		}
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, o := range eng.Durability().Overlays {
			if o.Relation == name && o.Compacting {
				return done
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction of %s never started (%s)", name, in)
		}
	}
}

var errNotCompacted = errors.New("compact installed nothing")

// edgesOf enumerates a binary trie.
func edgesOf(tr *trie.Trie) edgeSet {
	s := edgeSet{}
	tr.ForEachTuple(func(tp []uint32, _ float64) { s[[2]uint32{tp[0], tp[1]}] = true })
	return s
}

// TestCompactRaceBatchMidRebuild: a batch that lands while the rebuild
// runs survives it as the whole overlay over the compacted base, with
// the epoch, watermark and overlay generation the batch left, and the
// compaction event reports the race.
func TestCompactRaceBatchMidRebuild(t *testing.T) {
	eng := New()
	var compactions []map[string]any
	eng.SetObservers(Observers{Event: func(kind string, f map[string]any) {
		if kind == "compaction" {
			compactions = append(compactions, f)
		}
	}})
	if err := eng.AddRelationColumns("Edge", toCols([][2]uint32{{1, 2}, {2, 3}}), nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenWAL(walCfg(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{3, 4}, {4, 5}})}); err != nil {
		t.Fatal(err)
	}
	captured, _ := eng.DB.Relation("Edge")
	want := edgesOf(captured.Canonical())

	done := heldCompaction(t, eng, "Edge")
	res, err := eng.Update(UpdateBatch{Rel: "Edge",
		InsCols: toCols([][2]uint32{{7, 8}}), DelCols: toCols([][2]uint32{{1, 2}})})
	if err != nil {
		t.Fatal(err)
	}
	epoch := eng.DB.EpochOf("Edge")
	if err := <-done; err != nil {
		t.Fatalf("raced compaction: %v", err)
	}

	rel, _ := eng.DB.Relation("Edge")
	if got := edgesOf(rel.Base().Canonical()); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted base %v, want the captured state %v", got, want)
	}
	ov := rel.Overlay()
	if ov == nil || !reflect.DeepEqual(edgesOf(ov.Ins), edgeSet{{7, 8}: true}) || !reflect.DeepEqual(edgesOf(ov.Del), edgeSet{{1, 2}: true}) {
		t.Fatalf("overlay after the raced compaction is not exactly the batch: %+v", ov)
	}
	if got := eng.DB.EpochOf("Edge"); got != epoch {
		t.Fatalf("compaction moved the epoch %d -> %d", epoch, got)
	}
	if lin := Lineage(eng.DB, []string{"Edge"})["Edge"]; lin.WALSeq != res.Seq || lin.OverlayGen != 2 || lin.OverlayRows != 2 {
		t.Fatalf("lineage after the raced compaction %+v, want the batch's (seq %d, gen 2, 2 rows)", lin, res.Seq)
	}
	if rel.Cardinality() != res.Cardinality || res.Cardinality != 4 {
		t.Fatalf("cardinality %d, batch reported %d, want 4", rel.Cardinality(), res.Cardinality)
	}
	if len(compactions) != 1 || compactions[0]["raced"] != true || compactions[0]["overlay_rows"] != 2 {
		t.Fatalf("compaction events %v, want one raced with 2 overlay rows", compactions)
	}
	ref := referenceEngine(edgeSet{{2, 3}: true, {3, 4}: true, {4, 5}: true, {7, 8}: true})
	for _, q := range chaosQueries {
		if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
			t.Fatalf("%s after the raced compaction:\n got %s\nwant %s", q, got, want)
		}
	}
}

// TestCompactRaceLoadMidRebuild: a load that lands while the rebuild
// runs wins — Compact installs nothing — and the loaded relation starts
// with watermark and overlay generation 0.
func TestCompactRaceLoadMidRebuild(t *testing.T) {
	eng := New()
	if err := eng.AddRelationColumns("Edge", toCols([][2]uint32{{1, 2}, {2, 3}}), nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenWAL(walCfg(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{3, 1}})}); err != nil {
		t.Fatal(err)
	}

	done := heldCompaction(t, eng, "Edge")
	if err := eng.AddRelationColumns("Edge", toCols([][2]uint32{{10, 11}, {11, 12}, {10, 12}}), nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	loaded, _ := eng.DB.Relation("Edge")
	if err := <-done; !errors.Is(err, errNotCompacted) {
		t.Fatalf("compaction over a replaced relation: %v, want nothing installed", err)
	}
	if rel, _ := eng.DB.Relation("Edge"); rel != loaded {
		t.Fatal("the obsolete compaction replaced the loaded relation")
	}
	if lin := Lineage(eng.DB, []string{"Edge"})["Edge"]; lin != (RelProv{}) {
		t.Fatalf("a load reflects no WAL record, lineage %+v", lin)
	}
	ref := referenceEngine(edgeSet{{10, 11}: true, {11, 12}: true, {10, 12}: true})
	for _, q := range chaosQueries {
		if got, want := queryKey(t, eng, q), queryKey(t, ref, q); got != want {
			t.Fatalf("%s after the load:\n got %s\nwant %s", q, got, want)
		}
	}
}

// TestCompactedAndLoadedRelationsBecomeBase: the first update after a
// load, and the first after a compaction that emptied the overlay,
// builds on the relation object the DB holds, so the permuted indexes it
// cached are reused rather than rebuilt.
func TestCompactedAndLoadedRelationsBecomeBase(t *testing.T) {
	eng := New()
	if err := eng.AddRelationColumns("Edge", toCols([][2]uint32{{1, 2}, {2, 3}, {3, 1}}), nil, semiring.None); err != nil {
		t.Fatal(err)
	}
	rev := []int{1, 0}
	for _, step := range []string{"load", "compaction"} {
		plain, _ := eng.DB.Relation("Edge")
		if plain.HasOverlay() {
			t.Fatalf("after the %s: relation still has an overlay", step)
		}
		idx := plain.Index(rev, nil)
		if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{9, uint32(len(step))}})}); err != nil {
			t.Fatal(err)
		}
		rel, _ := eng.DB.Relation("Edge")
		if rel.Base() != plain {
			t.Fatalf("first update after the %s did not build on the installed relation", step)
		}
		if rel.Base().Index(rev, nil) != idx {
			t.Fatalf("first update after the %s rebuilt the base's permuted index", step)
		}
		if did, err := eng.Compact("Edge"); !did || err != nil {
			t.Fatalf("compact: did=%v err=%v", did, err)
		}
	}
}
