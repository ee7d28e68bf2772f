package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"emptyheaded/internal/semiring"
	"emptyheaded/internal/storage"
)

// TestWatermarksSurviveSnapshotRoundTrip: journaled updates advance the
// per-relation WAL applied-seq watermark, the snapshot catalog records
// it, restore adopts it, and snapshot → restore → re-snapshot is
// byte-identical (the acceptance criterion for watermark persistence).
func TestWatermarksSurviveSnapshotRoundTrip(t *testing.T) {
	walDir, snapA, snapB := t.TempDir(), t.TempDir(), t.TempDir()
	eng := New()
	eng.AddRelationColumns("Edge", toCols([][2]uint32{{1, 2}, {2, 3}}), nil, semiring.None)
	if _, err := eng.OpenWAL(walCfg(walDir)); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]uint32{{3, 1}, {4, 2}} {
		if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{e})}); err != nil {
			t.Fatal(err)
		}
	}
	lin := Lineage(eng.DB, []string{"Edge"})["Edge"]
	if lin.WALSeq != 2 || lin.OverlayGen != 2 || lin.OverlayRows != 2 {
		t.Fatalf("lineage after 2 journaled updates: %+v", lin)
	}

	cat, err := eng.Snapshot(snapA)
	if err != nil {
		t.Fatal(err)
	}
	for _, rm := range cat.Relations {
		if rm.Name == "Edge" && rm.WALSeq != 2 {
			t.Fatalf("catalog watermark: %+v", rm)
		}
	}

	eng2 := New()
	if _, err := eng2.Restore(snapA); err != nil {
		t.Fatal(err)
	}
	if lin := Lineage(eng2.DB, []string{"Edge"})["Edge"]; lin.WALSeq != 2 || lin.OverlayGen != 0 {
		t.Fatalf("restored lineage (watermark kept, overlay generation reset): %+v", lin)
	}
	if _, err := eng2.Snapshot(snapB); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(snapA, storage.CatalogFile))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(snapB, storage.CatalogFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot→restore→re-snapshot catalog differs:\n%s\nvs\n%s", a, b)
	}
}

// TestWatermarksRecoveredByReplay: a crashed engine's watermarks are
// reconstructed from the WAL scan (the replay-synthesized apply records
// carry Seq 0, so the scan maxima must be promoted explicitly).
func TestWatermarksRecoveredByReplay(t *testing.T) {
	dir := t.TempDir()
	eng := New()
	if _, err := eng.OpenWAL(walCfg(dir)); err != nil {
		t.Fatal(err)
	}
	for _, b := range []UpdateBatch{
		{Rel: "Edge", InsCols: toCols([][2]uint32{{1, 2}})},  // seq 1
		{Rel: "Edge", InsCols: toCols([][2]uint32{{2, 3}})},  // seq 2
		{Rel: "Other", InsCols: toCols([][2]uint32{{7, 8}})}, // seq 3
	} {
		if _, err := eng.Update(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no snapshot, no clean close.

	eng2 := New()
	if _, err := eng2.OpenWAL(walCfg(dir)); err != nil {
		t.Fatal(err)
	}
	lin := Lineage(eng2.DB, []string{"Edge", "Other"})
	if lin["Edge"].WALSeq != 2 || lin["Other"].WALSeq != 3 {
		t.Fatalf("replayed watermarks: %+v", lin)
	}
}

// TestWatermarkUnchangedByCompaction: compaction is content-preserving,
// so it must not move the watermark, the overlay generation, nor the
// epoch — the invariant the snapshot segment-reuse path relies on.
func TestWatermarkUnchangedByCompaction(t *testing.T) {
	dir := t.TempDir()
	eng := New()
	if _, err := eng.OpenWAL(walCfg(dir)); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{i, i + 1}})}); err != nil {
			t.Fatal(err)
		}
	}
	epochBefore := eng.DB.EpochOf("Edge")
	if lin := Lineage(eng.DB, []string{"Edge"})["Edge"]; lin.WALSeq != 4 || lin.OverlayGen != 4 {
		t.Fatalf("lineage before compaction: %+v", lin)
	}
	if ok, err := eng.Compact("Edge"); !ok || err != nil {
		t.Fatalf("compact: ok=%v err=%v", ok, err)
	}
	if got := eng.DB.EpochOf("Edge"); got != epochBefore {
		t.Fatalf("epoch moved across compaction: %d -> %d", epochBefore, got)
	}
	lin := Lineage(eng.DB, []string{"Edge"})["Edge"]
	if lin.WALSeq != 4 || lin.OverlayGen != 4 {
		t.Fatalf("watermark or overlay generation moved across compaction: %+v", lin)
	}
	if lin.OverlayRows != 0 {
		t.Fatalf("clean compaction should empty the overlay: %+v", lin)
	}
}

// TestPreProvenanceSnapshotRestoresEpochOnly: a catalog written before
// the watermark fields existed (simulated by stripping them) still
// restores; lineage degrades to epoch-only (all watermarks zero).
func TestPreProvenanceSnapshotRestoresEpochOnly(t *testing.T) {
	walDir, snapDir := t.TempDir(), t.TempDir()
	eng := New()
	if _, err := eng.OpenWAL(walCfg(walDir)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Update(UpdateBatch{Rel: "Edge", InsCols: toCols([][2]uint32{{1, 2}, {2, 3}})}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}

	// Rewrite the catalog the way a pre-provenance writer would have:
	// no wal_seq fields.
	path := filepath.Join(snapDir, storage.CatalogFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(raw, '\n')
	var doc map[string]any
	if err := json.Unmarshal(raw[nl+1:], &doc); err != nil {
		t.Fatal(err)
	}
	for _, r := range doc["relations"].([]any) {
		delete(r.(map[string]any), "wal_seq")
	}
	payload, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	header := fmt.Sprintf("EHCATALOG v%d crc32=%08x len=%d\n", storage.FormatVersion, storage.Checksum(payload), len(payload))
	if err := os.WriteFile(path, append([]byte(header), payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	eng2 := New()
	if _, err := eng2.Restore(snapDir); err != nil {
		t.Fatalf("pre-provenance snapshot must restore: %v", err)
	}
	for name, lin := range Lineage(eng2.DB, eng2.DB.Names()) {
		if lin.WALSeq != 0 {
			t.Fatalf("epoch-only restore grew a watermark on %s: %+v", name, lin)
		}
	}
	// The data itself is intact.
	if got := queryKey(t, eng2, `L(x,y) :- Edge(x,y).`); got != queryKey(t, eng, `L(x,y) :- Edge(x,y).`) {
		t.Fatal("restored relation content diverges")
	}
}
