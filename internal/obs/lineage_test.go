package obs

import (
	"testing"
)

func rec(trace uint64, fp string, card int, rels ...RelLineage) *Lineage {
	return &Lineage{TraceID: trace, Fingerprint: fp, Cardinality: card, Relations: rels}
}

func TestDiffDetectsDrift(t *testing.T) {
	from := rec(1, "fp", 10,
		RelLineage{Relation: "Edge", Epoch: 3, OverlayGen: 2, WALSeq: 7, OverlayRows: 4},
		RelLineage{Relation: "Node", Epoch: 1},
	)
	to := rec(2, "fp", 14,
		RelLineage{Relation: "Edge", Epoch: 5, OverlayGen: 4, WALSeq: 11, OverlayRows: 9},
		RelLineage{Relation: "Node", Epoch: 1},
	)
	rep, err := Diff(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CardinalityDelta != 4 {
		t.Fatalf("cardinality delta %d, want 4", rep.CardinalityDelta)
	}
	if rep.EpochOnly {
		t.Fatal("records carry watermarks; diff should not be epoch-only")
	}
	if len(rep.Drifted) != 1 {
		t.Fatalf("drifted: %+v", rep.Drifted)
	}
	d := rep.Drifted[0]
	if d.Relation != "Edge" || d.FromWALSeq != 7 || d.ToWALSeq != 11 || d.OverlayRowsDelta != 5 {
		t.Fatalf("drift row: %+v", d)
	}
}

func TestDiffEpochOnlyAndMembership(t *testing.T) {
	from := rec(1, "fp", 3, RelLineage{Relation: "A", Epoch: 1}, RelLineage{Relation: "Gone", Epoch: 2})
	to := rec(2, "fp", 3, RelLineage{Relation: "A", Epoch: 1}, RelLineage{Relation: "New", Epoch: 1, OverlayRows: 2})
	rep, err := Diff(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.EpochOnly {
		t.Fatal("no watermarks anywhere: diff should be epoch-only")
	}
	if len(rep.Drifted) != 2 {
		t.Fatalf("drifted: %+v", rep.Drifted)
	}
	if rep.Drifted[0].Relation != "Gone" || !rep.Drifted[0].Removed {
		t.Fatalf("removed relation: %+v", rep.Drifted[0])
	}
	if rep.Drifted[1].Relation != "New" || !rep.Drifted[1].Added || rep.Drifted[1].OverlayRowsDelta != 2 {
		t.Fatalf("added relation: %+v", rep.Drifted[1])
	}
}

func TestDiffRejectsMismatchedFingerprints(t *testing.T) {
	if _, err := Diff(rec(1, "a", 0), rec(2, "b", 0)); err == nil {
		t.Fatal("diff across fingerprints should error")
	}
	if _, err := Diff(nil, rec(1, "a", 0)); err == nil {
		t.Fatal("nil record should error")
	}
}
