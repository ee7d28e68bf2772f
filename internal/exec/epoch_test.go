package exec

import (
	"testing"

	"emptyheaded/internal/graph"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

func tinyTrie(vals ...uint32) *trie.Trie {
	b := trie.NewColumnarBuilder(1, semiring.None, nil)
	for _, v := range vals {
		b.Add(v)
	}
	return b.Build()
}

// TestPerRelationEpochs pins the epoch contract the result cache relies
// on: mutating relation R advances R's epoch and nobody else's.
func TestPerRelationEpochs(t *testing.T) {
	db := NewDB()
	db.AddTrie("R", tinyTrie(1, 2, 3))
	db.AddTrie("S", tinyTrie(4, 5))

	rEpoch, sEpoch := db.EpochOf("R"), db.EpochOf("S")
	if rEpoch == 0 || sEpoch == 0 || rEpoch == sEpoch {
		t.Fatalf("epochs not distinct and nonzero: R=%d S=%d", rEpoch, sEpoch)
	}
	if db.EpochOf("missing") != 0 {
		t.Fatal("absent relation must report epoch 0")
	}

	db.AddTrie("R", tinyTrie(9))
	if db.EpochOf("R") == rEpoch {
		t.Fatal("replacing R did not advance its epoch")
	}
	if db.EpochOf("S") != sEpoch {
		t.Fatal("replacing R advanced S's epoch")
	}

	dictEpoch := db.DictEpoch()
	db.SetDict(graph.NewDictionary())
	if db.DictEpoch() == dictEpoch {
		t.Fatal("SetDict did not advance the dictionary epoch")
	}
	if db.EpochOf("S") != sEpoch {
		t.Fatal("SetDict advanced a relation epoch")
	}

	rEpoch = db.EpochOf("R")
	db.Drop("R")
	if db.EpochOf("R") == rEpoch {
		t.Fatal("Drop did not advance the dropped relation's epoch")
	}

	// EpochsWithDict returns a consistent aligned vector.
	got, de := db.EpochsWithDict([]string{"S", "R", "missing"})
	if got[0] != sEpoch || got[1] != db.EpochOf("R") || got[2] != 0 || de != db.DictEpoch() {
		t.Fatalf("EpochsWithDict vector %v, dict %d inconsistent", got, de)
	}
}

func TestForkCarriesEpochs(t *testing.T) {
	db := NewDB()
	db.AddTrie("R", tinyTrie(1))
	f := db.Fork()
	rEpoch := f.EpochOf("R")
	if rEpoch != db.EpochOf("R") {
		t.Fatal("fork epoch differs from source at fork time")
	}
	// Later mutations of the source must not leak into the fork.
	db.AddTrie("R", tinyTrie(2))
	if f.EpochOf("R") != rEpoch {
		t.Fatal("source mutation changed the fork's epoch")
	}
	// Fork-local writes stay local.
	f.AddTrie("S", tinyTrie(3))
	if db.EpochOf("S") != 0 {
		t.Fatal("fork write leaked into the source db")
	}
}

func TestInstallSnapshot(t *testing.T) {
	db := NewDB()
	db.AddTrie("Old", tinyTrie(1))
	oldVersion := db.Version()

	dict := graph.NewDictionary()
	dict.Encode(100)
	db.InstallSnapshot(map[string]*trie.Trie{
		"Edge": tinyTrie(1, 2),
		"Rank": tinyTrie(7),
	}, map[string]uint64{"Edge": 41, "Rank": 97}, map[string]uint64{"Edge": 7}, dict, 55)

	if db.Version() <= oldVersion {
		t.Fatal("install did not advance the version")
	}
	if _, ok := db.Relation("Old"); ok {
		t.Fatal("install kept a pre-existing relation")
	}
	// Saved epochs are adopted verbatim (byte-identical re-snapshots
	// depend on this) and the version jumps strictly past all of them.
	if e := db.EpochOf("Edge"); e != 41 {
		t.Fatalf("Edge epoch %d, want adopted 41", e)
	}
	if e := db.EpochOf("Rank"); e != 97 {
		t.Fatalf("Rank epoch %d, want adopted 97", e)
	}
	if db.DictEpoch() != 55 {
		t.Fatalf("dict epoch %d, want adopted 55", db.DictEpoch())
	}
	// Watermarks are adopted onto the relations; a relation without one
	// restores epoch-only (0), and no relation starts with an overlay.
	for name, want := range map[string]uint64{"Edge": 7, "Rank": 0} {
		if r, _ := db.Relation(name); r.WALSeq() != want || r.OverlayGen() != 0 || r.HasOverlay() {
			t.Fatalf("%s: watermark %d (want %d), overlay gen %d, overlay %v", name, r.WALSeq(), want, r.OverlayGen(), r.HasOverlay())
		}
	}
	if db.Version() <= 97 {
		t.Fatalf("version %d not past the adopted epochs", db.Version())
	}
	if d := db.Dict(); d == nil || d.Len() != 1 {
		t.Fatal("installed dictionary lost")
	}
	// A post-install mutation must outrank every adopted epoch.
	db.AddTrie("Edge", tinyTrie(9))
	if db.EpochOf("Edge") <= 97 {
		t.Fatalf("post-install epoch %d not monotone past adopted epochs", db.EpochOf("Edge"))
	}
}
