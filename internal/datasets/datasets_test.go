package datasets

import "testing"

func TestLoadAllPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for _, p := range Presets {
		g := Load(p.Name)
		if g.N != p.Nodes {
			t.Fatalf("%s: N=%d want %d", p.Name, g.N, p.Nodes)
		}
		if g.Edges() < int64(p.UndirEdges) { // directed ≈ 2× undirected
			t.Fatalf("%s: too few edges: %d", p.Name, g.Edges())
		}
		// Cached: same pointer on second load.
		if Load(p.Name) != g {
			t.Fatalf("%s: cache miss", p.Name)
		}
	}
}

func TestDensityOrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	// §5.2.1: Google+ is the dense dataset (41% bitset neighborhoods);
	// Patents is the very sparse one where uint suffices.
	gplus, higgs, patents := BitsetFraction(Load("gplus")), BitsetFraction(Load("higgs")), BitsetFraction(Load("patents"))
	if gplus <= higgs || higgs <= patents {
		t.Fatalf("bitset fractions gplus %.3f, higgs %.3f, patents %.3f: want that density order", gplus, higgs, patents)
	}
	if gplus < 0.05 {
		t.Fatalf("gplus bitset fraction %.3f too small for layout experiments", gplus)
	}
	if patents > 0.05 {
		t.Fatalf("patents bitset fraction %.3f should be near zero", patents)
	}
}

func TestLoadPruned(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	p := LoadPruned("patents")
	for u, ns := range p.Adj {
		for _, v := range ns {
			if uint32(u) <= v {
				t.Fatalf("pruned edge %d→%d violates src>dst", u, v)
			}
		}
	}
	full := Load("patents")
	if p.Edges()*2 != full.Edges() {
		t.Fatalf("pruned edges %d should be half of %d", p.Edges(), full.Edges())
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("gplus"); !ok {
		t.Fatal("gplus missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("nope should be missing")
	}
	if len(Names()) != len(Presets) {
		t.Fatal("Names length mismatch")
	}
}
