package core

import (
	"strings"
	"testing"

	"emptyheaded/internal/exec"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/semiring"
)

func TestEngineEndToEnd(t *testing.T) {
	g := gen.ErdosRenyi(150, 900, 41)
	e := New()
	e.LoadGraph("Edge", g)
	res, err := e.Run(`TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() < 0 {
		t.Fatal("negative count")
	}
	// The same count under the LogicBlox-style configuration.
	lb := NewWithOptions(exec.Options{SingleBag: true})
	lb.LoadGraph("Edge", g)
	res2, err := lb.Run(`TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != res2.Scalar() {
		t.Fatalf("configs disagree: %v vs %v", res.Scalar(), res2.Scalar())
	}
}

func TestEngineLoadEdgeListDictionary(t *testing.T) {
	e := New()
	// Original ids far outside dense range exercise dictionary encoding.
	err := e.LoadEdgeList("Edge", strings.NewReader("1000000 2000000\n2000000 3000000\n3000000 1000000\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(`TC(;w:long) :- Edge(x,y),Edge(y,z),Edge(x,z); w=<<COUNT(*)>>.`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scalar() != 6 {
		t.Fatalf("triangles=%v want 6", res.Scalar())
	}
	// Selection through the dictionary.
	sel, err := e.Run(`Nbr(x) :- Edge("2000000",x).`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Cardinality() != 2 {
		t.Fatalf("neighbors=%d want 2", sel.Cardinality())
	}
}

func TestEngineRelationsAndAliases(t *testing.T) {
	e := New()
	e.AddRelation("E", 2, [][]uint32{{0, 1}, {1, 2}, {2, 0}})
	if err := e.Alias("F", "E"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(`P(a,c) :- E(a,b),F(b,c).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cardinality() != 3 {
		t.Fatalf("paths=%d want 3", res.Cardinality())
	}
	if err := e.AddAnnotatedRelation("W", 1, semiring.Sum,
		[][]uint32{{0}}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched annotations should error")
	}
	if _, err := e.Run(`Bad(x) :- `); err == nil {
		t.Fatal("parse error should propagate")
	}
	if _, err := e.Explain(`Bad(x) :- Missing(x,y).`); err == nil {
		t.Fatal("unknown relation should propagate in Explain")
	}
}
