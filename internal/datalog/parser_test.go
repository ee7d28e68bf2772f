package datalog

import (
	"strings"
	"testing"
)

// TestTable1Queries parses every example query from Table 1 of the paper.
func TestTable1Queries(t *testing.T) {
	queries := map[string]string{
		"Triangle":      `Triangle(x,y,z) :- R(x,y),S(y,z),T(x,z).`,
		"4-Clique":      `FourClique(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w),V(y,w),Q(z,w).`,
		"Lollipop":      `Lollipop(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w).`,
		"Barbell":       `Barbell(x,y,z,x2,y2,z2) :- R(x,y),S(y,z),T(x,z),U(x,x2),R2(x2,y2),S2(y2,z2),T2(x2,z2).`,
		"CountTriangle": `CountTriangle(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.`,
		"PageRank": `N(;w:int) :- Edge(x,y); w=<<COUNT(x)>>.
			PageRank(x;y:float) :- Edge(x,z); y=1/N.
			PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.`,
		"SSSP": `SSSP(x;y:int) :- Edge("0",x); y=1.
			SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`,
	}
	for name, src := range queries {
		t.Run(name, func(t *testing.T) {
			prog, err := Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if len(prog.Rules) == 0 {
				t.Fatal("no rules")
			}
		})
	}
}

// TestTable12SelectionQueries parses the selection queries of Table 12.
func TestTable12SelectionQueries(t *testing.T) {
	queries := []string{
		`S4Clique(x,y,z,w) :- R(x,y),S(y,z),T(x,z),U(x,w),V(y,w),Q(z,w),P(x,"7").`,
		`SBarbell(x,y,z,x2,y2,z2) :- R(x,y),S(y,z),T(x,z),U(x,"7"),V("7",x2),R2(x2,y2),S2(y2,z2),T2(x2,z2).`,
	}
	for _, src := range queries {
		if _, err := Parse(src); err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
	}
}

func TestTriangleStructure(t *testing.T) {
	r, err := ParseRule(`Triangle(x,y,z) :- R(x,y),S(y,z),T(x,z).`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Head.Name != "Triangle" || len(r.Head.Vars) != 3 {
		t.Fatalf("head: %+v", r.Head)
	}
	if len(r.Atoms) != 3 {
		t.Fatalf("atoms: %d", len(r.Atoms))
	}
	if r.Atoms[1].Pred != "S" || r.Atoms[1].Args[0].Var != "y" || r.Atoms[1].Args[1].Var != "z" {
		t.Fatalf("atom[1]: %+v", r.Atoms[1])
	}
	if r.Assign != nil || r.Head.Recursive {
		t.Fatal("triangle should be plain")
	}
}

func TestCountStructure(t *testing.T) {
	r, err := ParseRule(`CountTriangle(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Head.Vars) != 0 || r.Head.AnnVar != "w" || r.Head.AnnType != "long" {
		t.Fatalf("head: %+v", r.Head)
	}
	agg := FindAgg(r.Assign.Expr)
	if agg == nil || agg.Op != "COUNT" || agg.Arg != "*" {
		t.Fatalf("agg: %+v", agg)
	}
}

func TestPageRankRecursiveStructure(t *testing.T) {
	r, err := ParseRule(`PageRank(x;y:float)*[i=5] :- Edge(x,z),PageRank(z),InvDeg(z); y=0.15+0.85*<<SUM(z)>>.`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Head.Recursive || r.Head.Iterations != 5 {
		t.Fatalf("head: %+v", r.Head)
	}
	agg := FindAgg(r.Assign.Expr)
	if agg == nil || agg.Op != "SUM" || agg.Arg != "z" {
		t.Fatalf("agg: %+v", agg)
	}
	// Expression shape: 0.15 + (0.85 * <<SUM(z)>>)
	bin, ok := r.Assign.Expr.(BinExpr)
	if !ok || bin.Op != '+' {
		t.Fatalf("expr: %v", r.Assign.Expr)
	}
	if n, ok := bin.L.(NumExpr); !ok || n.Value != 0.15 {
		t.Fatalf("lhs: %v", bin.L)
	}
	mul, ok := bin.R.(BinExpr)
	if !ok || mul.Op != '*' {
		t.Fatalf("rhs: %v", bin.R)
	}
}

func TestSSSPStructure(t *testing.T) {
	prog, err := Parse(`SSSP(x;y:int) :- Edge("5",x); y=1.
		SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("rules: %d", len(prog.Rules))
	}
	base, rec := prog.Rules[0], prog.Rules[1]
	if base.Head.Recursive || !rec.Head.Recursive {
		t.Fatal("recursion flags wrong")
	}
	c := base.Atoms[0].Args[0].Const
	if c == nil || !c.IsString || c.Str != "5" {
		t.Fatalf("selection constant: %+v", base.Atoms[0].Args[0])
	}
	if agg := FindAgg(rec.Assign.Expr); agg == nil || agg.Op != "MIN" || agg.Arg != "w" {
		t.Fatalf("agg: %+v", FindAgg(rec.Assign.Expr))
	}
}

func TestScalarRefExpr(t *testing.T) {
	r, err := ParseRule(`PageRank(x;y:float) :- Edge(x,z); y=1/N.`)
	if err != nil {
		t.Fatal(err)
	}
	bin, ok := r.Assign.Expr.(BinExpr)
	if !ok || bin.Op != '/' {
		t.Fatalf("expr: %v", r.Assign.Expr)
	}
	if ref, ok := bin.R.(RefExpr); !ok || ref.Name != "N" {
		t.Fatalf("ref: %v", bin.R)
	}
}

func TestNumericConstants(t *testing.T) {
	r, err := ParseRule(`Q(x) :- Edge(42,x).`)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Atoms[0].Args[0].Const
	if c == nil || c.IsString || c.Num != 42 {
		t.Fatalf("const: %+v", c)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                                  // empty
		`Q(x)`,                              // no body
		`Q(x) :- R(x,y)`,                    // missing dot
		`Q(q) :- R(x,y).`,                   // unbound head var
		`Q(x;w) :- R(x,y).`,                 // annotation without assignment
		`Q(x) :- R(x,y); w=<<COUNT(*)>>.`,   // assignment without annotation
		`Q(x;w) :- R(x,y); v=<<COUNT(*)>>.`, // wrong assignment target
		`Q(x;w) :- R(x,y); w=<<COUNT(q)>>.`, // aggregate over unbound var
		`Q(x;w) :- R(x,y); w=<<SUM(x)>>+<<SUM(y)>>.`, // two aggregates
		`Q(x)[j=5] :- R(x,y).`,                       // bad iteration var
		`Q(x)*[i=100001] :- R(x,y).`,                 // iteration count above the cap
		`Q(x) :- R(x,"unterminated.`,                 // unterminated string
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) should fail", src)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
	// triangle listing
	Triangle(x,y,z) :-
		R(x,y),  // edge 1
		S(y,z),
		T(x,z).
	`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripString(t *testing.T) {
	srcs := []string{
		`Triangle(x,y,z) :- R(x,y),S(y,z),T(x,z).`,
		`CountTriangle(;w:long) :- R(x,y),S(y,z),T(x,z); w=<<COUNT(*)>>.`,
		`SSSP(x;y:int)* :- Edge(w,x),SSSP(w); y=<<MIN(w)>>+1.`,
	}
	for _, src := range srcs {
		r1, err := ParseRule(src)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ParseRule(r1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", r1.String(), err)
		}
		if r1.String() != r2.String() {
			t.Fatalf("round trip: %q vs %q", r1.String(), r2.String())
		}
	}
}

func TestRuleVars(t *testing.T) {
	r, err := ParseRule(`Q(x) :- R(x,y),S(y,z),P(x,"3").`)
	if err != nil {
		t.Fatal(err)
	}
	vars := r.Vars()
	want := []string{"x", "y", "z"}
	if strings.Join(vars, ",") != strings.Join(want, ",") {
		t.Fatalf("vars=%v want %v", vars, want)
	}
}
