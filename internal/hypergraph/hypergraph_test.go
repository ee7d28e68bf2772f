package hypergraph

import (
	"math"
	"testing"
)

func triangle() *Hypergraph {
	return New([]Edge{
		{Name: "R#0", Rel: "R", Vars: []string{"x", "y"}},
		{Name: "S#1", Rel: "S", Vars: []string{"y", "z"}},
		{Name: "T#2", Rel: "T", Vars: []string{"x", "z"}},
	})
}

func TestVarsUniverse(t *testing.T) {
	h := triangle()
	vars := h.Vars()
	if len(vars) != 3 || vars[0] != "x" || vars[1] != "y" || vars[2] != "z" {
		t.Fatalf("vars=%v", vars)
	}
}

func TestTriangleWidth(t *testing.T) {
	h := triangle()
	w := h.Width([]string{"x", "y", "z"}, []int{0, 1, 2})
	if math.Abs(w-1.5) > 1e-6 {
		t.Fatalf("width=%v want 1.5", w)
	}
	// Uncoverable variables have infinite width.
	if w := h.Width([]string{"q"}, []int{0}); !math.IsInf(w, 1) {
		t.Fatalf("uncoverable width=%v", w)
	}
	// Empty variable set costs nothing.
	if w := h.Width(nil, []int{0}); w != 0 {
		t.Fatalf("empty width=%v", w)
	}
}

func TestConnectedComponents(t *testing.T) {
	// Barbell: removing x (the separator of the U bag) splits the two
	// triangles.
	h := New([]Edge{
		{Name: "R#0", Rel: "R", Vars: []string{"x", "y"}},
		{Name: "S#1", Rel: "S", Vars: []string{"y", "z"}},
		{Name: "T#2", Rel: "T", Vars: []string{"x", "z"}},
		{Name: "R2#3", Rel: "R", Vars: []string{"x2", "y2"}},
		{Name: "S2#4", Rel: "S", Vars: []string{"y2", "z2"}},
		{Name: "T2#5", Rel: "T", Vars: []string{"x2", "z2"}},
	})
	comps := h.ConnectedComponents([]int{0, 1, 2, 3, 4, 5}, map[string]bool{})
	if len(comps) != 2 {
		t.Fatalf("components=%v", comps)
	}
	// With every variable in the separator, each edge is isolated.
	sep := map[string]bool{"x": true, "y": true, "z": true, "x2": true, "y2": true, "z2": true}
	comps = h.ConnectedComponents([]int{0, 1, 2, 3, 4, 5}, sep)
	if len(comps) != 6 {
		t.Fatalf("fully separated components=%v", comps)
	}
}

func TestFractionalCoverVector(t *testing.T) {
	h := triangle()
	cover, obj, err := h.FractionalCover([]string{"x", "y", "z"}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-1.5) > 1e-6 {
		t.Fatalf("obj=%v", obj)
	}
	// The optimal cover is (1/2,1/2,1/2); verify feasibility.
	for vi, v := range []string{"x", "y", "z"} {
		var sum float64
		for i, ei := range []int{0, 1, 2} {
			if h.Edges[ei].HasVar(v) {
				sum += cover[i]
			}
		}
		if sum < 1-1e-6 {
			t.Fatalf("var %d (%s) uncovered: %v", vi, v, cover)
		}
	}
}

func TestStringRendering(t *testing.T) {
	if s := triangle().String(); s == "" {
		t.Fatal("empty String()")
	}
}
