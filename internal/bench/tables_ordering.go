package bench

import (
	"emptyheaded/internal/datasets"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trie"
)

// Table10 measures the relative cost of a random node ordering versus
// ordering by degree on triangle counting, with the default (undirected)
// and symmetrically filtered (pruned) inputs, under the homogeneous uint
// layout and the full EmptyHeaded optimizer (Appendix A.1.2).
func Table10(cfg Config) *Table {
	t := &Table{
		ID:      "table10",
		Title:   "Random vs degree ordering (relative time, triangle counting)",
		Columns: []string{"default-uint", "default-EH", "filtered-uint", "filtered-EH"},
	}
	uintOpts := exec.Options{Layout: trie.UintLayout}
	for _, name := range datasets.Small {
		g := datasets.Load(name)
		deg := g.Reorder(graph.OrderDegree, 0)
		rnd := g.Reorder(graph.OrderRandom, 7)
		cells := make([]Cell, 0, 4)
		for _, filtered := range []bool{false, true} {
			gd, gr := deg, rnd
			if filtered {
				gd, gr = deg.Prune(), rnd.Prune()
			}
			for _, opts := range []exec.Options{uintOpts, engineDefault} {
				td := measureQuery(cfg.reps(), gd, opts, qTriangle)
				tr := measureQuery(cfg.reps(), gr, opts, qTriangle)
				if td.Note != "" || tr.Note != "" {
					cells = append(cells, Note("t/o"))
					continue
				}
				cells = append(cells, Ratio(tr.Value/td.Value))
			}
		}
		// Reorder to match the column layout (uint, EH per filter state).
		t.Rows = append(t.Rows, Row{Label: name, Cells: cells})
	}
	return t
}

// Table11 disables engine features on triangle counting: "-S" (no
// word-level parallelism), "-R" (homogeneous uint layout), "-SR" (both),
// on the default and symmetrically filtered inputs (Appendix A.1.2).
func Table11(cfg Config) *Table {
	t := &Table{
		ID:      "table11",
		Title:   "Feature ablations on triangle counting (relative time)",
		Columns: []string{"def -S", "def -R", "def -SR", "filt -S", "filt -R", "filt -SR"},
	}
	noS := exec.OptNoSIMD
	noR := exec.OptNoLayout
	noSR := exec.Options{
		Layout:    trie.UintLayout,
		Intersect: set.Config{BitByBit: true},
	}
	for _, name := range datasets.Small {
		full := datasets.Load(name).Reorder(graph.OrderDegree, 0)
		pruned := datasets.LoadPruned(name)
		var cells []Cell
		for _, g := range []*graph.Graph{full, pruned} {
			base := measureQuery(cfg.reps(), g, engineDefault, qTriangle)
			for _, opts := range []exec.Options{noS, noR, noSR} {
				c := measureQuery(cfg.reps(), g, opts, qTriangle)
				cells = append(cells, relOrTO(c, base))
			}
		}
		t.Rows = append(t.Rows, Row{Label: name, Cells: cells})
	}
	return t
}
