package bench

import (
	"emptyheaded/internal/baseline"
	"emptyheaded/internal/datasets"
)

// Table6 runs 5 iterations of PageRank on the undirected datasets:
// EH vs Galois (G), PowerGraph (PG), Snap-R (SR), SociaLite (SL),
// LogicBlox (LB) stand-ins. All cells are seconds, as in the paper.
func Table6(cfg Config) *Table {
	t := &Table{
		ID:      "table6",
		Title:   "PageRank ×5 iterations (seconds)",
		Columns: []string{"EH", "G", "PG", "SR", "SL", "LB"},
	}
	names := datasets.Names()
	if cfg.Quick {
		names = datasets.Small
	}
	for _, name := range names {
		g := datasets.Load(name)
		eh := measureQuery(cfg.reps(), g, engineDefault, qPageRank)
		gt := timedBest(cfg.reps(), func() { baseline.LowLevelPageRank(g, 5, 0) })
		pg := timedBest(cfg.reps(), func() { baseline.VertexCentricPageRank(g, 5) })
		sr := timedBest(cfg.reps(), func() { baseline.ScalarMergePageRank(g, 5) })
		sl := timedBest(cfg.reps(), func() { baseline.PairwisePageRank(g, 5) })
		lb := measureQuery(1, g, engineLB, qPageRank)
		t.Rows = append(t.Rows, Row{Label: name, Cells: []Cell{
			eh, Seconds(gt), Seconds(pg), Seconds(sr), Seconds(sl), lb,
		}})
	}
	return t
}

// Table7 runs SSSP from the highest-degree node of the undirected graphs:
// EH (seminaive) vs Galois (G), PowerGraph (PG), SociaLite (SL) and
// LogicBlox (LB = naive recursion) stand-ins. Seconds.
func Table7(cfg Config) *Table {
	t := &Table{
		ID:      "table7",
		Title:   "SSSP from max-degree node (seconds)",
		Columns: []string{"EH", "G", "PG", "SL", "LB"},
	}
	names := datasets.Names()
	if cfg.Quick {
		names = datasets.Small
	}
	for _, name := range names {
		g := datasets.Load(name)
		start := g.MaxDegreeNode()
		query := qSSSP(start)
		eh := measureQuery(cfg.reps(), g, engineDefault, query)
		gt := timedBest(cfg.reps(), func() { baseline.LowLevelSSSP(g, start) })
		pg := timedBest(cfg.reps(), func() { baseline.VertexCentricSSSP(g, start) })
		sl := timedBest(cfg.reps(), func() { baseline.PairwiseSSSP(g, start) })
		lb := measureQuery(1, g, engineLB, query)
		t.Rows = append(t.Rows, Row{Label: name, Cells: []Cell{
			eh, Seconds(gt), Seconds(pg), Seconds(sl), lb,
		}})
	}
	return t
}
