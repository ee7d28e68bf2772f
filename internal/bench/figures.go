package bench

import (
	"fmt"

	"emptyheaded/internal/datasets"
	"emptyheaded/internal/gen"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/set"
)

// Table3 prints the dataset inventory: the synthetic stand-ins, their
// sizes, the measured Pearson density skew (§4 fn. 4) and the bitset
// fraction under the set-level optimizer.
func Table3(cfg Config) *Table {
	t := &Table{
		ID:      "table3",
		Title:   "Graph datasets (synthetic stand-ins; see internal/datasets)",
		Columns: []string{"nodes", "dir-edges", "skew", "bitset-frac", "paper-skew"},
	}
	names := datasets.Names()
	if cfg.Quick {
		names = datasets.Small
	}
	for _, name := range names {
		p, _ := datasets.ByName(name)
		g := datasets.Load(name)
		t.Rows = append(t.Rows, Row{Label: name, Cells: []Cell{
			Num(float64(g.N)),
			Num(float64(g.Edges())),
			Num(g.DensitySkew()),
			Num(datasets.BitsetFraction(g)),
			Num(p.PaperSkew),
		}})
	}
	return t
}

// Figure5 measures uint vs bitset intersection time across densities:
// two sets of the given density over a fixed span, intersected with each
// layout. The crossover (bitset wins at high density) is the figure's
// point.
func Figure5(cfg Config) *Table {
	t := &Table{
		ID:      "fig5",
		Title:   "Intersection time vs density (uint vs bitset)",
		Columns: []string{"uint", "bitset"},
	}
	const span = 1 << 20
	densities := []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1}
	if cfg.Quick {
		densities = []float64{1e-4, 1e-3, 1e-2, 1e-1}
	}
	reps := cfg.reps() * 3 // micro-measurements need more repetitions
	for i, d := range densities {
		card := int(d * span)
		a := gen.UniformSet(card, span, int64(1000+i))
		b := gen.UniformSet(card, span, int64(2000+i))
		ua, ub := set.FromSorted(a), set.FromSorted(b)
		ba, bb := set.NewBitset(a), set.NewBitset(b)
		ut := timedBest(reps, func() { set.IntersectCount(ua, ub) })
		bt := timedBest(reps, func() { set.IntersectCount(ba, bb) })
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("density=%.0e", d),
			Cells: []Cell{Seconds(ut), Seconds(bt)},
		})
	}
	return t
}

// Figure6 measures layouts on sets with a dense region plus a sparse tail
// of varying cardinality: the composite (block-level) layout handles the
// mix where homogeneous layouts pay (§4.3).
func Figure6(cfg Config) *Table {
	t := &Table{
		ID:      "fig6",
		Title:   "Intersection time vs sparse-region cardinality (composite layout)",
		Columns: []string{"uint", "bitset", "composite"},
	}
	const denseCard = 1 << 14
	const sparseSpan = 1 << 26
	cards := []int{128, 512, 2048, 8192, 32768}
	if cfg.Quick {
		cards = []int{128, 2048, 32768}
	}
	reps := cfg.reps() * 3
	for i, sc := range cards {
		a := gen.DenseSparseSet(denseCard, sc, sparseSpan, int64(3000+i))
		b := gen.DenseSparseSet(denseCard, sc, sparseSpan, int64(4000+i))
		ua, ub := set.FromSorted(a), set.FromSorted(b)
		ba, bb := set.NewBitset(a), set.NewBitset(b)
		ca, cb := set.NewComposite(a), set.NewComposite(b)
		ut := timedBest(reps, func() { set.IntersectCount(ua, ub) })
		bt := timedBest(reps, func() { set.IntersectCount(ba, bb) })
		ct := timedBest(reps, func() { set.IntersectCount(ca, cb) })
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("sparse-card=%d", sc),
			Cells: []Cell{Seconds(ut), Seconds(bt), Seconds(ct)},
		})
	}
	return t
}

// Figure7 measures node-ordering effect on triangle counting over
// synthetic power-law graphs with varying exponents (Appendix A.1.1).
func Figure7(cfg Config) *Table {
	exps := []float64{2.0, 2.3, 3.0}
	orderings := graph.Orderings
	t := &Table{
		ID:    "fig7",
		Title: "Node ordering effect on triangle counting (synthetic power law)",
	}
	for _, o := range orderings {
		t.Columns = append(t.Columns, o.String())
	}
	n, m := 30000, 300000
	if cfg.Quick {
		n, m = 8000, 60000
	}
	for _, exp := range exps {
		g := gen.PowerLaw(n, m, exp, 777)
		row := Row{Label: fmt.Sprintf("exponent=%.1f", exp)}
		for _, o := range orderings {
			pg := g.Reorder(o, 99).Prune()
			d := timedBest(cfg.reps(), func() {
				runTriangleCount(pg, engineDefault)
			})
			row.Cells = append(row.Cells, Seconds(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table9 measures the cost of computing each node ordering (App. A.1.1).
func Table9(cfg Config) *Table {
	t := &Table{
		ID:    "table9",
		Title: "Node ordering build times",
	}
	for _, o := range graph.Orderings {
		t.Columns = append(t.Columns, o.String())
	}
	names := []string{"higgs", "livejournal"}
	for _, name := range names {
		g := datasets.Load(name)
		row := Row{Label: name}
		for _, o := range graph.Orderings {
			d := timedBest(cfg.reps(), func() { g.Permutation(o, 42) })
			row.Cells = append(row.Cells, Seconds(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
