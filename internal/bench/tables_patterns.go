package bench

import (
	"time"

	"emptyheaded/internal/baseline"
	"emptyheaded/internal/datasets"
	"emptyheaded/internal/exec"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/trie"
)

// Table4 compares the relation-, set-, and block-level layout optimizers
// against the oracle on triangle counting (§4.4). The oracle lower bound
// is approximated as the fastest of all whole-relation layout policies
// plus the set-level optimizer — a lower bound on the policies tried, not
// the true per-set oracle.
func Table4(cfg Config) *Table {
	t := &Table{
		ID:      "table4",
		Title:   "Layout optimizer granularity vs oracle (triangle counting, relative time)",
		Columns: []string{"relation", "set", "block"},
	}
	policies := map[string]exec.Options{
		"relation": {Layout: trie.UintLayout},
		"set":      {},
		"block":    {Layout: trie.CompositeLayout},
	}
	for _, name := range datasets.Small {
		g := datasets.LoadPruned(name)
		times := map[string]float64{}
		for pname, opts := range policies {
			c := measureQuery(cfg.reps(), g, opts, qTriangle)
			times[pname] = c.Value
		}
		// Relation level stores every set as uint ("we found that uint
		// provides the best performance at the relation level", §4.3).
		rel := times["relation"]
		oracle := rel
		for _, k := range []string{"set", "block"} {
			if times[k] < oracle {
				oracle = times[k]
			}
		}
		t.Rows = append(t.Rows, Row{Label: name, Cells: []Cell{
			Ratio(rel / oracle),
			Ratio(times["set"] / oracle),
			Ratio(times["block"] / oracle),
		}})
	}
	return t
}

// Table5 is the headline triangle-counting comparison (§5.2.1): EH vs
// PowerGraph (PG), CGT-X, Snap-R (SR), SociaLite (SL), LogicBlox (LB) on
// pruned, degree-ordered graphs. Columns after EH are relative slowdowns.
func Table5(cfg Config) *Table {
	t := &Table{
		ID:      "table5",
		Title:   "Triangle counting: EH seconds, others relative (×)",
		Columns: []string{"EH", "PG", "CGT-X", "SR", "SL", "LB"},
	}
	names := datasets.Names()
	if cfg.Quick {
		names = datasets.Small
	}
	for _, name := range names {
		gU := datasets.Load(name)
		g := datasets.LoadPruned(name)
		eh := measureQuery(cfg.reps(), g, engineDefault, qTriangle)
		pg := timedBest(cfg.reps(), func() { baseline.VertexCentricTriangleCount(g, 0) })
		cgtx := timedBest(cfg.reps(), func() { baseline.LowLevelTriangleCount(g, 1) })
		sr := timedBest(cfg.reps(), func() { baseline.ScalarMergeTriangleCount(gU, 0) })
		slCell := Note("t/o")
		t0 := time.Now()
		if _, err := baseline.PairwiseTriangleCount(g, cfg.budget()); err == nil {
			slCell = Ratio(time.Since(t0).Seconds() / eh.Value)
		}
		lb := measureQuery(cfg.reps(), g, engineLB, qTriangle)
		row := Row{Label: name, Cells: []Cell{
			eh,
			Ratio(pg.Seconds() / eh.Value),
			Ratio(cgtx.Seconds() / eh.Value),
			Ratio(sr.Seconds() / eh.Value),
			slCell,
			relOrTO(lb, eh),
		}}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func relOrTO(c, baseline Cell) Cell {
	if c.Note != "" {
		return c
	}
	return Ratio(c.Value / baseline.Value)
}

// Table8 runs the advanced pattern queries (K4, Lollipop, Barbell) with
// the engine ablations of §5.3: "-R" (no layout optimization), "-RA" (no
// layout + no algorithm selection), "-GHD" (single-bag plans), plus the
// SociaLite and LogicBlox stand-ins.
func Table8(cfg Config) *Table {
	t := &Table{
		ID:      "table8",
		Title:   "K4/L31/B31: EH seconds, ablations and baselines relative (×)",
		Columns: []string{"query", "EH", "-R", "-RA", "-GHD", "SL", "LB"},
	}
	type q struct {
		name    string
		query   string
		pruned  bool // K4 is symmetric → pruned input (§5.3)
		pattern string
	}
	qs := []q{
		{"K4", qK4, true, "k4"},
		{"L31", qL31, false, "l31"},
		{"B31", qB31, false, "b31"},
	}
	names := datasets.Small
	if cfg.Quick {
		names = []string{"gplus", "higgs", "patents"}
	}
	for _, name := range names {
		for _, qq := range qs {
			var g *graph.Graph
			if qq.pruned {
				g = datasets.LoadPruned(name)
			} else {
				g = datasets.Load(name)
			}
			eh := measureQuery(cfg.reps(), g, engineDefault, qq.query)
			noR := measureQuery(1, g, engineNoR, qq.query)
			noRA := measureQuery(1, g, engineNoRA, qq.query)
			noGHD := measureQuery(1, g, engineNoGHD, qq.query)
			sl := Note("t/o")
			t0 := time.Now()
			if _, err := baseline.PairwisePatternCount(g, qq.pattern, cfg.budget()); err == nil {
				if eh.Note == "" {
					sl = Ratio(time.Since(t0).Seconds() / eh.Value)
				} else {
					sl = Seconds(time.Since(t0))
				}
			}
			lb := measureQuery(1, g, engineLB, qq.query)
			if eh.Note != "" {
				t.Rows = append(t.Rows, Row{Label: name + "/" + qq.name,
					Cells: []Cell{Note(qq.name), eh, noR, noRA, noGHD, sl, lb}})
				continue
			}
			t.Rows = append(t.Rows, Row{Label: name + "/" + qq.name, Cells: []Cell{
				Note(qq.name), eh,
				relOrTO(noR, eh), relOrTO(noRA, eh), relOrTO(noGHD, eh),
				sl, relOrTO(lb, eh),
			}})
		}
	}
	return t
}

// Table13 runs the selection queries (Table 12 / Appendix B.1): 4-clique
// and barbell anchored at a specific node, for a high-degree and a
// low-degree node, with and without cross-bag selection pushdown.
func Table13(cfg Config) *Table {
	t := &Table{
		ID:      "table13",
		Title:   "Selection queries: EH seconds, -GHD (no pushdown) and LB relative (×)",
		Columns: []string{"query", "node", "EH", "-GHD", "LB"},
	}
	names := datasets.Small
	if cfg.Quick {
		names = []string{"higgs", "patents"}
	}
	for _, name := range names {
		g := datasets.Load(name)
		hi := g.MaxDegreeNode()
		lo := minDegreeNode(g)
		for _, sel := range []struct {
			qname string
			build func(uint32) string
		}{{"SK4", qSK4}, {"SB31", qSB31}} {
			for _, node := range []struct {
				label string
				v     uint32
			}{{"high", hi}, {"low", lo}} {
				query := sel.build(node.v)
				eh := measureQuery(cfg.reps(), g, engineDefault, query)
				noPush := measureQuery(1, g, exec.Options{NoPushdown: true}, query)
				lb := measureQuery(1, g, engineLB, query)
				label := name + "/" + sel.qname + "/" + node.label
				if eh.Note != "" {
					t.Rows = append(t.Rows, Row{Label: label,
						Cells: []Cell{Note(sel.qname), Note(node.label), eh, noPush, lb}})
					continue
				}
				t.Rows = append(t.Rows, Row{Label: label, Cells: []Cell{
					Note(sel.qname), Note(node.label), eh,
					relOrTO(noPush, eh), relOrTO(lb, eh),
				}})
			}
		}
	}
	return t
}

func minDegreeNode(g *graph.Graph) uint32 {
	best, bd := 0, int(^uint(0)>>1)
	for v := range g.Adj {
		if d := len(g.Adj[v]); d > 0 && d < bd {
			best, bd = v, d
		}
	}
	return uint32(best)
}
