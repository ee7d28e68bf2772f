package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"emptyheaded/internal/trie"
)

// Explain renders the physical plan as the loop nest the paper's code
// generator would emit (Figure 1 "Generated Code"): per bag, one loop per
// attribute with the participating set intersections, plus the Yannakakis
// passes across bags. db is a database the plan runs on: its indexes
// decide which atoms a run reads as vectors, and its dictionary the
// selection constants' codes ("?" for a constant outside it).
func (p *Plan) Explain(db *DB) string {
	f := runFacts{bags: make([]bagRun, p.GHD.Bags+1)}
	f.codes, _ = p.encode(db)
	var visit func(bp *BagPlan)
	visit = func(bp *BagPlan) {
		tries := make([]*trie.Trie, len(bp.Atoms))
		scalar := p.aggOp().One()
		for i, a := range bp.Atoms {
			if rel, ok := db.Relation(a.Rel); ok && a.child == nil && len(a.Attrs) == 1 {
				tries[i] = rel.Index(a.Perm, p.opts.Layout)
			}
			if len(a.Attrs) == 0 && !a.SemijoinOnly {
				scalar = math.NaN() // a scalar child bag's value is known at run
			}
		}
		f.bag(bp).vecs = p.vectorAtoms(bp, tries, scalar)
		for _, c := range bp.Children {
			visit(c)
		}
	}
	visit(p.Root)
	return p.explain(&f, nil)
}

// ExplainAnalyze renders the loop nest this run executed (EXPLAIN
// ANALYZE): Explain's rendering with each bag's vectors, output form and
// kernel as the run decided them from its data, annotated, when the run
// collected them (RunParams.Collect), with its measured counters: per
// level the intersection count, summed input/output set cardinalities,
// and probe/skip counts; per bag the emitted-row count and wall time. ""
// when the result carries no plan.
func (r *Result) ExplainAnalyze() string {
	if r.Plan == nil {
		return ""
	}
	return r.Plan.explain(&r.facts, r.Stats)
}

func (p *Plan) explain(f *runFacts, st *ExecStats) string {
	byBag := map[int]*BagStats{}
	if st != nil {
		for _, b := range st.Bags {
			byBag[b.BagID] = b
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- query: %s\n", p.Rule)
	fmt.Fprintf(&sb, "-- GHD (width %.2f, %d bag(s)):\n", p.GHD.Width, p.GHD.Bags)
	for _, line := range strings.Split(strings.TrimRight(p.GHD.String(), "\n"), "\n") {
		fmt.Fprintf(&sb, "--   %s\n", line)
	}
	fmt.Fprintf(&sb, "-- attribute order: %s\n", strings.Join(p.AttrOrder, ","))
	var emitBag func(bp *BagPlan)
	emitBag = func(bp *BagPlan) {
		for _, c := range bp.Children {
			emitBag(c)
		}
		bs := byBag[bp.ID]
		fmt.Fprintf(&sb, "bag %d", bp.ID)
		if len(bp.OutAttrs) > 0 {
			fmt.Fprintf(&sb, " -> @bag%d(%s)", bp.ID, strings.Join(bp.OutAttrs, ","))
		} else {
			fmt.Fprintf(&sb, " -> scalar")
		}
		if bp.DedupOf >= 0 {
			fmt.Fprintf(&sb, "  // identical to bag %d, result reused (App. B.2)\n", bp.DedupOf)
			return
		}
		if form := outputForm(bp, f); form != "" {
			fmt.Fprintf(&sb, " → %s", form)
		}
		sb.WriteString(":")
		if bs != nil {
			fmt.Fprintf(&sb, "  // actual: emitted=%d wall=%dµs", bs.Emitted, bs.WallUS)
			if bs.SelectionMiss {
				sb.WriteString(" selection-miss(empty)")
			}
		}
		sb.WriteString("\n")
		indent := "  "
		// Selection pre-descent.
		for _, a := range bp.Atoms {
			for i := range a.consts {
				code := "?" // not in db's dictionary
				if f.codes != nil {
					code = fmt.Sprint(f.codes[a.constAt+i])
				}
				fmt.Fprintf(&sb, "%s%s := %s[%s]  // selection\n", indent, a.Rel, a.Rel, code)
			}
		}
		run := f.bag(bp)
		for lvl, attr := range bp.Attrs {
			var parts []string
			vecs := ""
			for ai, a := range bp.Atoms {
				for al, v := range a.Attrs {
					if v != attr {
						continue
					}
					if run.vecs[ai] {
						vecs += fmt.Sprintf(" · %s[%s]", a.Rel, attr)
						continue
					}
					path := a.Rel
					if al > 0 {
						bound := slices.Clone(a.Attrs[:al])
						for k := range bound {
							bound[k] = cmp.Or(bound[k], "σ") // a selection constant
						}
						path = fmt.Sprintf("%s[%s]", a.Rel, strings.Join(bound, ","))
					}
					parts = append(parts, fmt.Sprintf("π%s %s", attr, path))
				}
			}
			sx := fmt.Sprintf("s%s := %s%s", attr, strings.Join(parts, " ∩ "), vecs)
			if lvl >= bp.ExistsFrom {
				sx += "  // existence check only"
			}
			if bs != nil && lvl < len(bs.Levels) {
				l := bs.Levels[lvl]
				sx += fmt.Sprintf("  // actual: ∩=%d in=%d out=%d", l.Intersections, l.InputCard, l.OutputCard)
				if !l.Kernel.IsZero() {
					sx += " kernels[" + l.Kernel.String() + "]"
				}
			}
			fmt.Fprintf(&sb, "%s%s\n", indent, sx)
			verb := "for"
			if lvl == len(bp.Attrs)-1 && !bp.Out[lvl] {
				verb = "aggregate over"
			}
			loop := fmt.Sprintf("%s %s in s%s", verb, attr, attr)
			if k := run.kind.kernelName(); k != "" && lvl == bp.kernelLevel(run.kind) {
				loop += " by " + k
			}
			loop += ":"
			if bs != nil && lvl < len(bs.Levels) {
				l := bs.Levels[lvl]
				loop += fmt.Sprintf("  // actual: probes=%d skipped=%d", l.Probes, l.Skipped)
			}
			fmt.Fprintf(&sb, "%s%s\n", indent, loop)
			indent += "  "
		}
		switch {
		case run.span != nil:
			fmt.Fprintf(&sb, "%sacc[%s] ⊕= annotation\n", indent, bp.OutAttrs[0])
		case len(bp.OutAttrs) > 0:
			fmt.Fprintf(&sb, "%semit (%s) with ⊕-combined annotation\n", indent, strings.Join(bp.OutAttrs, ","))
		default:
			fmt.Fprintf(&sb, "%sfold annotation into scalar\n", indent)
		}
	}
	emitBag(p.Root)
	if p.Assembly != nil {
		sb.WriteString("-- final assembly join (replaces top-down pass):\n")
		var rels []string
		for _, a := range p.Assembly.Atoms {
			rels = append(rels, a.Rel)
		}
		fmt.Fprintf(&sb, "join %s -> %s(%s)", strings.Join(rels, " ⋈ "),
			p.Rule.Head.Name, strings.Join(p.Assembly.OutAttrs, ","))
		if form := outputForm(p.Assembly, f); f.ran && form != "" {
			fmt.Fprintf(&sb, " → %s", form)
		}
		if bs := byBag[-1]; bs != nil {
			fmt.Fprintf(&sb, "  // actual: emitted=%d wall=%dµs", bs.Emitted, bs.WallUS)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
