package exec

import "emptyheaded/internal/set"

// ExecStats is the per-run EXPLAIN ANALYZE collector: live counters from
// the generic-join loop nest, one BagStats per executed bag (assembly
// included, BagID -1). Collection is opt-in per run (RunParams.Collect);
// on the default path every instrumentation site is behind one nil check
// so serving latency is unaffected.
//
// Counters are plain ints per worker (no atomics; a fold tail adds its
// own once per call), folded into the bag's BagStats once the pool
// drains. A level's candidates lie in every set it intersects, so a rank
// lookup cannot miss: only a gather skips, a candidate its vector lacks
// (see vectorAtoms). Vectors join no intersection and add no input
// cardinality. An existence tail books no probes, and its first
// level's intersection once, where its caller makes it.

// LevelStats aggregates the set-kernel activity of one loop-nest level.
type LevelStats struct {
	// Attr is the bag attribute bound at this level.
	Attr string `json:"attr"`
	// Intersections counts multi-way intersection evaluations at this
	// level (one per candidate-set construction, not per pairwise kernel
	// call).
	Intersections int64 `json:"intersections"`
	// InputCard sums the cardinalities of every participating set across
	// those evaluations; OutputCard sums the result cardinalities, so
	// OutputCard/InputCard approximates the level's selectivity.
	InputCard  int64 `json:"input_card"`
	OutputCard int64 `json:"output_card"`
	// Probes counts candidate values iterated at this level; Skipped
	// counts the probes of a gather whose vector lacks the value (its
	// support bit test): intersected atoms hold every candidate.
	Probes  int64 `json:"probes"`
	Skipped int64 `json:"skipped"`
	// Kernel counts pairwise set-kernel dispatches at this level by route
	// (layout pair + chosen algorithm) — the evidence for which cells of
	// the mixed-intersection matrix the level actually exercised.
	Kernel set.KernelStats `json:"kernel_routes,omitzero"`
}

func (l *LevelStats) add(o *LevelStats) {
	l.Intersections += o.Intersections
	l.InputCard += o.InputCard
	l.OutputCard += o.OutputCard
	l.Probes += o.Probes
	l.Skipped += o.Skipped
	l.Kernel.Add(&o.Kernel)
}

// BagStats aggregates one bag execution of the plan's Yannakakis pass.
type BagStats struct {
	// BagID matches BagPlan.ID; -1 is the final assembly join.
	BagID    int      `json:"bag_id"`
	Attrs    []string `json:"attrs,omitempty"`
	OutAttrs []string `json:"out_attrs,omitempty"`
	// Levels holds per-loop-level counters in loop-nest order.
	Levels []LevelStats `json:"levels,omitempty"`
	// Emitted counts output rows (or scalar folds) this bag produced,
	// pre-dedup: materialization may ⊕-combine duplicates.
	Emitted int64 `json:"emitted"`
	// WallUS is the bag's wall-clock execution time in microseconds.
	WallUS int64 `json:"wall_us"`
	// Reused marks a dedup'd bag whose result came from ReusedFrom
	// (App. B.2); no loop nest ran.
	Reused     bool `json:"reused,omitempty"`
	ReusedFrom int  `json:"reused_from,omitempty"`
	// SelectionMiss marks a bag short-circuited to an empty result by an
	// absent pre-descent selection constant.
	SelectionMiss bool `json:"selection_miss,omitempty"`
}

// ExecStats is one run's collected statistics, in bag execution order
// (bottom-up, assembly last).
type ExecStats struct {
	Bags []*BagStats `json:"bags"`
}

// TotalEmitted sums emitted rows across bags.
func (st *ExecStats) TotalEmitted() int64 {
	if st == nil {
		return 0
	}
	var n int64
	for _, b := range st.Bags {
		n += b.Emitted
	}
	return n
}

// noteIntersect books one multi-way intersection at a level: inputs are
// the participating set cardinalities, output the result cardinality.
// Callers guard on w.lc != nil.
func (w *worker) noteIntersect(lvl int, out int) {
	l := &w.lc[lvl]
	l.Intersections++
	for _, r := range w.ex.levels[lvl].refs {
		l.InputCard += int64(w.levelSet(r).Card())
	}
	l.OutputCard += int64(out)
}
