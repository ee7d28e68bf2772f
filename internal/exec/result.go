package exec

import (
	"fmt"
	"strings"

	"emptyheaded/internal/trie"
)

// Result is the output of one rule execution.
type Result struct {
	// Name is the head relation name.
	Name string
	// Attrs are the output attribute names, in storage order.
	Attrs []string
	// Trie holds the result tuples (Arity 0 for scalar results).
	Trie *trie.Trie
	// Plan is the physical plan that produced the result.
	Plan *Plan
	// Truncated reports that limit pushdown (RunParams.Limit) stopped the
	// listing early: the trie holds roughly the first Limit tuples found,
	// not the full result.
	Truncated bool
	// Stats holds the EXPLAIN ANALYZE counters when the run collected
	// them (RunParams.Collect); nil otherwise.
	Stats *ExecStats
	// facts is what the run decided from its data (see ExplainAnalyze).
	facts runFacts
}

// Scalar returns the annotation of a zero-arity result.
func (r *Result) Scalar() float64 {
	if r.Trie.Arity != 0 {
		panic(fmt.Sprintf("exec: Scalar() on arity-%d result", r.Trie.Arity))
	}
	return r.Trie.Scalar
}

// Cardinality returns the number of result tuples.
func (r *Result) Cardinality() int { return r.Trie.Cardinality() }

// ForEach enumerates result tuples with annotations.
func (r *Result) ForEach(f func(tuple []uint32, ann float64)) {
	r.Trie.ForEachTuple(f)
}

// Columns materializes the first max result tuples (max <= 0 means all)
// into flat per-attribute columns plus the aligned annotation column
// (nil for un-annotated results). Large listings decode an order of
// magnitude faster this way than through the per-tuple ForEach walk —
// leaf values bulk-copy straight out of the trie's leaf sets.
func (r *Result) Columns(max int) ([][]uint32, []float64) {
	cols, anns := r.Trie.Columns(max)
	if !r.Trie.Annotated {
		anns = nil
	}
	return cols, anns
}

// String summarizes the result.
func (r *Result) String() string {
	if r.Trie.Arity == 0 {
		return fmt.Sprintf("%s = %g", r.Name, r.Trie.Scalar)
	}
	return fmt.Sprintf("%s(%s): %d tuples", r.Name, strings.Join(r.Attrs, ","), r.Cardinality())
}
