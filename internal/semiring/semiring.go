// Package semiring implements the annotation algebra of EmptyHeaded.
//
// Following Green et al.'s provenance semirings (§2.2, §3.2 of the paper),
// every trie can annotate its values with elements of a semiring
// (S, ⊕, ⊗, 0, 1). Aggregations are ⊕-folds performed when an attribute is
// projected away; joining annotated attributes multiplies annotations
// with ⊗. SUM, COUNT, MIN and MAX are all instances.
//
// Annotations are carried as float64: COUNT stays exact up to 2^53 and
// SUM/MIN/MAX for PageRank and SSSP are naturally floating point.
package semiring

import (
	"fmt"
	"math"
)

// Op identifies an aggregation semiring.
type Op uint8

const (
	// None marks an un-annotated relation (implicitly the counting
	// semiring with annotation 1 per tuple).
	None Op = iota
	// Sum is (ℝ, +, ×, 0, 1).
	Sum
	// Count is Sum with a default per-tuple annotation of 1.
	Count
	// Min is (ℝ∪{+∞}, min, +, +∞, 0): "addition" is min, "multiplication"
	// is arithmetic + (the tropical semiring used by shortest paths).
	Min
	// Max is (ℝ∪{−∞}, max, +, −∞, 0).
	Max
)

// ParseOp maps the query-language aggregate names to Ops.
func ParseOp(name string) (Op, error) {
	switch name {
	case "SUM":
		return Sum, nil
	case "COUNT":
		return Count, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	}
	return None, fmt.Errorf("semiring: unknown aggregate %q", name)
}

// String returns the aggregate name.
func (op Op) String() string {
	switch op {
	case None:
		return "NONE"
	case Sum:
		return "SUM"
	case Count:
		return "COUNT"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Zero returns the ⊕-identity (the value of an empty aggregation).
func (op Op) Zero() float64 {
	switch op {
	case Min:
		return math.Inf(1)
	case Max:
		return math.Inf(-1)
	default:
		return 0
	}
}

// One returns the ⊗-identity (the annotation of an un-annotated tuple).
func (op Op) One() float64 {
	switch op {
	case Min, Max:
		return 0
	default:
		return 1
	}
}

// Add is the semiring ⊕ (the aggregation combine step).
func (op Op) Add(a, b float64) float64 {
	switch op {
	case Min:
		return MinOf(a, b)
	case Max:
		return MaxOf(a, b)
	default:
		return a + b
	}
}

// Mul is the semiring ⊗ (applied when annotated relations are joined:
// "when aggregated attributes are joined with each other their annotation
// values are multiplied by default", Appendix A.2).
func (op Op) Mul(a, b float64) float64 {
	switch op {
	case Min, Max:
		return a + b
	default:
		return a * b
	}
}

// MinOf is MIN's ⊕: math.Min to the bit, special cases included (−∞
// before NaN, −0 below +0, NaN as math.NaN), but small enough to inline
// where math.Min on amd64 is always a call into assembly.
func MinOf(a, b float64) float64 {
	switch {
	case a < b:
		return a
	case b < a:
		return b
	case a == b: // the same bits, or ±0, where −0 wins
		return math.Float64frombits(math.Float64bits(a) | math.Float64bits(b))
	case a < -math.MaxFloat64 || b < -math.MaxFloat64:
		return math.Inf(-1)
	}
	return math.NaN()
}

// MaxOf is MAX's ⊕: math.Max to the bit, as MinOf is math.Min.
func MaxOf(a, b float64) float64 {
	switch {
	case a > b:
		return a
	case b > a:
		return b
	case a == b: // the same bits, or ±0, where +0 wins
		return math.Float64frombits(math.Float64bits(a) & math.Float64bits(b))
	case a > math.MaxFloat64 || b > math.MaxFloat64:
		return math.Inf(1)
	}
	return math.NaN()
}

// Monotone reports whether the aggregate is monotonically improving
// (MIN/MAX), which is the engine's trigger for seminaive recursion (§3.3).
func (op Op) Monotone() bool { return op == Min || op == Max }

// Better reports whether a strictly improves on b under the aggregate's
// preference order; only meaningful for monotone aggregates.
func (op Op) Better(a, b float64) bool {
	switch op {
	case Min:
		return a < b
	case Max:
		return a > b
	}
	return false
}
