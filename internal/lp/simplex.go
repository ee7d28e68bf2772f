// Package lp provides a small dense two-phase simplex solver.
//
// EmptyHeaded's query compiler solves the fractional edge cover linear
// program with uniform weights to compute fractional hypertree widths
// (§2.1, §3.1 of the paper) — a function of the query hypergraph alone;
// the size-weighted program of the AGM bound (Eq. 1) is not used by the
// optimizer. Query hypergraphs have at most a handful of vertices and
// edges, so a dense tableau solver is entirely adequate.
package lp

import (
	"errors"
	"math"
)

// ErrInfeasible is returned when no x ≥ 0 satisfies the constraints.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned when the objective is unbounded below.
var ErrUnbounded = errors.New("lp: unbounded")

const eps = 1e-9

// Minimize solves
//
//	min c·x   s.t.  A·x ≥ b,  x ≥ 0
//
// with the two-phase simplex method, returning an optimal x and the
// objective value.
func Minimize(c []float64, A [][]float64, b []float64) ([]float64, float64, error) {
	m, n := len(A), len(c)
	if m != len(b) {
		return nil, 0, errors.New("lp: dimension mismatch")
	}
	for _, row := range A {
		if len(row) != n {
			return nil, 0, errors.New("lp: dimension mismatch")
		}
	}
	// Standard form: A·x − s + a = b, with b ≥ 0 after sign-flips.
	// Columns: [x (n)] [s (m)] [a (m)] and the RHS.
	cols := n + 2*m
	t := make([][]float64, m)
	for i := 0; i < m; i++ {
		t[i] = make([]float64, cols+1)
		sign := 1.0
		if b[i] < 0 {
			sign = -1.0
		}
		for j := 0; j < n; j++ {
			t[i][j] = sign * A[i][j]
		}
		t[i][n+i] = -sign // surplus
		t[i][n+m+i] = 1   // artificial
		t[i][cols] = sign * b[i]
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + m + i
	}

	// Phase 1: minimize the sum of artificials. The phase-1 cost vector is
	// 1 on artificial columns and 0 elsewhere; with the artificials basic,
	// the reduced-cost row is c − Σ_i row_i.
	obj := make([]float64, cols+1)
	for j := n + m; j < cols; j++ {
		obj[j] = 1
	}
	for i := 0; i < m; i++ {
		for j := 0; j <= cols; j++ {
			obj[j] -= t[i][j]
		}
	}
	if err := pivotLoop(t, obj, basis, cols); err != nil {
		return nil, 0, err
	}
	if -obj[cols] > eps { // phase-1 optimum > 0 → infeasible
		return nil, 0, ErrInfeasible
	}
	// Drive any artificial variables out of the basis.
	for i, bv := range basis {
		if bv < n+m {
			continue
		}
		done := false
		for j := 0; j < n+m && !done; j++ {
			if math.Abs(t[i][j]) > eps {
				pivot(t, obj, basis, i, j, cols)
				done = true
			}
		}
		// A row with no pivot candidate is all-zero (redundant); leave it.
	}

	// Phase 2: minimize c·x, with artificial columns frozen out.
	for j := 0; j <= cols; j++ {
		obj[j] = 0
	}
	for j := 0; j < n; j++ {
		obj[j] = c[j]
	}
	for i, bv := range basis {
		if bv < n && math.Abs(obj[bv]) > 0 {
			coef := obj[bv]
			for j := 0; j <= cols; j++ {
				obj[j] -= coef * t[i][j]
			}
		}
	}
	// Forbid re-entering artificial columns.
	for j := n + m; j < cols; j++ {
		obj[j] = math.Inf(1)
	}
	if err := pivotLoop(t, obj, basis, cols); err != nil {
		return nil, 0, err
	}

	x := make([]float64, n)
	for i, bv := range basis {
		if bv < n {
			x[bv] = t[i][cols]
		}
	}
	val := 0.0
	for j := 0; j < n; j++ {
		val += c[j] * x[j]
	}
	return x, val, nil
}

// pivotLoop runs simplex iterations until optimality, using Bland's rule
// (smallest eligible index) to guarantee termination.
func pivotLoop(t [][]float64, obj []float64, basis []int, cols int) error {
	m := len(t)
	for iter := 0; iter < 10000; iter++ {
		// Entering column: first with negative reduced cost (Bland).
		enter := -1
		for j := 0; j < cols; j++ {
			if !math.IsInf(obj[j], 1) && obj[j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		// Leaving row: min ratio, ties by smallest basis index (Bland).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if t[i][enter] > eps {
				ratio := t[i][cols] / t[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		pivot(t, obj, basis, leave, enter, cols)
	}
	return errors.New("lp: iteration limit exceeded")
}

func pivot(t [][]float64, obj []float64, basis []int, row, col, cols int) {
	p := t[row][col]
	for j := 0; j <= cols; j++ {
		t[row][j] /= p
	}
	for i := range t {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= cols; j++ {
			t[i][j] -= f * t[row][j]
		}
	}
	if !math.IsInf(obj[col], 1) {
		f := obj[col]
		if f != 0 {
			for j := 0; j <= cols; j++ {
				if !math.IsInf(obj[j], 1) {
					obj[j] -= f * t[row][j]
				}
			}
		}
	}
	basis[row] = col
}
