package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/delta"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// tracedIters bounds what a fixpoint leaves in a trace: the base rule and
// this many iterations record their bag spans, later ones run untraced and
// are counted in the trace's untraced_iterations. SSSP over a long path
// iterates once per hop, and a finished trace stays in the server's
// record ring and renders whole.
const tracedIters = 16

// RunProgram prepares and executes a parsed program in one call; callers
// that run a program more than once keep the Prepared instead.
func RunProgram(db *DB, prog *datalog.Program, opts Options) (*Result, error) {
	pr, err := Prepare(db, prog, opts)
	if err != nil {
		return nil, err
	}
	return pr.Run(db)
}

// applyExpr rewrites every annotation a ↦ expr(a), resolving scalar
// relation references against the database (PageRank's 1/N).
func applyExpr(db *DB, t *trie.Trie, e datalog.Expr) error {
	// Fast path: identity expression (the bare aggregate).
	if _, ok := e.(datalog.AggExpr); ok {
		return nil
	}
	eval, err := compileExpr(db, e)
	if err != nil {
		return err
	}
	if t.Arity == 0 {
		t.Scalar = eval(t.Scalar)
		return nil
	}
	var walk func(n *trie.Node, depth int)
	walk = func(n *trie.Node, depth int) {
		if n == nil {
			return
		}
		if depth == t.Arity-1 {
			if n.Ann == nil {
				// Un-annotated leaves take the expression of the
				// semiring identity (constant expressions like y=1).
				n.Ann = make([]float64, n.Set.Card())
				for i := range n.Ann {
					n.Ann[i] = eval(t.Op.One())
				}
			} else {
				for i := range n.Ann {
					n.Ann[i] = eval(n.Ann[i])
				}
			}
			return
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	t.Annotated = true
	return nil
}

// compileExpr builds an evaluator f(agg) for an annotation expression.
func compileExpr(db *DB, e datalog.Expr) (func(float64) float64, error) {
	switch x := e.(type) {
	case datalog.NumExpr:
		return func(float64) float64 { return x.Value }, nil
	case datalog.AggExpr:
		return func(a float64) float64 { return a }, nil
	case datalog.RefExpr:
		rel, ok := db.Relation(x.Name)
		if !ok {
			return nil, fmt.Errorf("exec: expression references unknown relation %s", x.Name)
		}
		t := rel.Canonical()
		if t.Arity != 0 {
			return nil, fmt.Errorf("exec: expression reference %s is not scalar", x.Name)
		}
		v := t.Scalar
		return func(float64) float64 { return v }, nil
	case datalog.BinExpr:
		l, err := compileExpr(db, x.L)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(db, x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case '+':
			return func(a float64) float64 { return l(a) + r(a) }, nil
		case '-':
			return func(a float64) float64 { return l(a) - r(a) }, nil
		case '*':
			return func(a float64) float64 { return l(a) * r(a) }, nil
		case '/':
			return func(a float64) float64 { return l(a) / r(a) }, nil
		}
	}
	return nil, fmt.Errorf("exec: unsupported expression %v", e)
}

// runRecursive evaluates the group's base rule once, then iterates its
// starred rule in one loop over (head, frontier): each round registers
// the frontier under the head name, runs the rule's one plan over it
// (Prepared.runRule — an iteration binds, it cannot plan) and folds the
// result into the head. Non-monotone aggregates replace the head
// (PageRank's unrolled iterations); monotone ones (MIN/MAX) merge in the
// tuples the round improved ("new tuples are added to R", §2.3). The
// frontier is the head, except for unbounded monotone rules that read the
// head once, which join only the previous round's improvements —
// seminaive evaluation, because naive re-evaluation "is not an acceptable
// solution in applications such as SSSP" (§3.3). A rule that joins the
// head with itself would miss the pairs of a new tuple with an old one,
// so it joins the whole head. The loop stops when the head did not change
// or after [i=k] rounds; an unbounded rule still changing at the cap is
// an error.
func (pr *Prepared) runRecursive(db *DB, g ruleGroup, rp RunParams) (*Result, error) {
	rec := pr.Prog.Rules[g.rec]
	name := rec.Head.Name
	baseRes, err := pr.runRule(db, g.base, rp)
	if err != nil {
		return nil, err
	}
	var op semiring.Op = semiring.Sum
	if rec.Assign != nil {
		if agg := datalog.FindAgg(rec.Assign.Expr); agg != nil {
			if op, err = semiring.ParseOp(agg.Op); err != nil {
				return nil, err
			}
		}
	}
	bounded, rounds := rec.Head.Iterations > 0, cmp.Or(rec.Head.Iterations, datalog.MaxFixpointIters)
	reads := rec.Reads()
	first := slices.Index(reads, name) // seminaive needs the head read at most once
	seminaive := op.Monotone() && !bounded && !pr.opts.NaiveRecursion && !slices.Contains(reads[first+1:], name)
	// The head carries the recursion's semiring so delta joins combine
	// correctly. It is a stack of tries, newest last (see fold).
	layout := pr.opts.Layout
	head := []*trie.Trie{retag(baseRes.Trie, op, layout)}
	frontier := head[0]
	iters := 0
	defer func() {
		db.Drop(name) // RunWith re-registers the final result
		if iters > tracedIters {
			rp.Trace.Annot("untraced_iterations", strconv.Itoa(iters-tracedIters))
		}
	}()
	for changed := true; changed; iters++ {
		if iters == rounds {
			if bounded {
				break
			}
			return nil, fmt.Errorf("exec: recursion on %s did not reach a fixpoint within %d iterations", name, rounds)
		}
		db.AddTrie(name, frontier)
		it := rp
		if iters >= tracedIters {
			it.Trace = nil
		}
		res, err := pr.runRule(db, g.rec, it)
		if err != nil {
			return nil, err
		}
		change := retag(res.Trie, op, layout)
		if op.Monotone() {
			change = improvements(head, change, op, layout)
			if changed = change != nil; changed && change.Arity == 0 {
				head = []*trie.Trie{change} // a scalar's one tuple is the whole relation
			} else if changed {
				head = fold(append(head, change), iters+1)
			}
		} else {
			changed = !triesEqual(head[0], change)
			head[0] = change
		}
		frontier = change
		if !seminaive {
			head = fold(head, 0)
			frontier = head[0]
		}
	}
	return &Result{Name: name, Attrs: baseRes.Attrs, Trie: fold(head, 0)[0]}, nil
}

// fold merges the newest tries of a head stack into the ones below them,
// the newer annotation winning: after the k-th push as many times as 2
// divides k, so each tuple is merged O(log rounds) times and a round
// costs O(frontier) amortised rather than O(head); k = 0 folds the stack
// into one trie. Merged sets are stored under the lower trie's Policy.
func fold(head []*trie.Trie, k int) []*trie.Trie {
	for n := len(head); n > 1 && k%2 == 0; n, k = n-1, k/2 {
		head = append(head[:n-2], delta.MergedView(head[n-2], head[n-1], nil, head[n-2].Policy))
	}
	return head
}

// retag returns t under a different semiring op, its annotation values
// kept: an annotated trie is a copy of the header with Op replaced,
// sharing every node — tries are immutable and the op lives on the Trie.
// The tuples of an un-annotated one read as t.Op's one, so those are
// written down first, in a rebuild under layout.
func retag(t *trie.Trie, op semiring.Op, layout *trie.Policy) *trie.Trie {
	switch {
	case t.Op == op:
		return t
	case t.Annotated || t.Arity == 0:
		c := *t
		c.Op = op
		return &c
	}
	b := trie.NewColumnarBuilder(t.Arity, op, layout)
	t.ForEachTuple(func(tp []uint32, ann float64) {
		b.AddAnn(ann, tp...)
	})
	return b.Build()
}

// improvements returns the tuples of res that the head stack lacks or
// whose annotation is op-better than its newest one — one ordered pass
// over res, each tuple looked up by descending the stack's tries — or nil
// when there are none. The result's sets are stored under layout.
func improvements(head []*trie.Trie, res *trie.Trie, op semiring.Op, layout *trie.Policy) *trie.Trie {
	b := trie.NewColumnarBuilder(res.Arity, op, layout)
	res.ForEachTuple(func(tp []uint32, ann float64) {
		old, ok := 0.0, false
		for i := len(head) - 1; i >= 0 && !ok; i-- {
			old, ok = head[i].Lookup(tp)
		}
		if !ok || op.Better(ann, old) {
			b.AddAnn(ann, tp...)
		}
	})
	if b.Len() == 0 {
		return nil
	}
	return b.Build()
}

// triesEqual compares two tries tuple-by-tuple with exact annotations.
func triesEqual(a, b *trie.Trie) bool {
	if a.Arity != b.Arity || a.Cardinality() != b.Cardinality() {
		return false
	}
	equal := true
	a.ForEachTuple(func(tp []uint32, ann float64) {
		if equal {
			bAnn, ok := b.Lookup(tp)
			equal = ok && (ann == bAnn || math.IsNaN(ann) && math.IsNaN(bAnn))
		}
	})
	return equal
}
