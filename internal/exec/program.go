package exec

import (
	"fmt"
	"math"
	"strconv"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/trie"
)

// maxFixpointIters bounds un-bounded recursion (safety net; seminaive
// recursion on finite graphs terminates well before this).
const maxFixpointIters = 100000

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
// starred rule. Monotone aggregates (MIN/MAX) use seminaive evaluation
// over delta frontiers; others use naive re-evaluation with replace
// semantics, for a fixed iteration count or until fixpoint (§3.3
// "Recursion"). The fixpoint drivers receive the starred rule as step —
// one more pass of Prepared.runRule over whatever the driver registered
// under the head name — so an iteration binds the rule's one plan; it
// cannot plan.
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
	// Ensure the base result carries the recursion's semiring so delta
	// joins combine correctly.
	current := retag(baseRes.Trie, op)
	iters := 0
	step := func() (*Result, error) {
		it := rp
		if iters++; iters > tracedIters {
			it.Trace = nil
		}
		return pr.runRule(db, g.rec, it)
	}

	defer db.Drop(name) // RunWith re-registers the final result

	drive := runNaive
	if op.Monotone() && rec.Head.Iterations == 0 && !pr.opts.NaiveRecursion {
		drive = runSeminaive
	}
	res, err := drive(db, rec, current, op, step)
	if iters > tracedIters {
		rp.Trace.Annot("untraced_iterations", strconv.Itoa(iters-tracedIters))
	}
	return res, err
}

// retag rebuilds a trie under a different semiring op (annotation values
// are preserved; only the combine semantics change).
func retag(t *trie.Trie, op semiring.Op) *trie.Trie {
	if t.Op == op {
		return t
	}
	b := trie.NewColumnarBuilder(t.Arity, op, nil)
	t.ForEachTuple(func(tp []uint32, ann float64) {
		b.AddAnn(ann, tp...)
	})
	return b.Build()
}

// runNaive re-evaluates the rule body against the full current relation
// each round. Non-monotone aggregates replace the relation (PageRank's
// unrolled iterations); monotone aggregates accumulate — new derivations
// are ⊕-combined with existing tuples ("new tuples are added to R",
// §2.3), so naive SSSP converges to the same fixpoint as seminaive, just
// wastefully.
func runNaive(db *DB, rec *datalog.Rule, current *trie.Trie, op semiring.Op, step func() (*Result, error)) (*Result, error) {
	name := rec.Head.Name
	iters := rec.Head.Iterations
	bounded := iters > 0
	if !bounded {
		iters = maxFixpointIters
	}
	var attrs []string
	for it := 0; it < iters; it++ {
		db.AddTrie(name, current)
		res, err := step()
		if err != nil {
			return nil, err
		}
		attrs = res.Attrs
		var next *trie.Trie
		if op.Monotone() {
			nb := trie.NewColumnarBuilder(res.Trie.Arity, op, nil)
			current.ForEachTuple(func(tp []uint32, ann float64) { nb.AddAnn(ann, tp...) })
			res.Trie.ForEachTuple(func(tp []uint32, ann float64) { nb.AddAnn(ann, tp...) })
			next = nb.Build()
		} else {
			next = retag(res.Trie, op)
		}
		if !bounded && triesEqual(current, next) {
			current = next
			break
		}
		current = next
	}
	return &Result{Name: name, Attrs: attrs, Trie: current}, nil
}

// runSeminaive maintains a delta frontier: the rule body joins only the
// tuples improved in the previous round, and a round's improvements form
// the next frontier. This is the engine's SSSP execution mode, selected
// automatically because MIN is monotone (§3.3).
func runSeminaive(db *DB, rec *datalog.Rule, base *trie.Trie, op semiring.Op, step func() (*Result, error)) (*Result, error) {
	name := rec.Head.Name
	best := map[uint32]float64{}
	var attrs []string
	base.ForEachTuple(func(tp []uint32, ann float64) {
		if len(tp) != 1 {
			return
		}
		best[tp[0]] = ann
	})
	if base.Arity != 1 {
		return nil, fmt.Errorf("exec: seminaive recursion supports unary heads, got arity %d", base.Arity)
	}
	delta := base
	for round := 0; round < maxFixpointIters; round++ {
		if delta.Cardinality() == 0 {
			break
		}
		db.AddTrie(name, delta)
		res, err := step()
		if err != nil {
			return nil, err
		}
		attrs = res.Attrs
		nb := trie.NewColumnarBuilder(1, op, nil)
		improved := 0
		res.Trie.ForEachTuple(func(tp []uint32, ann float64) {
			old, ok := best[tp[0]]
			if !ok || op.Better(ann, old) {
				best[tp[0]] = ann
				nb.AddAnn(ann, tp[0])
				improved++
			}
		})
		if improved == 0 {
			break
		}
		delta = nb.Build()
	}
	out := trie.NewColumnarBuilder(1, op, nil)
	for k, v := range best {
		out.AddAnn(v, k)
	}
	if attrs == nil {
		attrs = []string{rec.Head.Vars[0]}
	}
	return &Result{Name: name, Attrs: attrs, Trie: out.Build()}, nil
}

// triesEqual compares two tries tuple-by-tuple with exact annotations.
func triesEqual(a, b *trie.Trie) bool {
	if a.Arity != b.Arity || a.Cardinality() != b.Cardinality() {
		return false
	}
	if a.Arity == 0 {
		return a.Scalar == b.Scalar
	}
	equal := true
	type entry struct {
		tp  []uint32
		ann float64
	}
	var bs []entry
	b.ForEachTuple(func(tp []uint32, ann float64) {
		bs = append(bs, entry{append([]uint32(nil), tp...), ann})
	})
	i := 0
	a.ForEachTuple(func(tp []uint32, ann float64) {
		if !equal || i >= len(bs) {
			equal = false
			return
		}
		e := bs[i]
		i++
		if ann != e.ann && !(math.IsNaN(ann) && math.IsNaN(e.ann)) {
			equal = false
			return
		}
		for k := range tp {
			if tp[k] != e.tp[k] {
				equal = false
				return
			}
		}
	})
	return equal
}
