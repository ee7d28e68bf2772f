package exec

import (
	"context"
	"fmt"
	"sync/atomic"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/trace"
)

// Prepared is a reusable compiled query: the parsed program, its rule
// groups, and one plan slot per rule. Preparing once amortizes parsing and
// GHD optimization across executions, the way EmptyHeaded's original
// compiler amortizes code generation across runs. A plan is a function of
// its rule, the options and the schema of the relations it reads (see
// Plan), so a slot is filled the first time its rule executes — the first
// group's plain rule at Prepare — and kept: no load, update, restore or
// fixpoint iteration
// invalidates it. The one staleness rule is the bind step every
// execution takes (Plan.Clone): a plan that no longer fits the database it
// is about to run on is derived again, for that rule alone.
//
// A Prepared is safe for concurrent Run calls: each run executes clones.
type Prepared struct {
	Prog   *datalog.Program
	opts   Options
	groups []ruleGroup
	plans  []atomic.Pointer[Plan] // aligned with Prog.Rules
}

// ruleGroup is a maximal run of consecutive rules sharing a head name, as
// indexes into Prog.Rules: one plain rule (rec < 0), or a base rule and
// the starred rule that iterates on it (§3.3 "Recursion").
type ruleGroup struct{ base, rec int }

// Prepare parses nothing — it groups an already parsed program's rules
// and derives the plan of the first rule to execute against db — the
// first group's plain rule, wherever a starred rule is written — so a
// single-rule program with an unknown relation, a wrong arity or a
// constant outside the dictionary fails here. Every other rule reads a
// head that an earlier rule or iteration produces; its plan is derived
// when that relation exists, on first execution.
func Prepare(db *DB, prog *datalog.Program, opts Options) (*Prepared, error) {
	if len(prog.Rules) == 0 {
		return nil, fmt.Errorf("exec: empty program")
	}
	pr := &Prepared{Prog: prog, opts: opts, plans: make([]atomic.Pointer[Plan], len(prog.Rules))}
	for i := 0; i < len(prog.Rules); {
		j := i + 1
		for j < len(prog.Rules) && prog.Rules[j].Head.Name == prog.Rules[i].Head.Name {
			j++
		}
		g, err := groupRules(prog.Rules, i, j)
		if err != nil {
			return nil, err
		}
		pr.groups = append(pr.groups, g)
		i = j
	}
	if _, err := pr.bind(db, pr.groups[0].base); err != nil {
		return nil, err
	}
	return pr, nil
}

// groupRules classifies rules[i:j], which share a head name.
func groupRules(rules []*datalog.Rule, i, j int) (ruleGroup, error) {
	g := ruleGroup{base: -1, rec: -1}
	plain, starred := 0, 0
	for k := i; k < j; k++ {
		if rules[k].Head.Recursive {
			g.rec = k
			starred++
		} else {
			g.base = k
			plain++
		}
	}
	if starred == 0 && plain != 1 {
		return g, fmt.Errorf("exec: %d non-recursive rules for head %s (union heads unsupported)",
			plain, rules[i].Head.Name)
	}
	if starred > 0 && (starred != 1 || plain != 1) {
		return g, fmt.Errorf("exec: recursion requires exactly one base and one starred rule for %s",
			rules[i].Head.Name)
	}
	return g, nil
}

// HasPlan reports whether the program is a single rule — non-recursive,
// since a lone starred rule does not prepare: the shape whose Result
// carries the rule's Plan and, under RunParams.Collect, its Stats.
func (pr *Prepared) HasPlan() bool { return len(pr.Prog.Rules) == 1 }

// Run executes the prepared query against db — typically a Fork of the
// database the query was prepared on, so intermediate head relations stay
// session-local. Every group's head relation is registered in db.
func (pr *Prepared) Run(db *DB) (*Result, error) {
	return pr.RunWith(db, RunParams{})
}

// RunParams carries what one execution is given and a plan never holds:
// its row budget, its context and its observability.
type RunParams struct {
	// Limit pushes a row budget into listing execution: the final listing
	// bag stops its loop nest cooperatively once Limit distinct output
	// tuples have been emitted (Result.Truncated reports the early stop),
	// instead of materializing the full join. The budget counts
	// post-deduplication tuples even when the listing projects variables
	// away, so a limited result holds at least Limit distinct tuples
	// whenever the full result has that many (workers may overshoot by
	// the tuples in flight when the stop latches). It applies only to
	// un-aggregated rules; aggregates execute in full. 0 means no limit.
	Limit int
	// Collect enables the EXPLAIN ANALYZE counters; the run's ExecStats
	// lands in Result.Stats. The counters describe one plan's bags, so
	// programs of several rules collect nothing (see HasPlan).
	Collect bool
	// Trace, when non-nil, receives one span per executed bag plus the
	// assembly join, for every rule and the first tracedIters iterations
	// of a fixpoint.
	Trace *trace.Trace
	// Ctx, when non-nil, cancels execution cooperatively: a cancelled
	// context (client disconnect) or spent context deadline trips the
	// loop nest's stop flag at the next per-value check, and the run
	// returns ErrCanceled or ErrTimeout accordingly.
	Ctx context.Context
}

// RunWith executes the prepared query with per-run parameters, group by
// group, registering each head relation in db so later rules (and the
// caller) can use it. The result of the final group is returned.
func (pr *Prepared) RunWith(db *DB, rp RunParams) (*Result, error) {
	rp.Collect = rp.Collect && pr.HasPlan()
	var last *Result
	for gi, g := range pr.groups {
		// Limit pushdown only applies to a final plain rule: intermediate
		// head relations feed later rules and recursion rounds feed each
		// other, so both must materialize fully.
		grp := rp
		if gi < len(pr.groups)-1 || g.rec >= 0 {
			grp.Limit = 0
		}
		var res *Result
		var err error
		if g.rec < 0 {
			res, err = pr.runRule(db, g.base, grp)
		} else {
			res, err = pr.runRecursive(db, g, grp)
		}
		if err != nil {
			return nil, err
		}
		db.AddTrie(res.Name, res.Trie)
		last = res
	}
	return last, nil
}

// runRule is the one way a rule executes — a single rule, an intermediate
// or base rule, the starred rule on every fixpoint iteration: bind the
// rule's plan to db, run the loop nest, apply the annotation expression
// to the raw semiring fold.
func (pr *Prepared) runRule(db *DB, i int, rp RunParams) (*Result, error) {
	p, err := pr.bind(db, i)
	if err != nil {
		return nil, err
	}
	p.limit, p.ctx, p.tr = rp.Limit, rp.Ctx, rp.Trace
	if rp.Collect {
		p.stats = &ExecStats{}
	}
	res, err := p.Run()
	if err != nil {
		return nil, err
	}
	if p.Rule.Assign != nil {
		if err := applyExpr(db, res.Trie, p.Rule.Assign.Expr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// bind returns a runnable plan for rule i bound to db: a clone of the
// kept plan, or a newly derived one when the slot is empty or its plan
// does not fit db. Deriving again is also what reports why it does not: an
// unknown relation, an arity mismatch and a constant outside the
// dictionary are Compile's errors, whether met at Prepare or here.
func (pr *Prepared) bind(db *DB, i int) (*Plan, error) {
	slot := &pr.plans[i]
	if kept := slot.Load(); kept != nil {
		if p, ok := kept.Clone(db); ok {
			return p, nil
		}
	}
	// What Compile returns is bound to db as Compile saw it and runs as it
	// is — there is no second check for a concurrent load to fail. The slot
	// keeps an unbound copy: a kept plan is never executed (execution
	// materializes bag results into the tree) and outlives db, often a
	// per-request fork, whose relations it must not pin.
	derived, err := Compile(db, pr.Prog.Rules[i], pr.opts)
	if err != nil {
		return nil, err
	}
	kept, _ := derived.Clone(nil)
	slot.Store(kept)
	return derived, nil
}

// Clone binds a compiled plan to db and returns an independently runnable
// copy: the bag tree is deep-copied (execution materializes bag results
// into the tree), the rule/GHD/attribute metadata is shared, the per-run
// state is fresh, and every selection constant is re-encoded under db's
// dictionary. It reports false when the plan does not fit db — a body
// relation is absent or has another arity, annotation or semiring than
// the plan was derived for, or a constant is not in the dictionary. A nil
// db gives an unbound copy, to keep rather than run.
func (p *Plan) Clone(db *DB) (*Plan, bool) {
	np := *p
	np.db = db
	np.limit = 0
	np.ctx = nil
	np.stop = nil
	np.truncated = false
	np.stats = nil
	np.tr = nil
	b := binder{db: db, bags: map[*BagPlan]*BagPlan{}, fits: true}
	np.Root = b.bag(p.Root)
	np.Assembly = b.bag(p.Assembly)
	return &np, b.fits
}

// binder carries one Clone: bags keeps sharing intact (assembly atoms
// reference bags of the main tree, dedup'd bags reference earlier ones).
type binder struct {
	db   *DB
	bags map[*BagPlan]*BagPlan
	fits bool
}

// bag deep-copies a bag plan, binding its relation atoms to b.db.
func (b *binder) bag(bp *BagPlan) *BagPlan {
	if bp == nil {
		return nil
	}
	if c, ok := b.bags[bp]; ok {
		return c
	}
	c := *bp
	c.result, c.span, c.ran = nil, nil, false
	b.bags[bp] = &c
	if bp.Children != nil {
		c.Children = make([]*BagPlan, len(bp.Children))
		for i, ch := range bp.Children {
			c.Children[i] = b.bag(ch)
		}
	}
	if bp.Atoms != nil {
		c.Atoms = make([]*AtomRef, len(bp.Atoms))
		for i, a := range bp.Atoms {
			na := *a
			if a.child != nil {
				na.child = b.bag(a.child)
			} else {
				b.atom(&na)
			}
			c.Atoms[i] = &na
		}
	}
	return &c
}

// atom checks a copied relation atom against b.db's schema and gives it
// its own constants, encoded under b.db's dictionary.
func (b *binder) atom(a *AtomRef) {
	if b.db == nil {
		return
	}
	rel, ok := b.db.Relation(a.Rel)
	if !ok || rel.Arity != len(a.Perm) || rel.Annotated != a.Annotated || rel.Op != a.Op {
		b.fits = false
		return
	}
	if len(a.consts) == 0 {
		return
	}
	dict := b.db.Dict()
	consts := make([]selConst, len(a.consts))
	for i, k := range a.consts {
		code, err := encodeConst(dict, k.src)
		if err != nil {
			b.fits = false
			return
		}
		consts[i] = selConst{src: k.src, code: code}
	}
	a.consts = consts
}
