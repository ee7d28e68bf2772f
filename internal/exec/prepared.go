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
// execution takes (Prepared.bind): a plan whose schema no longer fits the
// database it is about to run on is derived again, for that rule alone.
//
// A Prepared is safe for concurrent Run calls: they share its plans, which
// nothing writes after Compile, and each keeps its own state (see run).
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
	res, err := p.execute(db, rp)
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

// bind returns the plan rule i runs on db: the kept plan when db's schema
// is the one it was derived for, else a newly derived one, which the slot
// keeps from then on. Deriving again is also what reports why a plan does
// not fit: an unknown relation and an arity mismatch are Compile's
// errors, whether met at Prepare or here. A constant outside db's
// dictionary fails the run with the same error, from the same encoder.
func (pr *Prepared) bind(db *DB, i int) (*Plan, error) {
	slot := &pr.plans[i]
	if kept := slot.Load(); kept != nil && kept.Root.fits(db) {
		return kept, nil
	}
	p, err := Compile(db, pr.Prog.Rules[i], pr.opts)
	if err != nil {
		return nil, err
	}
	slot.Store(p)
	return p, nil
}

// fits reports whether db holds every relation the bag tree below bp
// reads with the arity, annotation and semiring its plan was derived for.
// It reads the plan and writes nothing.
func (bp *BagPlan) fits(db *DB) bool {
	for _, a := range bp.Atoms {
		if a.child != nil {
			continue // a child bag: its own atoms are checked below
		}
		rel, ok := db.Relation(a.Rel)
		if !ok || rel.Arity != len(a.Perm) || rel.Annotated != a.Annotated || rel.Op != a.Op {
			return false
		}
	}
	for _, c := range bp.Children {
		if !c.fits(db) {
			return false
		}
	}
	return true
}
