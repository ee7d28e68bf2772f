package exec

import (
	"context"
	"time"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/trace"
)

// Prepared is a reusable compiled query: the parsed program plus, for
// single-rule non-recursive programs (the common served shape — every
// pattern query of Table 1), the fully compiled physical plan. Preparing
// once amortizes parsing and GHD optimization across executions, the way
// EmptyHeaded's original compiler amortizes code generation across runs.
// A Prepared is immutable and safe for concurrent Run calls: each run
// clones the plan's mutable execution state.
type Prepared struct {
	Prog *datalog.Program
	opts Options
	plan *Plan
}

// Prepare parses nothing — it compiles an already parsed program against
// db. Single-rule non-recursive programs get a cached physical plan;
// multi-rule and recursive programs keep only the parse (their later
// rules compile against relations the earlier rules produce, so their
// GHDs cannot be pinned ahead of time).
func Prepare(db *DB, prog *datalog.Program, opts Options) (*Prepared, error) {
	pr := &Prepared{Prog: prog, opts: opts}
	if len(prog.Rules) == 1 && !prog.Rules[0].Head.Recursive {
		p, err := Compile(db, prog.Rules[0], opts)
		if err != nil {
			return nil, err
		}
		pr.plan = p
	}
	return pr, nil
}

// HasPlan reports whether executions reuse a compiled physical plan
// (true) or only the parse (false).
func (pr *Prepared) HasPlan() bool { return pr.plan != nil }

// Run executes the prepared query against db — typically a Fork of the
// database the query was prepared on, so intermediate head relations stay
// session-local. The final head relation is registered in db, matching
// RunProgram semantics.
func (pr *Prepared) Run(db *DB) (*Result, error) {
	return pr.RunLimit(db, pr.opts.Limit)
}

// RunLimit executes the prepared query with a per-run listing row budget
// (see Options.Limit); limit 0 runs to completion. The budget is a
// per-execution override, so one cached plan serves requests with
// different limits.
func (pr *Prepared) RunLimit(db *DB, limit int) (*Result, error) {
	return pr.RunWith(db, RunParams{Limit: limit})
}

// RunParams carries per-execution observability and limit options.
type RunParams struct {
	// Limit is the listing row budget (0 = run to completion).
	Limit int
	// Collect enables the EXPLAIN ANALYZE counters; the run's ExecStats
	// lands in Result.Stats. Multi-rule and recursive programs execute
	// without a pinned plan and collect nothing.
	Collect bool
	// Trace, when non-nil, receives one span per executed bag plus the
	// assembly join.
	Trace *trace.Trace
	// Ctx cancels execution cooperatively (client disconnect, request
	// deadline — see Options.Ctx); nil runs without a watcher.
	Ctx context.Context
}

// RunWith executes the prepared query with per-run parameters.
func (pr *Prepared) RunWith(db *DB, rp RunParams) (*Result, error) {
	if pr.plan == nil {
		opts := pr.opts
		opts.Limit = rp.Limit
		opts.Ctx = rp.Ctx
		return RunProgram(db, pr.Prog, opts)
	}
	p := pr.plan.Clone(db)
	p.opts.Limit = rp.Limit
	p.opts.Ctx = rp.Ctx
	if rp.Collect {
		p.stats = &ExecStats{}
	}
	p.tr = rp.Trace
	res, err := runCompiled(db, p, pr.plan.Rule)
	if err != nil {
		return nil, err
	}
	db.AddTrie(res.Name, res.Trie)
	return res, nil
}

// Clone returns an independently runnable copy of a compiled plan, bound
// to db: the bag tree is deep-copied (execution materializes bag results
// into the tree), the rule/GHD/attribute metadata is shared. The clone's
// timeout state is fresh.
func (p *Plan) Clone(db *DB) *Plan {
	np := *p
	np.db = db
	np.deadline = time.Time{}
	np.stop = nil
	np.truncated = false
	np.stats = nil
	np.tr = nil
	np.opts.Ctx = nil
	m := map[*BagPlan]*BagPlan{}
	np.Root = cloneBag(p.Root, m)
	np.Assembly = cloneBag(p.Assembly, m)
	return &np
}

// cloneBag deep-copies a bag plan; m keeps sharing intact (assembly atoms
// reference bags of the main tree, dedup'd bags reference earlier ones).
func cloneBag(bp *BagPlan, m map[*BagPlan]*BagPlan) *BagPlan {
	if bp == nil {
		return nil
	}
	if c, ok := m[bp]; ok {
		return c
	}
	c := *bp
	c.result = nil
	m[bp] = &c
	if bp.Children != nil {
		c.Children = make([]*BagPlan, len(bp.Children))
		for i, ch := range bp.Children {
			c.Children[i] = cloneBag(ch, m)
		}
	}
	if bp.Atoms != nil {
		c.Atoms = make([]*AtomRef, len(bp.Atoms))
		for i, a := range bp.Atoms {
			na := *a
			na.child = cloneBag(a.child, m)
			c.Atoms[i] = &na
		}
	}
	return &c
}
