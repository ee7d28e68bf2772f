package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"emptyheaded/internal/datalog"
	"emptyheaded/internal/ghd"
	"emptyheaded/internal/graph"
	"emptyheaded/internal/hypergraph"
	"emptyheaded/internal/semiring"
)

// Plan is a compiled physical plan for one rule. It is a function of the
// rule, the options and the schema (arity, annotation, semiring) of the
// relations the body reads — never of their contents: the optimizer
// minimises fractional hypertree width, a property of the query
// hypergraph alone (§3.2). A plan is immutable once Compile returns: a
// run keeps what it takes from its database and what it decides from the
// data in a run of its own, so any number of executions share one plan.
type Plan struct {
	Rule *datalog.Rule
	GHD  *ghd.GHD
	// AttrOrder is the global attribute order (§3.2).
	AttrOrder []string
	Root      *BagPlan
	// Agg describes the rule's aggregation (zero value when the head is
	// un-annotated).
	Agg AggInfo
	// Boolean marks a plan run under the Boolean semiring: its bags compute
	// sets, so no annotation multiplies in and trailing eliminated levels
	// only witness existence. A rule without an aggregate is Boolean, and
	// so is COUNT(v), planned as the listing of (head, v) that Run counts
	// per head tuple (docs/LANGUAGE.md).
	Boolean bool
	// Assembly is non-nil when head variables span multiple bags: a final
	// join of the materialized bag results replaces the classical
	// top-down Yannakakis pass.
	Assembly *BagPlan
	opts     Options
	// consts lists every atom's selection constants as the query wrote
	// them, in plan order; a run encodes them under its dictionary (see
	// AtomRef.constAt).
	consts []*datalog.Const
}

// AggInfo captures the semiring aggregation of a rule: Op is its
// aggregate's, or SUM for a constant expression such as y=1.
type AggInfo struct {
	Present bool
	Op      semiring.Op
}

// AtomRef binds one body atom (or child bag result) to a trie index.
type AtomRef struct {
	// SemijoinOnly suppresses annotation collection: in spanning plans
	// child results restrict their parent bag but their semiring values
	// are multiplied exactly once, in the assembly join; and a body atom
	// an earlier bag already joins (a selection bag grafted without
	// pushdown repeats its target's atom) restricts this bag but
	// multiplies in there.
	SemijoinOnly bool
	// Rel is the relation name ("@bag<i>" for child results).
	Rel string
	// Attrs are the global attribute names per trie level, in index
	// order; constant positions use the synthetic name "".
	Attrs []string
	// Perm maps trie level → original column of the relation.
	Perm []int
	// consts are the selection constants (§B.1) bound at the atom's
	// leading trie levels — constant columns sort before variable ones, so
	// level i < len(consts) is bound to consts[i]. A run's codes for them
	// start at constAt (see Plan.consts).
	consts  []*datalog.Const
	constAt int
	// Annotated relations contribute their annotation (⊗) when fully
	// bound, unless the plan is Boolean (see Plan.multiplies).
	Annotated bool
	Op        semiring.Op
	// LastLevel is the deepest non-constant level (where the atom's
	// annotation is collected); -1 when the atom is all constants.
	LastLevel int

	child *BagPlan // non-nil for "@bag" atoms
}

// BagPlan is the physical plan of one GHD bag: a Generic-Join loop nest.
type BagPlan struct {
	ID int
	// Attrs is the loop-nest order: the bag's variables ordered by the
	// global attribute order.
	Attrs []string
	// Out marks which levels are output (materialized) vs aggregated
	// away.
	Out []bool
	// OutAttrs lists the output attributes in level order.
	OutAttrs []string
	// Atoms participate in the join; children results are included as
	// "@bag" atoms.
	Atoms []*AtomRef
	// Children are executed first (bottom-up Yannakakis).
	Children []*BagPlan
	// ExistsFrom is the first of a Boolean plan's trailing eliminated
	// levels, which only need an existence check; len(Attrs) when none.
	ExistsFrom int
	// DedupOf points at an earlier equivalent bag whose result this bag
	// reuses (Appendix B.2); -1 otherwise.
	DedupOf int

	signature string
}

// Compile builds the physical plan for a parsed rule.
func Compile(db *DB, rule *datalog.Rule, opts Options) (*Plan, error) {
	// 1. Hypergraph: one edge per atom over its variables; atoms with
	// constants become selection edges.
	var edges []hypergraph.Edge
	var selEdges []int
	selectedVars := map[string]bool{}
	for i, atom := range rule.Atoms {
		rel, ok := db.Relation(atom.Pred)
		if !ok {
			return nil, fmt.Errorf("exec: unknown relation %s", atom.Pred)
		}
		if len(atom.Args) != rel.Arity {
			return nil, fmt.Errorf("exec: %s has arity %d, used with %d args",
				atom.Pred, rel.Arity, len(atom.Args))
		}
		var vars []string
		hasConst := false
		seen := map[string]bool{}
		for _, arg := range atom.Args {
			if arg.Var != "" {
				if seen[arg.Var] {
					return nil, fmt.Errorf("exec: repeated variable %s in one atom is unsupported", arg.Var)
				}
				seen[arg.Var] = true
				vars = append(vars, arg.Var)
			} else {
				hasConst = true
			}
		}
		edges = append(edges, hypergraph.Edge{
			Name: fmt.Sprintf("%s#%d", atom.Pred, i),
			Rel:  atom.Pred,
			Vars: vars,
		})
		if hasConst {
			selEdges = append(selEdges, i)
			for _, v := range vars {
				selectedVars[v] = true
			}
		}
	}
	h := hypergraph.New(edges)

	// 2. GHD.
	g := ghd.Decompose(h, ghd.Options{
		SingleBag:      opts.SingleBag,
		SelectionEdges: selEdges,
		NoPushdown:     opts.NoPushdown,
	})
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("exec: optimizer produced invalid GHD: %w", err)
	}

	// 3. Global attribute order (§3.2): pre-order GHD traversal,
	// selection-bound variables first within each bag (App. B.1).
	order := g.AttributeOrder(selectedVars)

	p := &Plan{Rule: rule, GHD: g, AttrOrder: order, opts: opts}

	// 4. The plan's semiring (docs/LANGUAGE.md). A rule without an
	// aggregate, or with a constant expression (y=1), computes a set.
	// COUNT(*), SUM, MIN and MAX fold multiplicity. COUNT(v) is the set of
	// (head, v), counted per head tuple by Run — unless head and v cover
	// every body variable: then each binding is a distinct (head, v), and
	// COUNT(v) is COUNT(*).
	head := rule.Head.Vars
	p.Boolean = true
	if rule.Assign != nil {
		p.Agg = AggInfo{Present: true, Op: semiring.Sum}
		if agg := datalog.FindAgg(rule.Assign.Expr); agg != nil {
			op, err := semiring.ParseOp(agg.Op)
			if err != nil {
				return nil, err
			}
			p.Agg.Op = op
			listed := append(slices.Clone(head), agg.Arg)
			p.Boolean = op == semiring.Count && agg.Arg != "*" &&
				slices.ContainsFunc(rule.Vars(), func(v string) bool { return !slices.Contains(listed, v) })
			if p.Boolean {
				head = listed
			}
		}
	}

	// 5. Bag plans, bottom-up.
	headVars := map[string]bool{}
	for _, v := range head {
		headVars[v] = true
	}
	// Spanning plans: head variables outside the root bag mean the
	// FAQ-style fold up the tree cannot produce the result directly
	// (matrix multiplication C(i,k) over bags A(i,j), B(j,k) is the
	// canonical case). Bags then keep their join keys, children join as
	// semijoins, and the final assembly performs the ⊗/⊕ aggregation.
	spanning := slices.ContainsFunc(head, func(v string) bool { return !slices.Contains(g.Root.Vars, v) })
	nextID := 0
	sigs := map[string]int{}
	joined := make([]bool, len(rule.Atoms))
	var build func(b *ghd.Bag, parent *ghd.Bag) (*BagPlan, error)
	build = func(b *ghd.Bag, parent *ghd.Bag) (*BagPlan, error) {
		bp := &BagPlan{ID: nextID, DedupOf: -1}
		nextID++
		// Output attrs: head vars in χ, plus vars shared with the parent.
		// Spanning plans additionally keep variables shared with children:
		// the final assembly join needs those join keys, whereas other
		// plans fold children into annotations.
		need := map[string]bool{}
		for _, v := range b.Vars {
			if headVars[v] {
				need[v] = true
			}
			if parent != nil && slices.Contains(parent.Vars, v) {
				need[v] = true
			}
			if spanning {
				for _, cb := range b.Children {
					if slices.Contains(cb.Vars, v) {
						need[v] = true
					}
				}
			}
		}
		// Loop-nest order: bag vars sorted by global attribute order.
		bp.Attrs = sortByOrder(b.Vars, order)
		for _, v := range bp.Attrs {
			bp.Out = append(bp.Out, need[v])
			if need[v] {
				bp.OutAttrs = append(bp.OutAttrs, v)
			}
		}
		// Atoms.
		for _, ei := range b.Edges {
			ar, err := p.atomRef(db, rule.Atoms[ei], bp.Attrs)
			if err != nil {
				return nil, err
			}
			ar.SemijoinOnly = joined[ei]
			joined[ei] = true
			bp.Atoms = append(bp.Atoms, ar)
		}
		// Children first; their results join as "@bag" atoms.
		for _, cb := range b.Children {
			cp, err := build(cb, b)
			if err != nil {
				return nil, err
			}
			bp.Children = append(bp.Children, cp)
			ca := p.childAtom(cp)
			ca.SemijoinOnly = spanning
			bp.Atoms = append(bp.Atoms, ca)
		}
		p.finishLevels(bp)
		// Redundant-bag elimination (App. B.2).
		bp.signature = bp.sign()
		if !opts.NoBagDedup {
			if prev, ok := sigs[bp.signature]; ok {
				bp.DedupOf = prev
			} else {
				sigs[bp.signature] = bp.ID
			}
		}
		return bp, nil
	}
	root, err := build(g.Root, nil)
	if err != nil {
		return nil, err
	}
	p.Root = root

	// 6. Top-down pass / final assembly: needed only when the plan spans
	// (App. B.2 "we can also eliminate the top-down pass if all the
	// attributes appearing in the result also appear in the root node");
	// the assembly performs the grouped ⊗/⊕ fold over the bag results.
	if spanning {
		p.Assembly = p.assemblyPlan(root, head, order)
	}
	return p, nil
}

// sign renders everything a bag's result depends on, with variables named
// by their loop-nest level: per atom its relation (a child result by the
// child's signature), argument positions, selection constants and levels;
// the output levels and ExistsFrom. Two bags of one plan with
// equal signatures produce the same result trie (App. B.2).
func (bp *BagPlan) sign() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v %d", bp.Out, bp.ExistsFrom)
	for _, a := range bp.Atoms {
		rel := a.Rel
		if a.child != nil {
			rel = "{" + a.child.signature + "}"
		}
		fmt.Fprintf(&sb, " %s%v%t", rel, a.Perm, a.SemijoinOnly)
		for i, v := range a.Attrs {
			if v == "" {
				fmt.Fprintf(&sb, " %+v", *a.consts[i]) // constants lead: level i holds consts[i]
			} else {
				fmt.Fprintf(&sb, " %d", slices.Index(bp.Attrs, v))
			}
		}
	}
	return sb.String()
}

func sortByOrder(vars []string, order []string) []string {
	pos := map[string]int{}
	for i, v := range order {
		pos[v] = i
	}
	out := append([]string(nil), vars...)
	sort.Slice(out, func(i, j int) bool { return pos[out[i]] < pos[out[j]] })
	return out
}

// atomRef builds the index binding for one body atom under the bag's
// attribute order: constant columns first (pre-descended, App. B.1
// "pushing down selections within a node"), then variable columns in
// loop-nest order. Each constant is encoded under db's dictionary once,
// so a constant outside it fails here.
func (p *Plan) atomRef(db *DB, atom *datalog.Atom, bagAttrs []string) (*AtomRef, error) {
	rel, _ := db.Relation(atom.Pred)
	pos := map[string]int{}
	for i, v := range bagAttrs {
		pos[v] = i
	}
	type col struct {
		orig    int
		v       string
		c       *datalog.Const
		sortKey int
	}
	var cols []col
	for i, arg := range atom.Args {
		cl := col{orig: i, v: arg.Var, c: arg.Const}
		if arg.Const != nil {
			cl.sortKey = -1 // constants first
		} else {
			k, ok := pos[arg.Var]
			if !ok {
				return nil, fmt.Errorf("exec: atom %s var %s outside bag attrs %v",
					atom.Pred, arg.Var, bagAttrs)
			}
			cl.sortKey = k
		}
		cols = append(cols, cl)
	}
	sort.SliceStable(cols, func(i, j int) bool { return cols[i].sortKey < cols[j].sortKey })
	ar := &AtomRef{
		Rel:       atom.Pred,
		Annotated: rel.Annotated,
		Op:        rel.Op,
		LastLevel: -1,
		constAt:   len(p.consts),
	}
	dict := db.Dict()
	for lvl, cl := range cols {
		ar.Perm = append(ar.Perm, cl.orig)
		if cl.c != nil {
			if _, err := EncodeConst(dict, cl.c); err != nil {
				return nil, err
			}
			ar.Attrs = append(ar.Attrs, "")
			ar.consts = append(ar.consts, cl.c)
		} else {
			ar.Attrs = append(ar.Attrs, cl.v)
			ar.LastLevel = lvl
		}
	}
	p.consts = append(p.consts, ar.consts...)
	return ar, nil
}

// EncodeConst maps a query constant to its dictionary code, the one
// encoding of constants: the planner's, a run's and Why's. String
// constants name original vertex identifiers; numbers are used directly
// when no dictionary is attached (dict nil).
func EncodeConst(dict *graph.Dictionary, c *datalog.Const) (uint32, error) {
	var orig int64
	if c.IsString {
		var v int64
		if _, err := fmt.Sscanf(c.Str, "%d", &v); err != nil {
			return 0, fmt.Errorf("exec: non-numeric constant %q", c.Str)
		}
		orig = v
	} else {
		orig = int64(c.Num)
	}
	if dict != nil {
		code, ok := dict.Lookup(orig)
		if !ok {
			return 0, fmt.Errorf("exec: constant %d not in dictionary", orig)
		}
		return code, nil
	}
	return uint32(orig), nil
}

// childAtom wraps a materialized child bag as an atom of its parent,
// annotated unless the plan computes sets.
func (p *Plan) childAtom(cp *BagPlan) *AtomRef {
	ar := &AtomRef{
		Rel:       fmt.Sprintf("@bag%d", cp.ID),
		Annotated: !p.Boolean,
		LastLevel: len(cp.OutAttrs) - 1,
		child:     cp,
	}
	for i, v := range cp.OutAttrs {
		ar.Attrs = append(ar.Attrs, v)
		ar.Perm = append(ar.Perm, i)
	}
	return ar
}

// finishLevels sets ExistsFrom: in a Boolean plan the trailing
// eliminated levels only witness that a binding extends to them.
func (p *Plan) finishLevels(bp *BagPlan) {
	bp.ExistsFrom = len(bp.Attrs)
	for p.Boolean && bp.ExistsFrom > 0 && !bp.Out[bp.ExistsFrom-1] {
		bp.ExistsFrom--
	}
}

// levelOf maps an atom trie level to its bag loop-nest level; -1 for a
// constant's level ("" is no attribute).
func levelOf(bp *BagPlan, a *AtomRef, atomLevel int) int {
	return slices.Index(bp.Attrs, a.Attrs[atomLevel])
}

// assemblyPlan joins the materialized bag results to produce the full
// output listing (replacing the classical top-down pass).
// The loop nest iterates every attribute any bag materialized — join keys
// included — and projects the output to the head variables.
func (p *Plan) assemblyPlan(root *BagPlan, headVars []string, order []string) *BagPlan {
	var bags []*BagPlan
	var collect func(bp *BagPlan)
	collect = func(bp *BagPlan) {
		bags = append(bags, bp)
		for _, c := range bp.Children {
			collect(c)
		}
	}
	collect(root)
	isHead := map[string]bool{}
	for _, v := range headVars {
		isHead[v] = true
	}
	attrSet := map[string]bool{}
	var all []string
	for _, bp := range bags {
		for _, v := range bp.OutAttrs {
			if !attrSet[v] {
				attrSet[v] = true
				all = append(all, v)
			}
		}
	}
	attrs := sortByOrder(all, order)
	ap := &BagPlan{ID: -1, Attrs: attrs, DedupOf: -1}
	for _, v := range attrs {
		out := isHead[v]
		ap.Out = append(ap.Out, out)
		if out {
			ap.OutAttrs = append(ap.OutAttrs, v)
		}
	}
	for _, bp := range bags {
		ap.Atoms = append(ap.Atoms, p.childAtom(bp))
	}
	p.finishLevels(ap)
	return ap
}
