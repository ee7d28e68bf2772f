package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"emptyheaded/internal/fault"
	"emptyheaded/internal/semiring"
	"emptyheaded/internal/set"
	"emptyheaded/internal/trace"
	"emptyheaded/internal/trie"
)

// ErrTimeout is returned when RunParams.Ctx runs out its deadline during
// execution.
var ErrTimeout = errors.New("exec: query timeout exceeded")

// ErrCanceled is returned when RunParams.Ctx is cancelled mid-execution —
// a client that hung up.
var ErrCanceled = errors.New("exec: query canceled")

// ErrExecPanic wraps a panic recovered at an executor boundary: the
// query fails, the process keeps serving.
var ErrExecPanic = errors.New("exec: panic in executor")

// panicError converts a recovered loop-nest panic into an error
// carrying the panic value and stack.
func panicError(r any) error {
	return fmt.Errorf("%w: %v\n%s", ErrExecPanic, r, debug.Stack())
}

// run is one execution of a plan: the database it reads and everything
// the execution owns, so the plan it runs stays as Compile left it.
type run struct {
	p  *Plan
	db *DB
	// limit is the listing row budget (see limitFor) and truncated reports
	// that it stopped the final listing bag early (Result.Truncated).
	limit     int
	truncated bool
	// ctx's end (cancel or deadline) latches stop, which the loop nest
	// checks per candidate value; stop is nil when ctx cannot end.
	ctx  context.Context
	stop *atomic.Bool
	// Observability; both nil on the default path.
	stats *ExecStats
	tr    *trace.Trace
	// results holds each materialized bag result by bag ID, for the bags
	// and the assembly that read it.
	results []*trie.Trie
	facts   runFacts
}

// runFacts is what a run took from its database and decided from its
// data, which EXPLAIN ANALYZE reports: the selection constants' codes
// under its dictionary, aligned with Plan.consts, and per bag what its
// loop nest ran (see bagRun). Plan.Explain fills the same facts from a
// database before any run, with ran false.
type runFacts struct {
	ran   bool
	codes []uint32
	bags  []bagRun // by BagPlan.ID+1: the assembly, then bag 0, 1, …
}

// bagRun is what one bag's run decided: which atoms it read as vectors
// (see vectorAtoms), the range its dense accumulator covered, nil when it
// wrote rows (see accSpanOf), and the kind of its kernel level (see
// kernelLevel), which EXPLAIN names when a kernel ran it.
type bagRun struct {
	vecs []bool
	span *accSpan
	kind levelKind
}

func (f *runFacts) bag(bp *BagPlan) *bagRun { return &f.bags[bp.ID+1] }

// encode maps the plan's selection constants to their codes under db's
// dictionary, failing as Compile fails on the first constant outside it.
func (p *Plan) encode(db *DB) ([]uint32, error) {
	if len(p.consts) == 0 {
		return nil, nil
	}
	dict, codes := db.Dict(), make([]uint32, len(p.consts))
	for i, c := range p.consts {
		code, err := EncodeConst(dict, c)
		if err != nil {
			return nil, err
		}
		codes[i] = code
	}
	return codes, nil
}

// execute runs the plan against db with rp's budget, context and
// observability, and returns the result relation.
func (p *Plan) execute(db *DB, rp RunParams) (*Result, error) {
	r := &run{p: p, db: db, limit: rp.Limit, ctx: rp.Ctx, tr: rp.Trace,
		results: make([]*trie.Trie, p.GHD.Bags),
		facts:   runFacts{ran: true, bags: make([]bagRun, p.GHD.Bags+1)}}
	if rp.Collect {
		r.stats = &ExecStats{}
	}
	var err error
	if r.facts.codes, err = p.encode(db); err != nil {
		return nil, err
	}
	if r.ctx != nil && r.ctx.Done() != nil {
		// The one way a query stops early: the context's end (cancel or
		// deadline) latches a flag the loop nest checks per candidate value.
		flag := new(atomic.Bool)
		r.stop = flag
		unregister := context.AfterFunc(r.ctx, func() { flag.Store(true) })
		defer unregister()
	}
	if err := r.runBag(p.Root); err != nil {
		return nil, err
	}
	out := r.results[p.Root.ID]
	final := p.Root
	if p.Assembly != nil {
		var sp trace.SpanID = -1
		if r.tr != nil {
			sp = r.tr.Begin("assembly")
		}
		t, err := r.execBag(p.Assembly)
		r.tr.End(sp)
		if err != nil {
			return nil, err
		}
		out = t
		final = p.Assembly
	}
	attrs := final.OutAttrs
	switch {
	case p.Boolean && p.Agg.Op == semiring.Count:
		out, attrs = p.countPerHead(out, attrs)
	case !p.Boolean:
		out = dropZeros(out, p.opts.Layout)
	}
	res := &Result{
		Name:      p.Rule.Head.Name,
		Attrs:     attrs,
		Trie:      out,
		Plan:      p,
		Truncated: r.truncated,
		Stats:     r.stats,
		facts:     r.facts,
	}
	return res, nil
}

// countPerHead folds COUNT(v)'s Boolean listing of (head, v) into one
// count per head tuple: each tuple, projected onto the head columns, adds
// 1 under COUNT. With no head variables the count is the listing's
// cardinality.
func (p *Plan) countPerHead(t *trie.Trie, attrs []string) (*trie.Trie, []string) {
	var cols []int
	var head []string
	for i, a := range attrs {
		if slices.Contains(p.Rule.Head.Vars, a) {
			cols, head = append(cols, i), append(head, a)
		}
	}
	if len(cols) == 0 {
		return trie.NewScalar(float64(t.Cardinality()), semiring.Count), nil
	}
	b := trie.NewColumnarBuilder(len(cols), semiring.Count, p.opts.Layout)
	row := make([]uint32, len(cols))
	t.ForEachTuple(func(tp []uint32, _ float64) {
		for i, c := range cols {
			row[i] = tp[c]
		}
		b.AddAnn(1, row...)
	})
	return b.Build(), head
}

// dropZeros removes the tuples of an aggregate's result annotated with
// the semiring's 0, which are not in the relation (docs/LANGUAGE.md): a
// SUM whose bindings cancel, a MIN over +∞. A scalar keeps its value. One
// scan of the leaf annotations finds none in the common case; otherwise
// the trie is rebuilt without them.
func dropZeros(t *trie.Trie, layout *trie.Policy) *trie.Trie {
	zero := t.Op.Zero()
	if t.Arity == 0 || !t.Annotated || !leafHolds(t.Root, t.Arity-1, zero) {
		return t
	}
	b := trie.NewColumnarBuilder(t.Arity, t.Op, layout)
	t.ForEachTuple(func(tp []uint32, ann float64) {
		if ann != zero {
			b.AddAnn(ann, tp...)
		}
	})
	return b.Build()
}

// leafHolds reports whether some leaf annotation below n, depth levels
// above the leaves, equals x.
func leafHolds(n *trie.Node, depth int, x float64) bool {
	if n == nil {
		return false
	}
	if depth == 0 {
		return slices.Contains(n.Ann, x)
	}
	return slices.ContainsFunc(n.Children, func(c *trie.Node) bool { return leafHolds(c, depth-1, x) })
}

// stopped reports that the run's stop flag has latched.
func (r *run) stopped() bool { return r.stop != nil && r.stop.Load() }

// stopErr attributes a latched stop flag to its cause: a cancelled
// context or a spent context deadline.
func (r *run) stopErr() error {
	if r.ctx.Err() == context.Canceled {
		return ErrCanceled
	}
	return fmt.Errorf("%w: request deadline exceeded", ErrTimeout)
}

// resolveID follows dedup links.
func (bp *BagPlan) resolveID() int {
	if bp.DedupOf >= 0 {
		return bp.DedupOf
	}
	return bp.ID
}

// runBag executes the bag tree bottom-up (the first Yannakakis pass,
// §3.3.2 "Across Nodes"), sharing results between equivalent bags
// (App. B.2).
func (r *run) runBag(bp *BagPlan) error {
	for _, c := range bp.Children {
		if err := r.runBag(c); err != nil {
			return err
		}
	}
	if bp.DedupOf >= 0 {
		if r.results[bp.DedupOf] == nil {
			return fmt.Errorf("exec: dedup target bag %d not yet computed", bp.DedupOf)
		}
		if r.stats != nil {
			r.stats.Bags = append(r.stats.Bags, &BagStats{
				BagID: bp.ID, Attrs: bp.Attrs, OutAttrs: bp.OutAttrs,
				Reused: true, ReusedFrom: bp.DedupOf,
			})
		}
		return nil
	}
	var sp trace.SpanID = -1
	if r.tr != nil {
		sp = r.tr.Begin(fmt.Sprintf("bag %d", bp.ID))
	}
	t, err := r.execBag(bp)
	r.tr.End(sp)
	if err != nil {
		return err
	}
	r.results[bp.ID] = t
	return nil
}

// bagExec is one bag's loop nest: execBag writes it before any worker
// starts, and every worker then shares it read-only.
type bagExec struct {
	p  *Plan
	r  *run
	bp *BagPlan
	// levels is the loop nest's table, one entry per bag level: every plan
	// fact a worker needs, decided once here instead of per call or value.
	levels []level
	// nodes holds every atom's cursor template, one node stack per atom
	// with its selection constants pre-descended: slot base+l is the trie
	// node whose Set binds atom level l. Each worker descends a copy.
	nodes []*trie.Node
	op    semiring.Op
	// kern executes every pairwise set operation of the loop nest off the
	// analyze path (see worker.kernelAt).
	kern *set.Kernel
	// scalarFactor is the ⊗-product of zero-arity participants (scalar
	// child bags from disconnected components, e.g. the second triangle
	// of the Barbell-selection plan).
	scalarFactor float64
	// lim is non-nil when this bag is the final listing bag of a limited
	// query (see run.limitFor); every worker books rows against it.
	lim *limitState
	// span is non-nil when the bag folds its one output attribute into
	// per-worker dense accumulators instead of emitting rows. runParallel
	// decides it (see accSpanOf) from the atoms' relations, nil for a
	// child bag's result, and their indexes.
	span  *accSpan
	rels  []*Relation
	tries []*trie.Trie
	// fused is a gather level's vectors ⊗-multiplied into one, when it
	// has several and its incoming annotation is the semiring's One (see
	// gatherTail).
	fused vector
	// q is Q of a count scan at level 0, intersected once per bag run
	// before the workers start (see countScan); nil otherwise.
	q *set.Set
}

// accSpan is the value range [lo, hi] of a bag's one output level that a
// dense accumulator covers, one slot per value.
type accSpan struct{ lo, hi uint32 }

func (s *accSpan) size() int { return int(s.hi-s.lo) + 1 }

// mayAccumulate reports whether bp may fold its result into dense
// accumulators: it has one output attribute and is not a limited
// listing. Whether it does is decided at run (see accSpanOf).
func (r *run) mayAccumulate(bp *BagPlan) bool {
	return len(bp.OutAttrs) == 1 && r.limitFor(bp) == 0
}

// outputForm names how bp's result is written, as EXPLAIN shows it:
// "dense x[lo..hi]" for accumulators over x's span, "rows" for emitted
// rows, "" for a scalar. Before a run, a bag that may accumulate says
// so: its span comes from the data, and a plan depends on none.
func outputForm(bp *BagPlan, f *runFacts) string {
	switch span := f.bag(bp).span; {
	case len(bp.OutAttrs) == 0:
		return ""
	case span != nil:
		return fmt.Sprintf("dense %s[%d..%d]", bp.OutAttrs[0], span.lo, span.hi)
	case !f.ran && len(bp.OutAttrs) == 1:
		return "dense " + bp.OutAttrs[0] + " or rows, by its span at run"
	}
	return "rows"
}

// denseFactor bounds a dense accumulator: at most this many slots per
// tuple the loop nest may write from, so a sparse or hostile value range
// (0 and 2³²−2) keeps rows instead of allocating a slot per value in
// between.
const denseFactor = 8

// accSpanOf decides the bag's output form once its first level's
// candidates are known. A bag that may accumulate (see mayAccumulate)
// does so when its output values span at most denseFactor slots per
// tuple the loop may write from. At level 0 the span is first's range
// and the tuples are first's candidates. At an inner level the span is
// the intersection of the column ranges of the base relations that bind
// the level (see Relation.colSpan), and the tuples are the fewest any of
// them reaches below first (see reach); a level only child bags' results
// bind keeps rows. nil means rows.
func (ex *bagExec) accSpanOf(first *set.Set) *accSpan {
	bp := ex.bp
	if !ex.r.mayAccumulate(bp) || first.IsEmpty() {
		return nil
	}
	s, n := accSpan{first.Min(), first.Max()}, first.Card()
	if o := slices.Index(bp.Out, true); o > 0 {
		s, n = accSpan{0, math.MaxUint32}, 0
		for i, a := range bp.Atoms {
			for al := range a.Attrs {
				if ex.rels[i] == nil || levelOf(bp, a, al) != o {
					continue // a child's result, or another level
				}
				cs, ok := ex.rels[i].colSpan(a.Perm[al])
				if !ok {
					return nil
				}
				s.lo, s.hi = max(s.lo, cs.lo), min(s.hi, cs.hi)
				if r := ex.reach(i, first); n == 0 || r < n {
					n = r
				}
			}
		}
	}
	if s.lo > s.hi || uint64(s.hi-s.lo) >= denseFactor*uint64(n) {
		return nil
	}
	return &s
}

// reach estimates how many tuples of atom i the loop nest walks. When
// the atom's first level is the bag's, that is first's candidates times
// the atom's mean fan-out there, so a selective first level (an anchored
// Edge("a",y) ahead of Edge(y,z)) keeps an inner output on rows; it is
// never more than the whole relation, which bounds any other atom.
func (ex *bagExec) reach(i int, first *set.Set) int {
	card := ex.rels[i].Cardinality()
	if levelOf(ex.bp, ex.bp.Atoms[i], 0) != 0 {
		return card
	}
	roots := max(ex.tries[i].Root.Set.Card(), 1)
	return min(card, first.Card()*((card+roots-1)/roots))
}

// level is one bag level of the loop nest.
type level struct {
	refs []curRef // the atom levels intersected here
	// binds lists the refs binding a value acts on, those that descend or
	// annotate: a leaf without annotation needs no rank.
	binds []curRef
	// vecs lists the atoms read as dense vectors here, in atom order: they
	// filter and annotate the candidates refs yields (see vectorAtoms).
	vecs []*vector
	// gvec is the one vector a gather level's kernel reads: the level's
	// only vector or their fused product.
	gvec *vector
	out  int // position in an output row; -1 when eliminated
	kind levelKind
}

// levelKind says what a level does with its candidates.
type levelKind uint8

const (
	kindDescend   levelKind = iota // bind each, run the next level under it
	kindEmit                       // bind each, emit a row: the last output level
	kindFold                       // ⊕-fold them into one emit (see foldTail)
	kindCount                      // emit their count (see countTailOK, countAt)
	kindExists                     // emit once if one extends to a full binding (see witness)
	kindGather                     // a fold by one kernel call (see gatherTail)
	kindScatter                    // an emit into the dense accumulator by one kernel call (see scatterTail)
	kindCountScan                  // the level above a count tail, Q intersected once per call (see countScanTail)
)

// curRef is one atom level intersected at a bag level; slot indexes the
// atom's node stack (see bagExec.nodes) and a worker's copy of it. leaf
// marks the atom's last level, where ann says whether its annotation
// multiplies in; above it, binding a value descends to slot+1.
type curRef struct {
	slot      int
	leaf, ann bool
}

// vector is the dense form of a unary annotated relation whose root set
// is a bitset: its support words and ann[v-base], member v's annotation.
type vector struct {
	base  uint32
	words []uint64
	ann   []float64
}

func newVector(root *trie.Node) *vector {
	s := &root.Set
	vc := &vector{base: s.Min() &^ 63}
	span := s.Max() - vc.base + 1
	vc.words = make([]uint64, (span+63)/64)
	vc.ann = make([]float64, span)
	s.ForEach(func(i int, v uint32) {
		off := v - vc.base
		vc.words[off/64] |= 1 << (off % 64)
		vc.ann[off] = root.Ann[i]
	})
	return vc
}

// at returns member v's annotation; ok is false when v is absent (a value
// below base wraps past the words).
func (vc *vector) at(v uint32) (ann float64, ok bool) {
	off := v - vc.base
	if w := off / 64; w >= uint32(len(vc.words)) || vc.words[w]&(1<<(off%64)) == 0 {
		return 0, false
	}
	return vc.ann[off], true
}

// vectorAtoms marks the atoms of bp read as vectors, not intersected;
// tries[i] is atom i's index (nil if unknown). That takes a unary base
// atom, without selection constant, whose annotation counts, at a level
// where another atom's set depends on outer bindings (so a vector never
// drives iteration: SSSP's level-0 Edge ∩ SSSP stays an intersection),
// with a bitset root (the layout optimizer's density decision); never in
// a Boolean plan, whose existence tails take no annotation. Vectors
// multiply in after the intersected atoms, so one that an annotating
// intersected atom follows at its level stays intersected: ⊗ keeps atom
// order.
func (p *Plan) vectorAtoms(bp *BagPlan, tries []*trie.Trie) []bool {
	dependent := make([]bool, len(bp.Attrs))
	for _, a := range bp.Atoms {
		for al := 1; al < len(a.Attrs); al++ {
			if lvl := levelOf(bp, a, al); lvl >= 0 {
				dependent[lvl] = true
			}
		}
	}
	vec := make([]bool, len(bp.Atoms))
	for i, a := range bp.Atoms {
		t := tries[i]
		vec[i] = a.child == nil && t != nil && t.Arity == 1 && len(a.consts) == 0 &&
			p.multiplies(a) && t.Root.Ann != nil &&
			t.Root.Set.Layout() == set.Bitset && dependent[levelOf(bp, a, 0)]
		if !vec[i] && p.multiplies(a) && a.LastLevel >= 0 {
			for j := range i {
				vec[j] = vec[j] && levelOf(bp, bp.Atoms[j], 0) != levelOf(bp, a, a.LastLevel)
			}
		}
	}
	return vec
}

// multiplies reports whether a's annotation multiplies into its bag: a
// Boolean plan takes none, and a semijoin-only child's is taken in the
// assembly.
func (p *Plan) multiplies(a *AtomRef) bool {
	return a.Annotated && !a.SemijoinOnly && !p.Boolean
}

// limitState is the cooperative row budget shared by all workers of a
// limited listing bag (the limit-pushdown path): hit latches once the
// budget is spent so every loop nest unwinds at its next candidate
// value. When every loop-nest level is an output level each emit is a
// distinct tuple, so a plain counter suffices; listings that project
// variables away can emit the same output tuple many times, so the
// budget counts post-dedup distinct tuples through the seen map —
// a limit:k request yields k distinct tuples whenever k exist, instead
// of stopping after k pre-dedup rows.
type limitState struct {
	limit   int64
	emitted atomic.Int64
	hit     atomic.Bool

	// Distinct mode (nil when emits are already distinct). seen holds the
	// packed output tuples counted so far; it never grows past limit
	// entries, since the hit latch fires when it fills.
	mu   sync.Mutex
	seen map[string]struct{}
}

func (ls *limitState) stopped() bool { return ls != nil && ls.hit.Load() }

// noteRow books one emitted output row against the budget.
func (ls *limitState) noteRow(row []uint32) {
	if ls == nil {
		return
	}
	if ls.seen == nil {
		if ls.emitted.Add(1) >= ls.limit {
			ls.hit.Store(true)
		}
		return
	}
	key := make([]byte, 4*len(row))
	for i, v := range row {
		key[4*i] = byte(v)
		key[4*i+1] = byte(v >> 8)
		key[4*i+2] = byte(v >> 16)
		key[4*i+3] = byte(v >> 24)
	}
	ls.mu.Lock()
	if _, dup := ls.seen[string(key)]; !dup {
		ls.seen[string(key)] = struct{}{}
		if int64(len(ls.seen)) >= ls.limit {
			ls.hit.Store(true)
		}
	}
	ls.mu.Unlock()
}

// execBag runs the generic worst-case optimal join (Algorithm 1) for one
// bag and materializes its output trie. A panic while setting up the
// loop nest is recovered into ErrExecPanic here, a worker's in its run.
func (r *run) execBag(bp *BagPlan) (t *trie.Trie, err error) {
	defer func() {
		if v := recover(); v != nil {
			t, err = nil, panicError(v)
		}
	}()
	p := r.p
	op := p.aggOp()
	ex := &bagExec{p: p, r: r, bp: bp, op: op, kern: set.NewKernel(p.opts.Intersect)}
	ex.levels = make([]level, len(bp.Attrs))
	ex.scalarFactor = op.One()
	var bs *BagStats
	if r.stats != nil {
		bs = &BagStats{BagID: bp.ID, Attrs: bp.Attrs, OutAttrs: bp.OutAttrs,
			Levels: make([]LevelStats, len(bp.Attrs))}
		for i, a := range bp.Attrs {
			bs.Levels[i].Attr = a
		}
		r.stats.Bags = append(r.stats.Bags, bs)
		t0 := time.Now()
		defer func() { bs.WallUS = time.Since(t0).Microseconds() }()
	}
	rels, tries := make([]*Relation, len(bp.Atoms)), make([]*trie.Trie, len(bp.Atoms))
	for i, a := range bp.Atoms {
		if a.child != nil {
			tries[i] = r.results[a.child.resolveID()]
			continue
		}
		rel, ok := r.db.Relation(a.Rel)
		if !ok {
			return nil, fmt.Errorf("exec: relation %s vanished", a.Rel)
		}
		rels[i], tries[i] = rel, rel.Index(a.Perm, p.opts.Layout)
	}
	ex.rels, ex.tries = rels, tries
	fact := r.facts.bag(bp)
	isVec := p.vectorAtoms(bp, tries)
	fact.vecs = isVec
	ex.sizeTables(isVec)
	selectionMiss := false
	for i, a := range bp.Atoms {
		t := tries[i]
		if isVec[i] {
			lv := &ex.levels[levelOf(bp, a, 0)]
			lv.vecs = append(lv.vecs, rels[i].vector(t, p.opts.Layout))
			continue
		}
		if t.Arity == 0 {
			if t.Scalar == op.Zero() {
				// An empty zero-arity participant (a scalar child bag of a
				// disconnected component) empties the bag.
				return ex.emptyResult(), nil
			}
			if !a.SemijoinOnly {
				// Semijoin-only scalar children contribute in the
				// assembly instead (spanning plans).
				ex.scalarFactor = op.Mul(ex.scalarFactor, t.Scalar)
			}
			continue
		}
		base := len(ex.nodes)
		ex.nodes = append(ex.nodes, t.Root)
		ex.nodes = append(ex.nodes, make([]*trie.Node, t.Arity)...)
		for al := range a.Attrs {
			if bl := levelOf(bp, a, al); bl >= 0 {
				// Annotations sit at the trie's last level, which a reused
				// bag result (App. B.2) can place below the atom's.
				leaf := al == a.LastLevel
				ann := leaf && al == t.Arity-1 && t.Annotated && p.multiplies(a)
				r := curRef{slot: base + al, leaf: leaf, ann: ann}
				ex.levels[bl].refs = append(ex.levels[bl].refs, r)
				if !leaf || ann {
					ex.levels[bl].binds = append(ex.levels[bl].binds, r)
				}
			}
		}
		// Pre-descend selection constants (App. B.1: selections are
		// processed first; constant levels sort before variable levels in
		// every atom's index order).
		if !ex.preDescend(a, base) {
			selectionMiss = true
		}
	}
	out := 0
	for lvl := range ex.levels {
		lv := &ex.levels[lvl]
		if len(lv.refs) == 0 {
			return nil, fmt.Errorf("exec: no atom binds attribute %s", bp.Attrs[lvl])
		}
		lv.out = -1
		if bp.Out[lvl] {
			lv.out, out = out, out+1
		}
		switch {
		case lvl >= bp.ExistsFrom:
			lv.kind = kindExists
		case lvl < len(ex.levels)-1:
			lv.kind = kindDescend
		case ex.countTailOK():
			lv.kind = kindCount
		case bp.Out[lvl]:
			lv.kind = kindEmit
		default:
			lv.kind = kindFold
		}
	}
	ex.gatherTail()
	ex.countScanTail()
	if selectionMiss {
		// A selection constant is absent: the bag result is empty.
		if bs != nil {
			bs.SelectionMiss = true
		}
		return ex.emptyResult(), nil
	}
	if len(bp.Attrs) == 0 {
		// All-constant bag: the result is the scalar factor.
		return trie.NewScalar(ex.scalarFactor, op), nil
	}
	if n := r.limitFor(bp); n > 0 {
		ex.lim = &limitState{limit: int64(n)}
		if len(bp.OutAttrs) < len(bp.Attrs) {
			// Projected listing: count distinct output tuples, so the
			// truncated result holds `limit` tuples post-dedup.
			ex.lim.seen = make(map[string]struct{}, n)
		}
	}
	ws, err := ex.runParallel()
	if err != nil {
		return nil, err
	}
	fact.span, fact.kind = ex.span, ex.levels[len(ex.levels)-1].kind
	if k := len(ex.levels) - 2; k >= 0 && ex.levels[k].kind == kindCountScan {
		fact.kind = kindCountScan
	}
	if bs != nil {
		// The pool has drained: fold each worker's counters in once.
		for _, w := range ws {
			for i := range w.lc {
				bs.Levels[i].add(&w.lc[i])
			}
			bs.Emitted += w.emits
		}
	}
	if r.stopped() {
		return nil, r.stopErr()
	}
	if ex.lim.stopped() {
		r.truncated = true
	}
	return ex.materialize(ws), nil
}

// sizeTables allocates the node stacks and every level's refs and binds
// at the sizes execBag fills them to, in one allocation each: the levels
// share one backing array, each level's refs followed by room for its
// binds. Vector atoms and zero-arity participants take no node or ref.
func (ex *bagExec) sizeTables(isVec []bool) {
	bp := ex.bp
	nodes, refs, nref := 0, 0, make([]int, len(ex.levels))
	for i, a := range bp.Atoms {
		if isVec[i] || ex.tries[i].Arity == 0 {
			continue
		}
		nodes += 1 + ex.tries[i].Arity
		for al := range a.Attrs {
			if bl := levelOf(bp, a, al); bl >= 0 {
				nref[bl]++
				refs++
			}
		}
	}
	ex.nodes = make([]*trie.Node, 0, nodes)
	buf := make([]curRef, 2*refs)
	for lvl, n := range nref {
		ex.levels[lvl].refs, ex.levels[lvl].binds = buf[:0:n], buf[n:n:2*n]
		buf = buf[2*n:]
	}
}

// limitFor reports the row budget to push into bp, or 0. Pushdown applies
// only to the bag that produces the final listing (the assembly when
// present, else the root) and only without aggregation; inner bags always
// materialize fully, since their results feed joins. The budget counts
// post-dedup distinct output tuples: when every loop-nest level is an
// output level each emit is distinct and a plain counter suffices; with
// projected-away variables the limitState tracks distinct tuples
// explicitly, so a limit:N request yields N distinct tuples whenever the
// full result has that many.
func (r *run) limitFor(bp *BagPlan) int {
	if r.limit <= 0 || r.p.Agg.Present {
		return 0
	}
	final := r.p.Root
	if r.p.Assembly != nil {
		final = r.p.Assembly
	}
	if bp != final || len(bp.OutAttrs) == 0 {
		return 0
	}
	return r.limit
}

func (p *Plan) aggOp() semiring.Op {
	if p.Agg.Present {
		return p.Agg.Op
	}
	return semiring.Sum
}

// preDescend walks an atom's leading constant levels down its node
// stack at base.
func (ex *bagExec) preDescend(a *AtomRef, base int) bool {
	for al, code := range ex.r.facts.codes[a.constAt : a.constAt+len(a.consts)] {
		n := ex.nodes[base+al]
		if n == nil || !n.Set.Contains(code) {
			return false
		}
		ex.nodes[base+al+1] = n.Child(code)
	}
	return true
}

// countTailOK reports a count-only tail: the final level is eliminated,
// aggregates by multiplicity under SUM/COUNT, and no annotated atom
// contributes there — the triangle-count inner loop (§5.2.1). A Boolean
// plan's eliminated tail is an existence check instead (ExistsFrom).
func (ex *bagExec) countTailOK() bool {
	bp := ex.bp
	last := len(bp.Attrs) - 1
	if last < 0 || bp.Out[last] || ex.op != semiring.Sum && ex.op != semiring.Count {
		return false
	}
	return !slices.ContainsFunc(bp.Atoms, func(a *AtomRef) bool {
		return ex.p.multiplies(a) && a.LastLevel >= 0 && levelOf(bp, a, a.LastLevel) == last
	})
}

func (ex *bagExec) emptyResult() *trie.Trie {
	b := trie.NewColumnarBuilder(len(ex.bp.OutAttrs), ex.op, ex.p.opts.Layout)
	return b.Build()
}

// worker owns everything one share of a bag's loop nest writes. Output
// accumulates column-wise: cols[i] holds output attribute i of every
// emitted row, so an emit is one append per attribute (no per-row
// allocation) and the result hands straight to the columnar trie builder.
// Its fields and slices are written per value or emit, so each allocation
// is padded by a cache line on each side (see cachePadded): no other
// worker's writes share a line with them.
type worker struct {
	_  [cacheLine]byte
	ex *bagExec
	// slots is the worker's copy of ex.nodes, descended as it binds
	// values.
	slots  []slot
	outBuf []uint32
	cols   [][]uint32
	anns   []float64
	scalar float64
	// has and acc are the dense accumulator of a bag with a span: bit v-lo
	// of has marks output value v, acc[v-lo] holds the ⊕ of its emits
	// (nil in a Boolean plan, whose result is a set). Each is allocated
	// once, at the span's size.
	has []uint64
	acc []float64
	// vals holds a fold tail's candidates when their layout must be
	// decoded for the flat loop (see foldTail), word one bitset word's
	// candidates of a count scan (see countScan).
	vals []uint32
	word [64]uint32
	// scratch provides two ping-pong intersection buffer pairs per loop
	// level, so the loop nest runs allocation-free on uint and bitset
	// results.
	scratch []scratchLevel
	// Under analyze only (nil otherwise): the EXPLAIN ANALYZE level
	// counters (see stats.go), one counting kernel per level tallying
	// routes into lc[lvl].Kernel, and the emit count — private, so no
	// atomics, and folded into the bag's stats once the pool drains.
	lc    []LevelStats
	kerns []*set.Kernel
	emits int64
	// err is the panic recovered from this worker's run, if any.
	err error
	_   [cacheLine]byte
}

const cacheLine = 64

// cachePadded allocates n zero Ts with at least cacheLine bytes of
// padding on each side; nil when n is 0.
func cachePadded[T any](n int) []T {
	if n == 0 {
		return nil
	}
	var t T
	p := (cacheLine + int(unsafe.Sizeof(t)) - 1) / int(unsafe.Sizeof(t))
	return make([]T, n+2*p)[p : n+p : n+p]
}

// slot is one level of a worker's cursor: the trie node whose Set binds
// it, and a monotone rank hint into that Set — within one loop nest
// level, probed values ascend, so ranks ascend too.
type slot struct {
	node *trie.Node
	hint int
}

// newWorker allocates one worker's state, every written slice padded.
func (ex *bagExec) newWorker() *worker {
	nout := len(ex.bp.OutAttrs)
	w := &worker{ex: ex, slots: cachePadded[slot](len(ex.nodes)),
		outBuf: cachePadded[uint32](nout), cols: cachePadded[[]uint32](nout),
		scalar: ex.op.Zero(), scratch: cachePadded[scratchLevel](len(ex.bp.Attrs))}
	for i, nd := range ex.nodes {
		w.slots[i].node = nd
	}
	if ex.span != nil {
		w.allocAcc()
	}
	if ex.r.stats != nil {
		w.lc = cachePadded[LevelStats](len(ex.bp.Attrs))
		w.kerns = make([]*set.Kernel, len(w.lc))
		for i := range w.kerns {
			w.kerns[i] = set.NewCountingKernel(ex.p.opts.Intersect, &w.lc[i].Kernel)
		}
	}
	return w
}

// allocAcc allocates the worker's dense accumulator over the bag's span.
func (w *worker) allocAcc() {
	w.has = cachePadded[uint64]((w.ex.span.size() + 63) / 64)
	if !w.ex.p.Boolean {
		w.acc = cachePadded[float64](w.ex.span.size())
	}
}

// kernelAt returns the kernel executing level lvl's pairwise set ops: the
// shared plain kernel normally, the level's counting kernel under analyze.
func (w *worker) kernelAt(lvl int) *set.Kernel {
	if w.kerns != nil {
		return w.kerns[lvl]
	}
	return w.ex.kern
}

// scratchBuf is one intersection result and the buffers it aliases; the
// loop nest hands out pointers to s instead of copying the 120-byte Set.
type scratchBuf struct {
	s set.Set
	u []uint32
	w []uint64
}

type scratchLevel [2]scratchBuf

// intersectionAt computes the set of candidate values at a bag level from
// the current cursor nodes (the ∩ of Algorithm 1) in the worker's
// per-level scratch buffers; the result points into them or into a trie
// node, valid until the worker next intersects at lvl.
func (w *worker) intersectionAt(lvl int) *set.Set {
	s := w.intersectPrefix(lvl, w.ex.levels[lvl].refs)
	if w.lc != nil {
		w.noteIntersect(lvl, s.Card())
	}
	return s
}

// intersectPrefix intersects the level sets of refs left to right,
// ping-ponging between the level's two scratch buffers.
func (w *worker) intersectPrefix(lvl int, refs []curRef) *set.Set {
	cur := w.levelSet(refs[0])
	flip := 0
	for _, r := range refs[1:] {
		if cur.IsEmpty() {
			return cur
		}
		sb := &w.scratch[lvl][flip]
		sb.u, sb.w = w.kernelAt(lvl).IntersectInto(&sb.s, cur, w.levelSet(r), sb.u, sb.w)
		cur = &sb.s
		flip ^= 1
	}
	return cur
}

// countAt counts level lvl's intersection without building its last
// step: the count tail's parent binds no value below it.
func (w *worker) countAt(lvl int) int {
	refs := w.ex.levels[lvl].refs
	last := len(refs) - 1
	n := w.levelSet(refs[last]).Card()
	if last > 0 {
		n = w.kernelAt(lvl).CountOf(w.intersectPrefix(lvl, refs[:last]), w.levelSet(refs[last]))
	}
	if w.lc != nil {
		w.noteIntersect(lvl, n)
	}
	return n
}

// stealBlockMax bounds the work-stealing block size: small enough that a
// handful of power-law high-degree vertices spread across workers instead
// of serializing the tail, large enough to amortize the atomic claim and
// the per-block set construction.
const stealBlockMax = 64

// runParallel distributes the first variable level across workers with
// work stealing: the sorted first-level values are split into fixed-size
// blocks claimed off an atomic cursor, so workers that drew cheap (low
// degree) values keep pulling blocks while a worker stuck on a skewed
// high-degree vertex finishes its one block. The coordinator is worker 0:
// it computes the first level, starts the other nw-1 workers and then
// takes its share like them. Output accumulates in per-worker columns,
// or dense accumulators, which the coordinator decides on once it knows
// the first level.
func (ex *bagExec) runParallel() ([]*worker, error) {
	nw := ex.p.opts.Parallelism
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	w0 := ex.newWorker()
	ws := []*worker{w0}
	first := w0.intersectionAt(0)
	if ex.span = ex.accSpanOf(first); ex.span != nil {
		w0.allocAcc()
		ex.scatterTail()
	}
	if len(ex.levels) == 1 || ex.levels[0].kind == kindExists {
		// One level, or one existence check from level 0 on: the bag is
		// one pass over first, which a split would repeat per block.
		nw = 1
	}
	if nw = min(nw, first.Card()); nw == 0 {
		return ws, nil
	}
	if ex.levels[0].kind == kindCountScan {
		// Q lies in worker 0's scratch of level 1, which its count scans
		// never write again: every worker reads it.
		ex.q = w0.countOperand(1)
	}
	var share *blocks
	if nw > 1 {
		// vals may alias worker 0's level-0 scratch; no multi-level nest
		// intersects at level 0 again, so it stays valid for every worker.
		vals := first.Slice()
		share = &blocks{vals: vals, size: min(max(len(vals)/(nw*8), 1), stealBlockMax)}
	}
	var wg sync.WaitGroup
	for range nw - 1 {
		w := ex.newWorker()
		ws = append(ws, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(first, share)
		}()
	}
	w0.run(first, share)
	wg.Wait()
	for _, w := range ws {
		if w.err != nil {
			return nil, w.err
		}
	}
	return ws, nil
}

// blocks hands a bag's sorted first-level values out to the pool in
// fixed-size blocks claimed off one atomic cursor.
type blocks struct {
	vals []uint32
	size int
	next atomic.Int64
}

// run is a worker's share of the bag, the one body both the coordinator
// and the pool goroutines execute: all of first when share is nil, else
// blocks claimed off share until none is left. A panic must not kill the
// process: it is recovered into w.err and latches the stop flag, so the
// other workers unwind and the bag fails with ErrExecPanic.
func (w *worker) run(first *set.Set, share *blocks) {
	ex := w.ex
	defer func() {
		if r := recover(); r != nil {
			w.err = panicError(r)
			if ex.r.stop != nil {
				ex.r.stop.Store(true)
			}
		}
	}()
	for !ex.lim.stopped() && !ex.r.stopped() {
		// Chaos hook: PanicKind exercises the recover, Latency stretches a
		// worker mid-bag.
		_ = fault.Hit("exec.worker")
		if share == nil {
			w.levelValues(0, first, ex.scalarFactor)
			return
		}
		lo := int(share.next.Add(int64(share.size))) - share.size
		if lo >= len(share.vals) {
			return
		}
		blk := set.FromSorted(share.vals[lo:min(lo+share.size, len(share.vals))])
		w.levelValues(0, &blk, ex.scalarFactor)
	}
}

// emptySet stands in for the level set of a nil trie node.
var emptySet set.Set

// levelSet returns the set a participant contributes at its level, by
// pointer into the trie node: a probe never copies a Set.
func (w *worker) levelSet(r curRef) *set.Set {
	if n := w.slots[r.slot].node; n != nil {
		return &n.Set
	}
	return &emptySet
}

// levelValues runs level lvl over its candidates, which lie in every set
// the level intersects. ann carries the ⊗-product of annotations
// collected so far.
func (w *worker) levelValues(lvl int, candidates *set.Set, ann float64) {
	ex := w.ex
	lv := &ex.levels[lvl]
	switch lv.kind {
	case kindCount:
		// Deeper count tails are counted by their parent below, so only a
		// one-level bag gets here, and its candidates are the count.
		if n := candidates.Card(); n > 0 {
			w.emit(ex.op.Mul(ann, float64(n)))
		}
		return
	case kindExists:
		if w.witness(lvl, candidates) {
			w.emit(ann)
		}
		return
	case kindFold:
		w.foldTail(lvl, candidates, ann)
		return
	case kindGather:
		w.gather(lvl, candidates, ann)
		return
	case kindScatter:
		w.scatter(lvl, candidates, ann)
		return
	case kindCountScan:
		w.countScan(lvl, candidates, ann)
		return
	}
	var lvlStats *LevelStats
	if w.lc != nil {
		lvlStats = &w.lc[lvl]
	}
	ncand := candidates.Card()
	candidates.ForEachUntil(func(i int, v uint32) bool {
		if lvlStats != nil {
			lvlStats.Probes++
		}
		if ex.lim.stopped() || ex.r.stopped() {
			// Limit pushdown or cooperative cancellation, checked once per
			// value: the budget is spent or the query stopped; unwind.
			return false
		}
		a, ok := w.bind(lv, i, ncand, v, ann)
		if !ok {
			if lvlStats != nil {
				lvlStats.Skipped++
			}
			return true
		}
		if lv.out >= 0 {
			w.outBuf[lv.out] = v
		}
		switch {
		case lv.kind == kindEmit:
			w.emit(a)
		case ex.levels[lvl+1].kind == kindCount:
			// Don't materialize the last-level intersection just to count it.
			if n := w.countAt(lvl + 1); n > 0 {
				w.emit(ex.op.Mul(a, float64(n)))
			}
		default:
			if next := w.intersectionAt(lvl + 1); !next.IsEmpty() {
				w.levelValues(lvl+1, next, a)
			}
		}
		return true
	})
}

// bind binds candidate v, the i-th of ncand at level lv, in every atom
// there that v acts on (lv.binds) and returns ann ⊗ the annotations it
// collects; ok is false when a vector lacks v. Each intersected atom's set
// holds v, so v's rank in it is i when the set has the candidates'
// cardinality (it is the candidate set), else a lookup from the slot's
// hint, which restarts with each pass (i = 0) since values ascend only
// within one. Above its last level an atom descends to v's child; at it,
// an annotated atom multiplies in.
func (w *worker) bind(lv *level, i, ncand int, v uint32, ann float64) (float64, bool) {
	op := w.ex.op
	for _, r := range lv.binds {
		s := &w.slots[r.slot]
		n := s.node
		rank := i
		if n.Set.Card() != ncand {
			if i == 0 {
				s.hint = 0
			}
			rank, _ = n.Set.RankNext(v, s.hint)
			s.hint = rank
		}
		if !r.leaf {
			w.slots[r.slot+1] = slot{node: n.Children[rank]}
		} else if r.ann {
			ann = op.Mul(ann, n.Ann[rank])
		}
	}
	// Then every vector: a bit test (a miss skips v) and one ⊗.
	for _, vc := range lv.vecs {
		x, ok := vc.at(v)
		if !ok {
			return ann, false
		}
		ann = op.Mul(ann, x)
	}
	return ann, true
}

// foldTail folds a last, eliminated level in place: one ⊕-accumulator
// and a single emit instead of a row per value (the early-aggregation
// inner loop of §3.1.1), as one flat loop over the candidates. Stop and
// limit are checked once per call, counters added once.
func (w *worker) foldTail(lvl int, candidates *set.Set, ann float64) {
	ex := w.ex
	if ex.lim.stopped() || ex.r.stopped() {
		return
	}
	lv := &ex.levels[lvl]
	vals := candidates.Values(&w.vals)
	acc, folded, skipped := ex.op.Zero(), false, 0
	for i, v := range vals {
		a, ok := w.bind(lv, i, len(vals), v, ann)
		if !ok {
			skipped++
			continue
		}
		acc = ex.op.Add(acc, a)
		folded = true
	}
	if w.lc != nil {
		w.lc[lvl].Probes += int64(len(vals))
		w.lc[lvl].Skipped += int64(skipped)
	}
	if folded {
		w.emit(acc)
	}
}

// witness reports whether some candidate of an existence-tail level
// extends to a full binding of the levels below it: the caller has
// intersected lvl, and each deeper level is intersected under one
// candidate at a time until the first witness.
func (w *worker) witness(lvl int, candidates *set.Set) bool {
	if lvl == len(w.ex.levels)-1 {
		return !candidates.IsEmpty()
	}
	ncand, found := candidates.Card(), false
	candidates.ForEachUntil(func(i int, v uint32) bool {
		w.bind(&w.ex.levels[lvl], i, ncand, v, 0)
		next := w.intersectionAt(lvl + 1)
		found = !next.IsEmpty() && w.witness(lvl+1, next)
		return !found
	})
	return found
}

// emit records one output row: it folds into the scalar when the bag has
// no output attributes, into the dense accumulator when it has a span,
// and otherwise costs one amortized append per output attribute.
func (w *worker) emit(ann float64) {
	if w.lc != nil {
		w.emits++
	}
	if len(w.ex.bp.OutAttrs) == 0 {
		w.scalar = w.ex.op.Add(w.scalar, ann)
		return
	}
	if w.has != nil {
		off := w.outBuf[0] - w.ex.span.lo
		word, bit := &w.has[off/64], uint64(1)<<(off%64)
		switch {
		case w.acc == nil:
			*word |= bit
		case *word&bit == 0:
			// The first emit stores ann: Zero ⊕ ann would turn −0 into +0.
			*word |= bit
			w.acc[off] = ann
		default:
			w.acc[off] = w.ex.op.Add(w.acc[off], ann)
		}
		return
	}
	for i, v := range w.outBuf {
		w.cols[i] = append(w.cols[i], v)
	}
	if !w.ex.p.Boolean {
		w.anns = append(w.anns, ann)
	}
	w.ex.lim.noteRow(w.outBuf)
}

// materialize hands the workers' emitted columns to the columnar trie
// builder — a lone worker's zero-copy, several concatenated with one flat
// copy per attribute; duplicate rows combine with ⊕ (the early
// aggregation GHDs enable, §3.1.1). A Boolean plan emits no annotations,
// so its result is an un-annotated set.
func (ex *bagExec) materialize(ws []*worker) *trie.Trie {
	if len(ex.bp.OutAttrs) == 0 {
		scalar := ex.op.Zero()
		for _, w := range ws {
			scalar = ex.op.Add(scalar, w.scalar)
		}
		return trie.NewScalar(scalar, ex.op)
	}
	if ex.span != nil {
		return ex.materializeDense(ws)
	}
	cols, anns := ws[0].cols, ws[0].anns
	if len(ws) > 1 {
		total := 0
		for _, w := range ws {
			total += len(w.cols[0])
		}
		cols = make([][]uint32, len(cols))
		for c := range cols {
			col := make([]uint32, 0, total)
			for _, w := range ws {
				col = append(col, w.cols[c]...)
			}
			cols[c] = col
		}
		anns = make([]float64, 0, total)
		for _, w := range ws {
			anns = append(anns, w.anns...)
		}
	}
	b := trie.NewColumnarBuilder(len(ex.bp.OutAttrs), ex.op, ex.p.opts.Layout)
	if len(anns) == 0 {
		anns = nil // no emits or a Boolean plan: an un-annotated trie
	}
	b.SetColumns(cols, anns)
	return b.Build()
}

// materializeDense ⊕-merges the workers' accumulators into worker 0's, in
// worker order, and builds the unary trie from the merged bitmap in
// ascending order: no sort, no dedup. The set and its annotations are
// what the columnar builder makes of the same rows, and at one worker the
// ⊕ order is emission order, as the builder's stable sort gives it. A
// level-0 output value is bound by one worker only, so there the result
// is the same at every Parallelism.
func (ex *bagExec) materializeDense(ws []*worker) *trie.Trie {
	has, acc := ws[0].has, ws[0].acc
	n := 0
	for i := range has {
		for _, w := range ws[1:] {
			word := w.has[i]
			for m := word & has[i]; acc != nil && m != 0; m &= m - 1 {
				off := i*64 + bits.TrailingZeros64(m)
				acc[off] = ex.op.Add(acc[off], w.acc[off])
			}
			for m := word &^ has[i]; acc != nil && m != 0; m &= m - 1 {
				off := i*64 + bits.TrailingZeros64(m)
				acc[off] = w.acc[off]
			}
			has[i] |= word
		}
		n += bits.OnesCount64(has[i])
	}
	if n == 0 {
		return ex.emptyResult()
	}
	vals := make([]uint32, 0, n)
	var anns []float64
	if acc != nil {
		anns = make([]float64, 0, n)
	}
	for i, word := range has {
		for m := word; m != 0; m &= m - 1 {
			off := i*64 + bits.TrailingZeros64(m)
			vals = append(vals, ex.span.lo+uint32(off))
			if acc != nil {
				anns = append(anns, acc[off])
			}
		}
	}
	layout := ex.p.opts.Layout
	root := &trie.Node{Set: layout.Build(vals), Ann: anns}
	return &trie.Trie{Arity: 1, Annotated: acc != nil, Op: ex.op, Root: root, Policy: layout}
}
